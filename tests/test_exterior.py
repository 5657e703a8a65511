import itertools
import math
import random
from fractions import Fraction

import pytest

from trivec.exterior import (AltTensor, GroupElement, SubsetIndexer,
                             canonical_state, complex_basis_form, contractions,
                             embed_qudits, embed_three_qubits,
                             embed_three_qutrits, interior, is_primitive,
                             join_seven, mask_of, nine_q, pairing,
                             semisimple_state, slocc_apply, split_seven, star,
                             symplectic_pairing, wedge)
from trivec.oracle import random_invertible, random_state, random_unimodular
from trivec.scalars import GaussianRational

from test_scalars import is_normal


def e(dim, *idx):
    return AltTensor.basis(dim, idx)


def test_from_terms_normalizes_and_rejects():
    t = AltTensor.from_terms(6, 3, [((2, 1, 3), 5)])
    assert t.coefficient((1, 2, 3)) == -5
    assert t.component((2, 1, 3)) == 5
    with pytest.raises(ValueError):
        AltTensor.from_terms(6, 3, [((1, 1, 2), 1)])
    with pytest.raises(ValueError):
        AltTensor.from_terms(6, 3, [((1, 2, 7), 1)])


def test_mixed_mode_tensor_rejected():
    with pytest.raises(TypeError):
        AltTensor.from_terms(6, 3, [((1, 2, 3), 1), ((4, 5, 6), 0.5)])
    a = e(6, 1, 2, 3)
    b = AltTensor.from_terms(6, 3, [((4, 5, 6), 0.5)])
    with pytest.raises(TypeError):
        wedge(a.scale(GaussianRational(1)), b)


def test_subset_indexer_roundtrip():
    for dim in range(1, 10):
        for k in range(dim + 1):
            idx = SubsetIndexer(dim, k)
            subsets = itertools.combinations(range(1, dim + 1), k)
            assert idx.masks == sorted(mask_of(t) for t in subsets)
            assert all(idx.position[m] == i for i, m in enumerate(idx.masks))


def test_wedge_anchors():
    assert wedge(e(6, 1), e(6, 2)) == e(6, 1, 2)
    assert wedge(e(6, 2), e(6, 1)) == e(6, 1, 2).scale(-1)
    omega = e(6, 1, 4) + e(6, 2, 5) + e(6, 3, 6)
    # every monomial of the two-term state shares an index with every term
    # of omega, so this five-form vanishes: the state is primitive
    assert wedge(e(6, 1, 2, 3) - e(6, 1, 5, 6), omega).is_zero()
    five = wedge(e(6, 1, 2, 5), omega)
    assert five == e(6, 1, 2, 3, 5, 6).scale(-1)


def test_wedge_graded_commutativity_and_associativity():
    rng = random.Random(10)
    for _ in range(30):
        dim = rng.choice((5, 6, 7, 8, 9))
        ka = rng.randint(1, 3)
        kb = rng.randint(1, min(3, dim - ka))
        a = random_state(dim, rng, degree=ka, bound=3)
        b = random_state(dim, rng, degree=kb, bound=3)
        sign = (-1) ** (ka * kb)
        assert wedge(a, b) == wedge(b, a).scale(sign)
        kc = dim - ka - kb
        if kc >= 1:
            c = random_state(dim, rng, degree=min(kc, 2), bound=3)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_interior_anchors():
    assert interior(e(6, 1), e(6, 1, 2, 3)) == e(6, 2, 3)
    assert interior(e(6, 2), e(6, 1, 2, 3)) == e(6, 1, 3).scale(-1)
    assert interior(e(6, 1, 2), e(6, 1, 2, 3)) == e(6, 3)


def test_interior_adjoint_to_wedge():
    # <i_{e_a} Q, beta> = <Q, e_a ^ beta>
    rng = random.Random(11)
    for _ in range(30):
        dim = rng.choice((4, 5, 6))
        k = rng.randint(2, 3)
        q = random_state(dim, rng, degree=k, bound=3)
        beta = random_state(dim, rng, degree=k - 1, bound=3)
        a = rng.randint(1, dim)
        lhs = pairing(interior(e(dim, a), q), beta)
        rhs = pairing(q, wedge(e(dim, a), beta))
        assert lhs == rhs


def test_interior_composition_sign():
    # i_alpha i_beta = (-1)^{km} i_beta i_alpha
    rng = random.Random(12)
    for _ in range(20):
        dim = 6
        ka = rng.randint(1, 2)
        kb = rng.randint(1, 2)
        p = random_state(dim, rng, degree=min(ka + kb + 1, 3) + (3 - min(ka + kb + 1, 3)), bound=3)
        p = random_state(dim, rng, degree=3, bound=3)
        if ka + kb > 3:
            continue
        alpha = random_state(dim, rng, degree=ka, bound=3)
        beta = random_state(dim, rng, degree=kb, bound=3)
        lhs = interior(alpha, interior(beta, p))
        rhs = interior(beta, interior(alpha, p)).scale((-1) ** (ka * kb))
        assert lhs == rhs


def test_interior_derivation_rule():
    # i_v (P ^ Q) = i_v P ^ Q + (-1)^p P ^ i_v Q for a vector v
    rng = random.Random(13)
    for _ in range(20):
        dim = rng.choice((5, 6))
        kp = rng.randint(1, 2)
        kq = rng.randint(1, min(3, dim - kp))
        p = random_state(dim, rng, degree=kp, bound=3)
        q = random_state(dim, rng, degree=kq, bound=3)
        v = e(dim, rng.randint(1, dim))
        lhs = interior(v, wedge(p, q))
        rhs = wedge(interior(v, p), q) + wedge(p, interior(v, q)).scale((-1) ** kp)
        assert lhs == rhs


def test_star_anchors():
    assert star(e(6, 1, 2, 3, 4, 5, 6)).coefficient(()) == 1
    assert star(e(6, 4, 5, 6)) == e(6, 1, 2, 3)
    # eps(3,5,6,1,2,4) = +1: an even permutation of 1..6
    assert star(e(6, 1, 2, 4)) == e(6, 3, 5, 6)


def test_star_defining_pairing():
    # Q ^ R = <Q, star R> as top forms, for complementary degrees
    rng = random.Random(14)
    for _ in range(25):
        dim = rng.choice((4, 5, 6))
        m = rng.randint(1, dim - 1)
        r = random_state(dim, rng, degree=m, bound=3)
        q = random_state(dim, rng, degree=dim - m, bound=3)
        top = wedge(q, r)
        lhs = top.coefficient(tuple(range(1, dim + 1)))
        assert lhs == pairing(q, star(r))


def test_star_weight_under_scalar_group_element():
    # star of the transformed form equals det(g)^{-1} times the transformed
    # dual vector; for g = c*Id both sides reduce to a c^{-m} rescaling
    c = Fraction(3)
    for m in (1, 2, 3):
        r = random_state(6, 5, degree=m, bound=3)
        g = GroupElement.scalar(6, c)
        lhs = star(slocc_apply(g, r))
        direct = star(r).scale(Fraction(1, c ** m))
        assert lhs == direct


def test_symplectic_pairing_anchors():
    assert symplectic_pairing(e(6, 1, 2, 3), e(6, 4, 5, 6)) == 1
    assert symplectic_pairing(e(6, 1, 2, 3), e(6, 1, 2, 3)) == 0
    rng = random.Random(15)
    for _ in range(10):
        p = random_state(6, rng, bound=3)
        q = random_state(6, rng, bound=3)
        assert symplectic_pairing(p, q) == -symplectic_pairing(q, p)


def test_slocc_identity_and_scalar():
    p = random_state(6, 16)
    assert slocc_apply(GroupElement.identity(6), p) == p
    g = GroupElement.scalar(6, Fraction(2))
    assert slocc_apply(g, p) == p.scale(Fraction(1, 8))


def test_slocc_group_action_property():
    rng = random.Random(17)
    for dim in (6, 7, 9):
        p = random_state(dim, rng)
        g1 = random_unimodular(dim, rng)
        g2 = random_unimodular(dim, rng)
        assert slocc_apply(g2, slocc_apply(g1, p)) == slocc_apply(g2 @ g1, p)


def test_permuted_qubit_embedding_is_group_equivalent_to_block():
    # the amplitude dictionary is the block embedding composed with the
    # basis permutation sending (1..6) to (1,4,2,5,3,6)
    rng = random.Random(18)
    psi = {key: rng.randint(-3, 3) for key in
           [(b1, b2, b3) for b1 in (0, 1) for b2 in (0, 1) for b3 in (0, 1)]}
    block = embed_qudits({(k[0] + 1, k[1] + 1, k[2] + 1): v
                          for k, v in psi.items()}, 2, 3)
    # the element sending e_i to e_image(i)
    image = [1, 4, 2, 5, 3, 6]
    perm = GroupElement([[int(image[j] == i + 1) for j in range(6)]
                         for i in range(6)])
    assert slocc_apply(perm, block) == embed_three_qubits(psi)


def test_qubit_embedding_dictionary():
    psi = {(0, 0, 0): 7}
    assert embed_three_qubits(psi) == e(6, 1, 2, 3).scale(7)
    psi = {(0, 1, 0): 1}
    assert embed_three_qubits(psi) == e(6, 1, 5, 3)


def test_qutrit_embedding_anchors():
    assert embed_three_qutrits({(1, 1, 1): 1}) == e(9, 1, 4, 7)
    a, b, c = Fraction(2), Fraction(3), Fraction(5)
    psi = {}
    for trip, coeff in ((( 1, 1, 1), a), ((2, 2, 2), a), ((3, 3, 3), a)):
        psi[trip] = coeff
    for trip in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        psi[trip] = -b
    for trip in ((1, 3, 2), (2, 1, 3), (3, 2, 1)):
        psi[trip] = c
    want = nine_q(2).scale(a) + nine_q(3).scale(-b) + nine_q(4).scale(c)
    assert embed_three_qutrits(psi) == want


def test_embed_qudits_rejects_too_large():
    with pytest.raises(ValueError):
        embed_qudits({(1, 1, 1, 1): 1}, 3, 4)


def test_split_seven_anchors():
    p0 = canonical_state(7, "X")
    p6, om = split_seven(p0)
    assert p6 == (e(6, 1, 2, 3) - e(6, 1, 5, 6) + e(6, 2, 4, 6) - e(6, 3, 4, 5))
    assert om == (e(6, 1, 4) + e(6, 2, 5) + e(6, 3, 6))
    assert is_primitive(p6, om)
    assert split_seven(e(7, 1, 2, 3)) == (e(6, 1, 2, 3), AltTensor.zero(6, 2))
    assert split_seven(e(7, 1, 2, 7)) == (AltTensor.zero(6, 3), e(6, 1, 2))


def test_split_join_roundtrip():
    rng = random.Random(19)
    for _ in range(20):
        p = random_state(7, rng)
        assert join_seven(*split_seven(p)) == p


def test_is_primitive_anchors():
    assert is_primitive(e(6, 1, 2, 3), e(6, 1, 4))   # overlapping indices
    assert not is_primitive(e(6, 1, 2, 3), e(6, 4, 5))
    assert is_primitive(random_state(6, 20), AltTensor.zero(6, 2))


def test_canonical_state_anchors():
    assert canonical_state(6, "GHZ") == e(6, 1, 2, 3) + e(6, 4, 5, 6)
    v6 = canonical_state(7, "VI")
    assert v6 == e(7, 1, 4, 7) + e(7, 2, 5, 7) + e(7, 3, 6, 7)
    q1 = canonical_state(9, "family6", (1,))
    assert q1 == nine_q(1)
    with pytest.raises(KeyError):
        canonical_state(6, "Quux")


def test_canonical_family_constraints():
    from trivec.exterior import FamilyConstraintError
    with pytest.raises(FamilyConstraintError):
        canonical_state(9, "family1", (2, 1, 1, 3))  # a + c = d
    with pytest.raises(FamilyConstraintError):
        canonical_state(9, "family2", (1, 1, 3))     # a = b
    with pytest.raises(FamilyConstraintError):
        canonical_state(9, "family6", (0,))
    canonical_state(9, "family1", (1, 2, 4, 8))      # valid


def test_complex_basis_expansion():
    # the two-term combination over the complex coordinates doubles into
    # four real monomials
    ghz_c = complex_basis_form(7, (1, 2, 3)) + complex_basis_form(7, (-1, -2, -3))
    want = (e(7, 1, 2, 3) - e(7, 1, 5, 6) + e(7, 2, 4, 6) - e(7, 3, 4, 5)).scale(2)
    assert ghz_c == want


def test_simplify_exact_on_int_parts():
    from trivec.exterior import _simplify_exact
    t = AltTensor(7, 3, {0b111: GaussianRational(4, -8), 0b1011: GaussianRational(12),
                         0b1101: 8, 0b10011: Fraction(-4)})
    s = _simplify_exact(t)
    # divided by 4 (the parts 1 and -2 stop it) with zero imaginary parts dropped
    assert s.masks() == {0b111: GaussianRational(1, -2), 0b1011: 3, 0b1101: 2,
                         0b10011: -1}
    assert all(type(v) is int for m, v in s.masks().items() if m != 0b111)
    assert _simplify_exact(AltTensor(7, 3, {0b111: GaussianRational(Fraction(1, 2), 2)})) \
        == AltTensor(7, 3, {0b111: GaussianRational(Fraction(1, 2), 2)})
    for label in ("II", "IV", "VII", "X"):
        for v in canonical_state(7, label).masks().values():
            parts = (v.re, v.im) if isinstance(v, GaussianRational) else (v,)
            assert all(type(x) is int for x in parts), (label, v)
            # a Gaussian coefficient is one with a nonzero imaginary part
            assert not isinstance(v, GaussianRational) or v.im, (label, v)


def test_alt_tensor_stores_the_exact_normal_form():
    t = AltTensor(6, 3, {0b111: GaussianRational(Fraction(1, 2), 0),
                         0b1011: Fraction(4, 2), 0b1101: GaussianRational(3),
                         0b10011: GaussianRational(1, -1), 0b100011: Fraction(1, 3),
                         0b110001: GaussianRational(0)})
    assert t.masks() == {0b111: Fraction(1, 2), 0b1011: 2, 0b1101: 3,
                         0b10011: GaussianRational(1, -1), 0b100011: Fraction(1, 3)}
    assert [type(v) for v in t.masks().values()] == [
        Fraction, int, int, GaussianRational, Fraction]
    # arithmetic that cancels every imaginary part comes back real
    i = GaussianRational(0, 1)
    for s in (t.scale(i).scale(-i), t + t.conjugate(), t.scale(i) - t.scale(i).conjugate()):
        assert all(is_normal(v) for v in s.masks().values()), s
    assert all(type(v) is not GaussianRational for v in (t + t.conjugate()).masks().values())
    # the group image of a Gaussian state whose 123 coefficient comes out real:
    # (1/3)(1+i) + (1/3)(1-i) = 2/3
    p = AltTensor.from_terms(7, 3, [((1, 2, 3), GaussianRational(1, 1)),
                                    ((1, 2, 4), GaussianRational(1, -1))])
    gp = [[Fraction(int(i == j)) for j in range(7)] for i in range(7)]
    gp[2][2] = gp[2][3] = Fraction(1, 3)
    # the element whose inverse transpose is gp: (gp^-1)^T
    m = [[int(i == j) for j in range(7)] for i in range(7)]
    m[2][2], m[3][2] = 3, -1
    g = GroupElement(m)
    assert g.inverse_transpose == gp
    image = slocc_apply(g, p)
    assert image.masks() == {0b111: Fraction(2, 3), 0b1011: GaussianRational(1, -1)}
    assert type(image.masks()[0b111]) is Fraction
    for label in ("IV", "X"):
        moved = slocc_apply(random_invertible(7, 202), canonical_state(7, label))
        assert all(is_normal(v) for v in moved.masks().values()), label


def test_integer_rescale_clears_denominators_by_their_lcm():
    p = AltTensor(7, 3, {0b111: Fraction(1, 6), 0b1101: 5,
                         0b1011: GaussianRational(Fraction(3, 4), Fraction(-1, 10))})
    scale, q = p.integer_rescale()
    assert scale == 60
    assert q.masks() == {0b111: 10, 0b1011: GaussianRational(45, -6), 0b1101: 300}
    assert q == p.scale(60)
    assert all(type(x) is int for v in q.masks().values()
               for x in (v.real, v.imag))
    # integer, Gaussian-integer and float tensors come back as they are
    for r in (canonical_state(7, "X"), canonical_state(6, "GHZ"), p.to_float(),
              AltTensor.zero(6, 3)):
        scale, same = r.integer_rescale()
        assert scale == 1 and same is r


def _with_gaussian_and_float(p):
    z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    return [p, AltTensor(p.dim, 3, {m: v * z for m, v in p.masks().items()}),
            p.to_float()]


@pytest.mark.parametrize("dim", [6, 7, 8, 9])
def test_contractions_equal_interior(dim):
    moved = slocc_apply(random_invertible(dim, 30 + dim), nine_q(1) if dim == 9
                        else canonical_state(dim, {6: "GHZ", 7: "X", 8: "XXIII"}[dim]))
    for p in _with_gaussian_and_float(moved) + _with_gaussian_and_float(
            random_state(dim, 50 + dim, density=0.4)):
        unit = complex(1) if p.mode == "float" else 1
        for l in range(4):
            table = contractions(p, l)
            for t in SubsetIndexer(dim, l).masks:
                want = interior(AltTensor(dim, l, {t: unit}), p).masks()
                got = table.get(t, {})
                assert got == want
                assert list(got) == list(want)
                assert all(got.values())
            assert set(table) <= set(SubsetIndexer(dim, l).masks)
    with pytest.raises(ValueError):
        contractions(moved, 4)


def test_integer_rescale_is_the_primitive_multiple():
    p = slocc_apply(random_invertible(7, 202), canonical_state(7, "X"))
    scale, q = p.integer_rescale()
    parts = [x for v in q.masks().values() for x in (v.real, v.imag)]
    assert all(type(x) is int for x in parts)
    assert math.gcd(*parts) == 1
    assert q == p.scale(scale)
    for c in (3, Fraction(5, 7), 10 ** 40, Fraction(12, 35)):
        cp = p.scale(c)
        assert cp.representative()[0].masks() == q.masks()
        assert cp.integer_rescale()[0] == Fraction(scale) / c
    # a negative factor flips the sign, a Gaussian one keeps its primitive part
    assert p.scale(Fraction(-12, 35)).representative()[0] == -q
    assert p.scale(GaussianRational(6, 8)).representative()[0] == q.scale(
        GaussianRational(3, 4))
    # a common integer factor goes, so the representative has small entries
    big = canonical_state(9, "family1", (1, 2, 4, 8)).scale(10 ** 400)
    scale, q = big.integer_rescale()
    assert scale == Fraction(1, 10 ** 400)
    assert q == canonical_state(9, "family1", (1, 2, 4, 8))


def test_semisimple_state_building_blocks():
    qs = [nine_q(i) for i in range(1, 5)]
    # the twelve monomials are disjoint
    seen = set()
    for q in qs:
        for t, v in q.terms():
            assert v == 1
            assert t not in seen
            seen.add(t)
    assert len(seen) == 12
    s = semisimple_state(1, 2, 3, 4)
    assert s.coefficient((1, 4, 7)) == 2
    assert s.coefficient((3, 5, 7)) == 4
