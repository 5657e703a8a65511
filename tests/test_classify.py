import importlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from trivec.classify import (TABLE1, TABLE2, TABLE3, classify, classify6,
                             classify6_real, classify7, classify8,
                             classify9_family, is_separable,
                             leclerc_residuals, plucker_residuals,
                             support_reduction)
import trivec.covariants
import trivec.exterior
import trivec.invariants
from trivec.cli import parse_state, state_document
from trivec.exterior import (AltTensor, GroupElement, canonical_state,
                             embed_three_qutrits, slocc_apply)
from trivec.invariants import J_DEGREES, nine_js
from trivec.oracle import random_invertible, random_state, random_unimodular
from trivec.scalars import GaussianRational, TolerancePolicy

from test_acceptance import FAMILY_RANK_T, FAMILY_SAMPLES
from test_scalars import is_normal


def e(dim, *idx):
    return AltTensor.basis(dim, idx)


def test_table1_labels_and_signatures():
    for sig, label in TABLE1.items():
        out = classify6(canonical_state(6, label))
        assert out.label == label
        assert out.signature == sig


def test_classify6_examples():
    assert classify6(e(6, 1, 2, 3) + e(6, 4, 5, 6)).label == "GHZ"
    w = classify6(e(6, 1, 2, 6) + e(6, 4, 2, 3) + e(6, 1, 5, 3))
    assert (w.label, w.signature) == ("W", (6, 3, 6))
    b = classify6(e(6, 1, 2, 3) + e(6, 1, 5, 6))
    assert (b.label, b.signature) == ("Bisep", (5, 1, 4))


def test_classify6_chain_agrees_with_table_on_random_states():
    rng = random.Random(60)
    for _ in range(300):
        p = random_state(6, rng, bound=3)
        out = classify6(p)
        assert out.classified, out.detail


def test_classify6_real_split():
    plus = canonical_state(6, "GHZ+")
    minus = canonical_state(6, "GHZ-")
    assert classify6_real(plus).label == "GHZ+"
    assert classify6_real(minus).label == "GHZ-"
    assert classify6_real(e(6, 1, 2, 3)).label == "Sep"
    assert classify6_real(minus.to_float()).label == "GHZ-"
    with pytest.raises(ValueError):
        classify6_real(AltTensor.from_terms(6, 3, [((1, 2, 3), 1j)]))


def _plucker_by_components(p):
    """Pi_{A,B} = sum_n (-1)^n P_{A j_n} P_{B - j_n}, through ``component``."""
    k = p.degree
    out = []
    rng = range(1, p.dim + 1)
    for a_set in itertools.combinations(rng, k - 1):
        for b_set in itertools.combinations(rng, k + 1):
            total = 0
            for n, j in enumerate(b_set):
                rest = b_set[:n] + b_set[n + 1:]
                x = p.component(a_set + (j,))
                if x:
                    y = p.component(rest)
                    if y:
                        term = x * y
                        total = total + (term if n % 2 == 0 else -term)
            out.append(((a_set, b_set), total))
    return out


@pytest.mark.parametrize("dim", [6, 7, 8])
def test_plucker_residuals_equal_the_component_sum(dim):
    rng = random.Random(dim)
    z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    for _ in range(3):
        p = random_state(dim, rng, density=0.3, bound=3)
        q = slocc_apply(random_invertible(dim, rng.randrange(10 ** 6)),
                        e(dim, 1, 2, 3) + e(dim, 1, 4, 5))
        for state in (p, p.to_float(), q, q.to_float(),
                      AltTensor(dim, 3, {m: v * z for m, v in q.masks().items()})):
            assert plucker_residuals(state) == _plucker_by_components(state)
    assert all(not v for _, v in plucker_residuals(slocc_apply(
        random_invertible(dim, 3), e(dim, 1, 2, 3))))


def test_classify7_table_rows():
    for sig, label in TABLE2.items():
        out = classify7(canonical_state(7, label))
        assert (out.label, out.signature) == (label, sig)


def test_classify7_examples():
    assert classify7(e(7, 1, 2, 3)).signature == (0, 3, 0)
    x = classify7(canonical_state(7, "X"))
    assert x.signature == (7, 7, 7)


def test_classify8_table_rows():
    for sig, label in TABLE3.items():
        out = classify8(canonical_state(8, label))
        assert (out.label, out.signature) == (label, sig)


def test_classify8_delegation():
    sep = AltTensor.from_terms(8, 3, [((1, 2, 3), 1)])
    out = classify8(sep)
    assert out.label == "Sep"
    assert out.detail["delegated_to"] == 6
    assert out.detail["roman_equivalent"] == "II"
    # embedded seven-dimensional representatives keep their table labels;
    # those supported on six modes only come back with the six-dim name and
    # its numeral equivalent
    for label, want6 in (("V", "GHZ"), ("VI", None), ("IX", None), ("X", None)):
        emb = AltTensor.from_terms(
            8, 3, list(canonical_state(7, label).terms()))
        g = random_invertible(8, 1234)
        out = classify8(slocc_apply(g, emb))
        if want6 is None:
            assert out.label == label, (label, out)
            assert out.detail["delegated_to"] == 7
        else:
            assert out.label == want6
            assert out.detail["roman_equivalent"] == label


def test_support_reduction_rank():
    # e123 + 2 e124 = e1 ^ e2 ^ (e3 + 2 e4): a separable state of support 3
    p = AltTensor.from_terms(8, 3, [((1, 2, 3), 1), ((1, 2, 4), 2)])
    g, r = support_reduction(p)
    assert r == 3
    rotated = slocc_apply(g, p)
    assert all(t[-1] <= 3 for t, _ in rotated.terms())
    assert classify8(p).label == "Sep"


def test_support_reduction_inverts_once(monkeypatch):
    calls = []
    invert = trivec.exterior._invert_transpose

    def counted(m):
        calls.append(m)
        return invert(m)

    monkeypatch.setattr(trivec.exterior, "_invert_transpose", counted)
    x7 = AltTensor.from_terms(8, 3, list(canonical_state(7, "X").terms()))
    for p in (slocc_apply(random_invertible(8, 7), canonical_state(8, "XV")),
              slocc_apply(random_invertible(8, 7), x7)):
        for q in (p, p.to_float()):
            calls.clear()
            g, r = support_reduction(q)
            assert len(calls) == 1
            moved = slocc_apply(g, q)
            assert max(t[-1] for t, v in moved.terms() if abs(v) > 1e-9) == r


def test_support_reduction_rows_are_the_component_rows(monkeypatch):
    seen = []
    classify_module = importlib.import_module("trivec.classify")
    reduce = classify_module.row_reduce

    def recorded(rows, floor=0.0):
        seen.append([list(r) for r in rows])
        return reduce(rows, floor)

    monkeypatch.setattr(classify_module, "row_reduce", recorded)
    z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    x7 = AltTensor.from_terms(8, 3, list(canonical_state(7, "X").terms()))
    for p in (slocc_apply(random_invertible(8, 7), canonical_state(8, "XV")),
              slocc_apply(random_unimodular(8, 100), x7)):
        for q in (p, p.to_float(),
                  AltTensor(8, 3, {m: v * z for m, v in p.masks().items()})):
            seen.clear()
            support_reduction(q)
            want = [[q.component((i, a, b)) for i in range(1, 9)]
                    for a, b in itertools.combinations(range(1, 9), 2)]
            assert seen == [want]


def test_float_moved_eight_mode_xi():
    p = slocc_apply(random_invertible(8, 202), canonical_state(8, "XI"))
    # the float state file, read back: its terms come in file order
    q, _ = parse_state(state_document(p.to_float(), "float"))
    assert classify8(q).label == classify8(p.to_float()).label == "XI"


def test_classify9_families():
    params = {1: (1, 2, 4, 8), 2: (1, 2, 3), 3: (1, 2), 4: (1, 2),
              5: (1,), 6: (1,), 7: ()}
    for fam, ps in params.items():
        out = classify9_family(canonical_state(9, f"family{fam}", ps))
        assert out.label == f"family{fam}"


def _rescale_pairs():
    """(dim, integer-coefficient state, name) over the 6-9-mode tables."""
    for dim, table in ((6, TABLE1), (7, TABLE2), (8, TABLE3)):
        for label in table.values():
            yield dim, canonical_state(dim, label), label
    # generic rows moved, so their invariants are nonzero and not units
    for dim, label in ((6, "GHZ"), (7, "X"), (8, "XXIII")):
        p = slocc_apply(random_unimodular(dim, 100), canonical_state(dim, label))
        yield dim, p, label
    for fam, params in FAMILY_SAMPLES.items():
        yield 9, canonical_state(9, f"family{fam}", params), f"family{fam}"


def test_classify9_rational_state_matches_its_integer_rescale():
    # every classifier, 6 to 9 modes, runs on the integer rescale of an
    # exact state; label, signature and rank T must not change, and each
    # invariant must scale back by 3^-degree
    direct = {6: classify6, 7: classify7, 8: classify8, 9: classify9_family}
    for dim, p, label in _rescale_pairs():
        doc = state_document(p.scale(Fraction(1, 3)), "rational")
        q, _ = parse_state(doc)
        # the parser keeps real non-integer rationals as Fraction
        assert all(not isinstance(v, GaussianRational) or v.im
                   for v in q.masks().values()), label
        want = classify(p)
        assert want.label == label
        for out in (classify(q), direct[dim](q)):
            assert (out.label, out.signature) == (want.label, want.signature)
            assert out.detail.get("rank_T") == want.detail.get("rank_T")
            assert out.invariants.keys() == want.invariants.keys(), label
            for name, (v_q, deg) in out.invariants.items():
                v_p, deg_p = want.invariants[name]
                assert deg == deg_p
                assert v_q * 3 ** deg == v_p, (label, name)
        if dim == 9:
            assert want.detail["rank_T"] == FAMILY_RANK_T[int(label[6:])]
            for j_q, j_p, deg in zip(out.invariants.values(), nine_js(p),
                                     J_DEGREES):
                assert j_q[0] == Fraction(j_p, 3 ** deg), (label, deg)


def test_exact_invariants_come_back_in_the_normal_form():
    # int when integral, Fraction when real, GaussianRational only when the
    # imaginary part is nonzero; the Gaussian factor 3/5+4/5 i makes
    # GaussianRational sums whose imaginary parts cancel
    phase = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    states = [(6, canonical_state(6, "W").scale(phase)),
              (6, canonical_state(6, "GHZ")),
              (7, canonical_state(7, "X")),
              (7, canonical_state(7, "IX").scale(Fraction(2, 7))),
              (8, canonical_state(8, "XV").scale(phase)),
              (9, canonical_state(9, "family4", FAMILY_SAMPLES[4]).scale(Fraction(1, 3)))]
    for dim, p in states:
        for name, (v, _) in classify(p).invariants.items():
            assert is_normal(v), (dim, name, v)


def test_float_moved_families_keep_rank_t():
    g = random_unimodular(9, 100)
    for fam, params in FAMILY_SAMPLES.items():
        p = slocc_apply(g, canonical_state(9, f"family{fam}", params)).to_float()
        assert classify9_family(p).detail["rank_T"] == FAMILY_RANK_T[fam], fam


def _times_power_of_two(p, k):
    return AltTensor(p.dim, 3, {m: complex(math.ldexp(v.real, k), math.ldexp(v.imag, k))
                                for m, v in p.masks().items()})


def _normal_ldexp(x, n):
    """x * 2^n when that is zero or a normal double, else None."""
    if not x:
        return x
    e = math.frexp(x)[1] + n
    return math.ldexp(x, n) if -1021 <= e <= 1024 else None


def test_float_classification_does_not_depend_on_scale():
    # P and 2^k P lie in one class, and a float state is classified on the
    # unit-scale multiple of itself that both share: label, signature, rank
    # of T and zero flags agree, nothing overflows, and an invariant of
    # degree d comes back times exactly 2^(k d) wherever a double holds it.
    # Nine modes are moved by three shears: a dense nine-mode copy costs
    # four times as much to classify.
    rows = ([(6, r) for r in TABLE1.values()] + [(7, r) for r in TABLE2.values()]
            + [(8, r) for r in TABLE3.values()]
            + [(9, f"family{fam}") for fam in range(1, 8)])
    shears = [[int(i == j) for j in range(9)] for i in range(9)]
    shears[0][3], shears[4][7], shears[8][2] = 1, -1, 1
    for dim, row in rows:
        p = canonical_state(dim, row, FAMILY_SAMPLES.get(int(row[6:]) if dim == 9 else 0, ()))
        g = GroupElement(shears) if dim == 9 else random_unimodular(dim, 100)
        for moved, q in ((False, p), (True, slocc_apply(g, p))):
            f = q.to_float()
            want = classify(f)
            for k in (-300, -40, -8, 8, 40, 300):
                out = classify(_times_power_of_two(f, k))
                case = (dim, row, moved, k)
                assert (out.label, out.signature) == (want.label, want.signature), case
                assert out.detail.get("rank_T") == want.detail.get("rank_T"), case
                assert out.zero == want.zero, case
                assert out.invariants.keys() == want.invariants.keys(), case
                for name, (v, deg) in want.invariants.items():
                    got = out.invariants[name][0]
                    for part in ("real", "imag"):
                        exact = _normal_ldexp(getattr(v, part), k * deg)
                        if exact is not None:
                            assert getattr(got, part) == exact, (case, name)


def test_classify9_builds_t_once(monkeypatch):
    calls = []
    build = trivec.covariants.t_matrix_rows

    def counted(p):
        calls.append(p)
        return build(p)

    monkeypatch.setattr(trivec.invariants, "t_matrix_rows", counted)
    monkeypatch.setattr(trivec.covariants, "t_matrix_rows", counted)
    for fam in (1, 6):
        p = canonical_state(9, f"family{fam}", FAMILY_SAMPLES[fam])
        calls.clear()
        out = classify9_family(p)
        assert out.detail["rank_T"] == FAMILY_RANK_T[fam]
        assert len(calls) == 1



def test_zero_epsilon_of_the_policy_is_honored(monkeypatch):
    ghz = canonical_state(6, "GHZ").to_float()
    bisep = canonical_state(6, "Bisep").to_float()
    f1 = canonical_state(9, "family1", (1, 2, 4, 8)).to_float()
    assert classify6(ghz).label == "GHZ"
    assert not is_separable(bisep)
    assert classify9_family(f1).label == "family1"
    monkeypatch.setattr(TolerancePolicy, "ZERO_EPSILON", 1e3)
    out = classify6(ghz)
    # D, the dual trivector and every Pluecker residual read zero, so the
    # chain says Sep while the rank triple still says GHZ
    assert out.label == "Unclassified"
    assert out.detail["chain_label"] == "Sep"
    assert out.detail["table_label"] == "GHZ"
    assert is_separable(bisep)
    monkeypatch.setattr(TolerancePolicy, "ZERO_EPSILON", 1e12)
    assert classify9_family(f1).label == "family7"


def test_classify9_generic_qutrit_lands_in_family2():
    rng = random.Random(61)
    psi = {(m1, m2, m3): Fraction(rng.randint(-4, 4), rng.randint(1, 2))
           for m1 in (1, 2, 3) for m2 in (1, 2, 3) for m3 in (1, 2, 3)}
    out = classify9_family(embed_three_qutrits(psi))
    assert out.label == "family2"


def test_classify9_qutrit_families_consistent_with_separation():
    # normal forms whose invariant verdicts put them in distinct qutrit
    # families map to the matching fermionic families
    from trivec.invariants import qutrit_normal_invariants
    cases = [(1, 2, 3), (1, 1, 0), (1, 0, 0)]
    for (a, b, c) in cases:
        inv = qutrit_normal_invariants(Fraction(a), Fraction(b), Fraction(c))
        psi = {}
        for trip in ((1, 1, 1), (2, 2, 2), (3, 3, 3)):
            psi[trip] = Fraction(a)
        for trip in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            psi[trip] = Fraction(-b)
        for trip in ((1, 3, 2), (2, 1, 3), (3, 2, 1)):
            psi[trip] = Fraction(c)
        out = classify9_family(embed_three_qutrits(psi))
        if inv["D36"] != 0:
            assert out.label == "family2"
        elif inv["D24"] != 0 or inv["D21"] != 0:
            assert out.label in ("family3", "family5")
        else:
            assert out.label in ("family6", "family7")


def test_plucker_anchors():
    assert is_separable(e(6, 1, 2, 3))
    assert not is_separable(e(6, 1, 2, 3) + e(6, 4, 5, 6))
    residuals = plucker_residuals(e(6, 1, 2, 3) + e(6, 4, 5, 6))
    assert any(v for _, v in residuals)
    assert is_separable(AltTensor.zero(6, 3))


def test_separability_is_group_invariant():
    rng = random.Random(62)
    for dim in (6, 7, 8, 9):
        sep = e(dim, 1, 2, 3)
        for _ in range(5):
            g = random_invertible(dim, rng)
            assert is_separable(slocc_apply(g, sep))


def test_leclerc_agrees_with_general_residuals():
    rng = random.Random(63)
    for _ in range(40):
        p = random_state(6, rng, bound=3)
        general = all(not v for _, v in plucker_residuals(p))
        block = all(not v for v in leclerc_residuals(p))
        assert general == block
    sep_img = slocc_apply(random_invertible(6, rng), e(6, 1, 2, 3))
    assert all(not v for v in leclerc_residuals(sep_img))


def test_class_labels_stable_under_group():
    rng = random.Random(64)
    for label in ("Sep", "W", "GHZ"):
        p = canonical_state(6, label)
        for _ in range(5):
            assert classify6(slocc_apply(random_invertible(6, rng), p)).label == label
    for label in ("III", "VII", "X"):
        p = canonical_state(7, label)
        for _ in range(3):
            assert classify7(slocc_apply(random_invertible(7, rng), p)).label == label


def test_float_mode_classification():
    ghzf = canonical_state(6, "GHZ").to_float()
    assert classify6(ghzf).label == "GHZ"
    xf = canonical_state(7, "X").to_float()
    assert classify7(xf).label == "X"


def test_classify_dispatch():
    assert classify(canonical_state(6, "W")).label == "W"
    assert classify(canonical_state(7, "IV")).label == "IV"
    with pytest.raises(ValueError):
        classify(AltTensor.zero(5, 3))
