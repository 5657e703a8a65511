"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Criterion 13b checks the Jordan-decomposition
property: adding a nilpotent part that commutes with a semisimple
representative leaves the invariants unchanged.  Adding an embedded state
that does not commute moves them, and the test keeps an exact counterexample.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations

from trivec.classify import (TABLE1, TABLE2, TABLE3, classify6, classify7,
                             classify8, classify9_family, plucker_residuals,
                             rank_triple_6, rank_triple_7)
from trivec.covariants import (bilinear_form_matrix, dual_trivector,
                               eight_covariants, freudenthal_dual,
                               k_matrix_6, kappa_map, seven_covariants,
                               t_matrix_rows)
from trivec.exterior import (AltTensor, GroupElement, canonical_state,
                             join_seven, nine_q, semisimple_state,
                             slocc_apply, wedge)
from trivec.invariants import (delta_48, eight_i, jacobian_det_factored,
                               jacobian_matrix, nine_deltas, nine_js,
                               quartic_d, qutrit_normal_invariants, seven_j)
from trivec.oracle import (appendix_b, epsilon, quartic_d_block,
                           quartic_d_pairing, random_invertible,
                           random_rational_state, random_unimodular)
from trivec.scalars import determinant, pfaffian, rank


@contextmanager
def criterion(num, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:>3}] FAIL  {desc}")
        raise
    print(f"[criterion {num:>3}] PASS  {desc}  ({time.perf_counter() - t0:.2f}s)")


def e(dim, *idx):
    return AltTensor.basis(dim, idx)


def test_c01_table1_rank_triples():
    with criterion("1", "six-dim table: exact rank triples for all five classes"):
        t0 = time.perf_counter()
        for sig, label in TABLE1.items():
            assert rank_triple_6(canonical_state(6, label)) == sig, label
        assert time.perf_counter() - t0 < 0.1


def test_c02_table2_rank_triples():
    with criterion("2", "seven-dim table: exact rank triples for all ten classes"):
        t0 = time.perf_counter()
        for sig, label in TABLE2.items():
            assert rank_triple_7(canonical_state(7, label)) == sig, label
        assert time.perf_counter() - t0 < 0.5


def test_c03_table3_rank_quadruples():
    with criterion("3", "eight-dim table: exact rank quadruples for all thirteen classes"):
        t0 = time.perf_counter()
        for sig, label in TABLE3.items():
            cov = eight_covariants(canonical_state(8, label))
            quad = (rank(cov.g_matrix), cov.f_map.rank(),
                    cov.e_map.rank(), rank(cov.fe_matrix))
            assert quad == sig, (label, quad)
        assert time.perf_counter() - t0 < 5.0


FAMILY_SAMPLES = {1: (1, 2, 4, 8), 2: (1, 2, 3), 3: (1, 2), 4: (1, 2),
                  5: (1,), 6: (1,)}
FAMILY_RANK_T = {1: 80, 2: 78, 3: 76, 4: 72, 5: 70, 6: 56}
FAMILY_ZEROS = {1: (False, False, False, False), 2: (True, False, False, False),
                3: (True, True, False, False), 4: (True, False, True, False),
                5: (True, True, True, False), 6: (True, True, True, True)}


def test_c04_table4_families():
    with criterion("4", "nine-dim families: discriminant pattern and rank of the cubic map"):
        t0 = time.perf_counter()
        for fam, params in FAMILY_SAMPLES.items():
            p = canonical_state(9, f"family{fam}", params)
            js = nine_js(p)
            zeros = tuple(x == 0 for x in nine_deltas(js))
            assert zeros == FAMILY_ZEROS[fam], fam
            assert rank(t_matrix_rows(p)) == FAMILY_RANK_T[fam], fam
        assert time.perf_counter() - t0 < 20.0


def test_c05_quartic_three_routes():
    with criterion("5", "quartic invariant: anchor value and three-route agreement on 200 states"):
        ghz = e(6, 1, 2, 3) + e(6, 4, 5, 6)
        for route in (quartic_d, quartic_d_block, quartic_d_pairing):
            assert route(ghz) == 1
        rng = random.Random(501)
        for _ in range(200):
            p = random_rational_state(6, rng, num_bound=4, den_bound=3)
            a = quartic_d(p)
            assert a == quartic_d_block(p)
            assert a == quartic_d_pairing(p)


def test_c06_appendix_polynomial_oracle():
    with criterion("6", "trace invariants equal the closed-form polynomials on 50 samples"):
        assert nine_js(nine_q(1)) == (1, 1, 111, 584)
        assert appendix_b(1, 0, 0, 0) == (1, 1, 111, 584)
        rng = random.Random(601)
        for _ in range(50):
            vals = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(4))
            assert nine_js(semisimple_state(*vals)) == appendix_b(*vals), vals


def test_c07_jacobian_determinant_factorization():
    with criterion("7", "Jacobian determinant equals its factored closed form on 20 samples"):
        rng = random.Random(701)
        for _ in range(20):
            vals = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                         for _ in range(4))
            m = jacobian_matrix(*vals)
            assert determinant(m) == jacobian_det_factored(*vals), vals


def test_c08_qutrit_relations():
    with criterion("8", "qutrit invariant relations hold exactly on 30 normal forms"):
        rng = random.Random(801)
        for _ in range(30):
            a, b, c = (Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                       for _ in range(3))
            inv = qutrit_normal_invariants(a, b, c)
            i6, i9, i12 = inv["I6"], inv["I9"], inv["I12"]
            image = nine_q(2).scale(a) + nine_q(3).scale(-b) + nine_q(4).scale(c)
            j12, j18, j24, j30 = js = nine_js(image)
            assert j12 == i6 ** 2 + 20 * i12
            assert j18 == i6 ** 3 + 30 * i12 * i6 + 100 * i9 ** 2
            assert j24 == (111 * i6 ** 4 + 4440 * i6 ** 2 * i12
                           + 2 * 3 ** 4 * 193 * i12 ** 2
                           + 2 ** 2 * 11 * 199 * i6 * i9 ** 2)
            assert j30 == (2 * 3 ** 2 * 5 ** 2 * 2521 * i9 ** 2 * i12
                           + 3 ** 3 * 5 * 2521 * i6 * i12 ** 2
                           + 2 * 5 * 17 * 383 * i6 ** 2 * i9 ** 2
                           + 2 ** 4 * 5 ** 2 * 73 * i6 ** 3 * i12
                           + 2 ** 3 * 73 * i6 ** 5)
            assert delta_48(js) == (-Fraction(5 * 11 ** 2 * 199 ** 2, 2)
                                    * inv["Delta333"] * i12)


def _det_gprime(g):
    return Fraction(1) / Fraction(g.det)


def test_c09_covariance_suite():
    with criterion("9", "invariance under 50 unimodular elements per dimension, "
                        "covariance weights, label stability"):
        rng = random.Random(901)

        base6 = random_rational_state(6, rng)
        d6 = quartic_d(base6)
        assert d6 != 0
        for _ in range(50):
            g = random_unimodular(6, rng)
            assert quartic_d(slocc_apply(g, base6)) == d6

        p0 = canonical_state(7, "X")
        j7 = seven_j(p0)
        assert j7 != 0
        for _ in range(50):
            g = random_unimodular(7, rng)
            assert seven_j(slocc_apply(g, p0)) == j7

        lam23 = canonical_state(8, "XXIII")
        i8 = eight_i(lam23)
        assert i8 != 0
        for _ in range(50):
            g = random_unimodular(8, rng)
            assert eight_i(slocc_apply(g, lam23)) == i8

        q1 = nine_q(1)
        js = nine_js(q1)
        for _ in range(50):
            g = random_unimodular(9, rng)
            assert nine_js(slocc_apply(g, q1)) == js

        # relative weights: the quartic picks up det(g')^2, the degree-seven
        # invariant det(g')^3, the degree-sixteen one det(g')^6, and the four
        # trace invariants det(g')^(4,6,8,10); checked under scalar elements
        # and under random invertible elements with generic determinant
        for c in (Fraction(2), Fraction(-3), Fraction(1, 2)):
            sc6 = GroupElement.scalar(6, c)
            assert quartic_d(slocc_apply(sc6, base6)) == c ** -12 * d6
            sc7 = GroupElement.scalar(7, c)
            assert seven_j(slocc_apply(sc7, p0)) == c ** -21 * j7
            sc9 = GroupElement.scalar(9, c)
            moved = nine_js(slocc_apply(sc9, q1))
            for m, j, w in zip(moved, js, (4, 6, 8, 10)):
                assert m == c ** (-9 * w) * j
        for _ in range(5):
            g = random_invertible(6, rng)
            assert quartic_d(slocc_apply(g, base6)) == _det_gprime(g) ** 2 * d6
            g = random_invertible(7, rng)
            assert seven_j(slocc_apply(g, p0)) == _det_gprime(g) ** 3 * j7
            g = random_invertible(8, rng)
            assert eight_i(slocc_apply(g, lam23)) == _det_gprime(g) ** 6 * i8
            g = random_invertible(9, rng)
            moved = nine_js(slocc_apply(g, q1))
            for m, j, w in zip(moved, js, (4, 6, 8, 10)):
                assert m == _det_gprime(g) ** w * j

        # class labels stable under random invertible elements
        for label in TABLE1.values():
            p = canonical_state(6, label)
            for _ in range(5):
                g = random_invertible(6, rng)
                assert classify6(slocc_apply(g, p)).label == label
        for label in TABLE2.values():
            p = canonical_state(7, label)
            for _ in range(5):
                g = random_invertible(7, rng)
                assert classify7(slocc_apply(g, p)).label == label
        for label in TABLE3.values():
            p = canonical_state(8, label)
            for _ in range(3):
                g = random_invertible(8, rng)
                assert classify8(slocc_apply(g, p)).label == label
        for fam, params in FAMILY_SAMPLES.items():
            p = canonical_state(9, f"family{fam}", params)
            for _ in range(2):
                g = random_invertible(9, rng)
                out = classify9_family(slocc_apply(g, p))
                assert out.label == f"family{fam}"
                assert out.detail["rank_T"] == FAMILY_RANK_T[fam]
        nil = canonical_state(9, "family7")
        nil_rank_t = classify9_family(nil).detail["rank_T"]
        for _ in range(2):
            g = random_invertible(9, rng)
            out = classify9_family(slocc_apply(g, nil))
            assert out.label == "family7"
            assert out.detail["rank_T"] == nil_rank_t


def test_c10_freudenthal_identities_float():
    with criterion("10", "dual-state identities on 100 generic float states, 1e-9 relative"):
        rng = random.Random(1001)
        done = 0
        while done < 100:
            p = AltTensor.from_terms(
                6, 3, [(t, complex(rng.gauss(0, 1), rng.gauss(0, 1)))
                       for t in combinations(range(1, 7), 3)])
            d = quartic_d(p)
            if abs(d) < 1e-3:
                continue
            ph = freudenthal_dual(p)
            scale = p.max_abs()
            assert abs(quartic_d(ph) - d) <= 1e-9 * max(abs(d), 1e-30)
            phh = freudenthal_dual(ph)
            worst = max(abs(phh.masks().get(m, 0) + p.masks().get(m, 0))
                        for m in set(phh.masks()) | set(p.masks()))
            assert worst <= 1e-9 * scale
            for sgn in (1j, -1j):
                u = p + ph.scale(sgn)
                residual = max(abs(v) for _, v in plucker_residuals(u))
                assert residual <= 1e-9 * u.max_abs() ** 2
            done += 1


def _random_primitive_pair(rng):
    """Random exact (three-form, two-form) with vanishing wedge."""
    pairs = list(combinations(range(1, 7), 2))
    triples = list(combinations(range(1, 7), 3))
    quints = list(combinations(range(1, 7), 5))
    while True:
        om = AltTensor.from_terms(
            6, 2, [(t, Fraction(rng.randint(-3, 3))) for t in pairs])
        if om.is_zero():
            continue
        rows = []
        for q in quints:
            rows.append([wedge(AltTensor.basis(6, t), om).component(q)
                         for t in triples])
        m = [[Fraction(x) for x in row] for row in rows]
        nr, nc = len(m), len(m[0])
        piv_cols = []
        r = 0
        for cidx in range(nc):
            piv = next((i for i in range(r, nr) if m[i][cidx]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            m[r] = [x / m[r][cidx] for x in m[r]]
            for i in range(nr):
                if i != r and m[i][cidx]:
                    f = m[i][cidx]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            piv_cols.append(cidx)
            r += 1
        free = [c for c in range(nc) if c not in piv_cols]
        if not free:
            continue
        coeffs = {c: Fraction(rng.randint(-3, 3)) for c in free}
        vec = [Fraction(0)] * nc
        for c, v in coeffs.items():
            vec[c] = v
        for i, pc in enumerate(piv_cols):
            vec[pc] = -sum(m[i][f] * coeffs[f] for f in free)
        p6 = AltTensor.from_terms(
            6, 3, [(triples[c], vec[c]) for c in range(nc) if vec[c]])
        if p6.is_zero():
            continue
        assert wedge(p6, om).is_zero()
        return p6, om


def _eps_pairs_sum(a, b, f1, f2):
    """sum over orderings (i,j,k,l) of the complement of {a,b} of
    eps(a,b,i,j,k,l) f1(i,j) f2(k,l)."""
    rest = [x for x in range(1, 7) if x not in (a, b)]
    total = 0
    for perm in permutations(rest):
        s = epsilon((a, b) + perm)
        v1 = f1(perm[0], perm[1])
        if not v1:
            continue
        v2 = f2(perm[2], perm[3])
        if v2:
            total += s * v1 * v2
    return total


def test_c11_primitive_identity_suite():
    with criterion("11", "split identities and factorizations on 100 primitive pairs"):
        rng = random.Random(1101)
        for trial in range(100):
            p6, om = _random_primitive_pair(rng)
            p = join_seven(p6, om)
            cov = seven_covariants(p)
            k = k_matrix_6(p6).matrix
            d6 = quartic_d(p6)
            om_mat = [[om.component((i, j)) for j in range(1, 7)]
                      for i in range(1, 7)]
            pf = pfaffian(om_mat)
            mc = cov.m_component
            # upper-index-7 block carries the six-dim covariant
            assert mc(7, 7, 7) == 0
            for cc in range(1, 7):
                assert mc(7, 7, cc) == 0
                assert mc(7, cc, 7) == 0
                assert mc(cc, 7, 7) == 0
            for b in range(1, 7):
                for cc in range(1, 7):
                    assert mc(7, b, cc) == k[b - 1][cc - 1]
                    assert mc(b, 7, cc) == -k[b - 1][cc - 1]
            # mixed blocks against explicit Levi-Civita sums
            for (a, b) in ((1, 2), (2, 5), (3, 6), (4, 6)):
                want = Fraction(
                    _eps_pairs_sum(a, b, om.component.__call__ if False else
                                   (lambda i, j: om.component((i, j))),
                                   (lambda i, j: om.component((i, j)))), 4)
                assert mc(a, b, 7) == want
                for cc in (1, 4, 6):
                    want = Fraction(
                        _eps_pairs_sum(a, b,
                                       (lambda i, j, c0=cc: p6.component((c0, i, j))),
                                       (lambda i, j: om.component((i, j)))), 2)
                    assert mc(a, b, cc) == want
            # symmetric cubic block factorizes through the six-dim covariant
            nm = cov.n_matrix
            assert nm[6][6] == 6 * pf
            for a in range(6):
                assert nm[a][6] == 0 and nm[6][a] == 0
            for a in range(1, 7):
                for b in range(1, 7):
                    s1 = 3 * sum(k[c - 1][a - 1] * om.component((c, b))
                                 for c in range(1, 7))
                    s2 = 3 * sum(k[c - 1][b - 1] * om.component((c, a))
                                 for c in range(1, 7))
                    assert nm[a - 1][b - 1] == s1 == s2
            # quartic block factorizes through the dual two-form
            lm = cov.l_matrix
            assert lm[6][6] == 6 * d6
            for a in range(6):
                assert lm[a][6] == 0 and lm[6][a] == 0
            omt = [[Fraction(_eps_pairs_sum(i, j,
                                            (lambda x, y: om.component((x, y))),
                                            (lambda x, y: om.component((x, y)))), 8)
                    for j in range(1, 7)] for i in range(1, 7)]
            for a in range(1, 7):
                for b in range(1, 7):
                    want = -12 * sum(omt[a - 1][c - 1] * k[b - 1][c - 1]
                                     for c in range(1, 7))
                    assert lm[a - 1][b - 1] == want
            # dual companion stays primitive
            assert wedge(dual_trivector(p6), om).is_zero()
            # four-form identity from double contraction of the primitivity
            for (a, b) in ((1, 2), (3, 5)):
                for (i, j, kk) in ((1, 2, 3), (2, 4, 6), (3, 4, 5)):
                    total = 0
                    for (x, y, z) in permutations((i, j, kk)):
                        s = epsilon(_rank3_order((x, y, z), (i, j, kk)))
                        total += s * (
                            p6.component((a, b, x)) * om.component((y, z))
                            + Fraction(1, 3) * om.component((a, b)) * p6.component((x, y, z))
                            + p6.component((a, x, y)) * om.component((b, z))
                            - p6.component((b, x, y)) * om.component((a, z)))
                    assert total == 0
            # scalar consequences
            tr_ln = sum(lm[i][j] * nm[i][j] for i in range(7) for j in range(7))
            assert Fraction(tr_ln, 1008) == Fraction(1, 4) * pf * d6
            assert determinant(nm) == -6 * (9 * pf * d6) ** 3
            assert seven_j(p) == Fraction(1, 4) * pf * d6


def _rank3_order(perm, base):
    pos = {v: i + 1 for i, v in enumerate(base)}
    return tuple(pos[v] for v in perm)


def _ordered_pinned_coeffs(rng):
    while True:
        be = rng.uniform(0.1, 0.7)
        ga = rng.uniform(0.05, be)
        al = math.sqrt(be * be + ga * ga) * rng.uniform(1.05, 1.8)
        n = math.sqrt(al * al + be * be + ga * ga)
        return al / n, be / n, ga / n


def test_c12_pinning_suite():
    with criterion("12", "pinned forms: exact quartic vanishing, saturation, rank pairs, "
                         "no saturation in the generic seven-dim class"):
        rng = random.Random(1201)
        # quartic vanishes identically on the pinned support, exactly
        for _ in range(100):
            al, be, ga = (Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                          for _ in range(3))
            p = (e(6, 1, 2, 3).scale(al) + e(6, 1, 4, 5).scale(be)
                 + e(6, 2, 4, 6).scale(ga))
            assert quartic_d(p) == 0
        # saturation within 1e-9 when the labels are the natural orbitals
        from trivec.spectra import klyachko_check, occupation_spectrum
        for _ in range(100):
            al, be, ga = _ordered_pinned_coeffs(rng)
            p = (e(6, 1, 2, 3).scale(complex(al)) + e(6, 1, 4, 5).scale(complex(be))
                 + e(6, 2, 4, 6).scale(complex(ga)))
            rep = klyachko_check(occupation_spectrum(p))
            assert abs(rep[0]["slack"]) <= 1e-9
        # totally pinned support gives the (1, 4) rank pair
        for _ in range(25):
            coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 4))
                      for _ in range(4)]
            p = (e(7, 1, 2, 3).scale(coeffs[0]) + e(7, 1, 4, 5).scale(coeffs[1])
                 + e(7, 1, 6, 7).scale(coeffs[2]) + e(7, 2, 4, 6).scale(coeffs[3]))
            rk_n = rank(bilinear_form_matrix(kappa_map(p, (1, 1))))
            rk_m = kappa_map(p, (1,)).rank()
            assert (rk_n, rk_m) == (1, 4)
        # generic first-constraint support gives the (4, 7) rank pair
        big, small = (1, 2, 4, 7), (3, 5, 6)
        for _ in range(25):
            terms = []
            for pr in combinations(big, 2):
                for s in small:
                    terms.append((pr + (s,), Fraction(rng.randint(-5, 5),
                                                      rng.randint(1, 3))))
            p = AltTensor.from_terms(7, 3, terms)
            rk_n = rank(bilinear_form_matrix(kappa_map(p, (1, 1))))
            rk_m = kappa_map(p, (1,)).rank()
            assert (rk_n, rk_m) == (4, 7)
        # the generic class admits no pinning at all
        p0 = canonical_state(7, "X").to_float()
        checked = 0
        while checked < 200:
            g = GroupElement([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                               for _ in range(7)] for _ in range(7)])
            q = slocc_apply(g, p0)
            if classify7(q).label != "X":
                continue
            rep = klyachko_check(occupation_spectrum(q))
            assert not any(c["saturated"] for c in rep)
            checked += 1


def _embedded_representatives():
    out = []
    for label in ("Sep", "Bisep", "W", "GHZ"):
        out.append((f"6:{label}", canonical_state(6, label)))
    for label in TABLE2.values():
        if label == "I":
            continue
        out.append((f"7:{label}", canonical_state(7, label)))
    for label in TABLE3.values():
        out.append((f"8:{label}", canonical_state(8, label)))
    return out


def _embed9(p):
    return AltTensor.from_terms(9, 3, list(p.terms()))


def test_c13a_embedded_states_have_vanishing_invariants():
    with criterion("13a", "all lower-dimensional representatives embed with zero invariants"):
        for name, p in _embedded_representatives():
            assert nine_js(_embed9(p)) == (0, 0, 0, 0), name


def test_c13b_invariants_unchanged_by_adding_embedded_nilpotents():
    # Jordan decomposition in the Z3-graded e8 = sl9 + L3 + L6: the bracket of
    # two three-forms is their wedge product, and J12..J30 see only the
    # semisimple part.  So a nilpotent x_n with q0 ^ x_n = 0 leaves the
    # invariants of q0 unchanged.  The candidates are embedded states (single
    # triples and sums of two) in the centralizer of each representative.  A
    # regular semisimple element (family 1) has no nonzero nilpotent in its
    # centralizer; family 6 has the 27 triples of the embedded three-qutrit
    # space.
    with criterion("13b", "invariants unchanged when adding commuting embedded nilpotent parts"):
        basis = [e(9, *t) for t in combinations(range(1, 10), 3)]
        commuting_triples = {}
        for fam, params in FAMILY_SAMPLES.items():
            q0 = canonical_state(9, f"family{fam}", params)
            base = nine_js(q0)
            w = [wedge(q0, b) for b in basis]
            singles = [b for b, wb in zip(basis, w) if wb.is_zero()]
            pairs = [basis[i] + basis[j]
                     for i, j in combinations(range(len(basis)), 2)
                     if (w[i] + w[j]).is_zero()]
            commuting_triples[fam] = len(singles)
            for x_n in singles + pairs:
                assert wedge(q0, x_n).is_zero(), (fam, x_n)
                assert nine_js(x_n) == (0, 0, 0, 0), (fam, x_n)
                assert nine_js(q0 + x_n) == base, (fam, x_n)
        assert commuting_triples == {1: 0, 2: 3, 3: 6, 4: 3, 5: 6, 6: 27}

        # Without the commuting condition the claim fails: q1 + e123 + e456 =
        # 2 e123 + 2 e456 + e789 is moved to 4^(1/3) q1 by
        # diag(a,a,a,b,b,b,c,c,c) in SL(9) with 2a^3 = 2b^3 = c^3, so each
        # J_d scales by 4^(d/3).
        q1 = canonical_state(9, "family6", (1,))
        assert not wedge(q1, e(9, 1, 2, 3) + e(9, 4, 5, 6)).is_zero()
        base = nine_js(q1)
        moved = nine_js(q1 + e(9, 1, 2, 3) + e(9, 4, 5, 6))
        for k, d in enumerate((12, 18, 24, 30)):
            assert moved[k] == 4 ** (d // 3) * base[k], d
