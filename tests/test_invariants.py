import random
from fractions import Fraction

import pytest

from trivec.covariants import seven_covariants
from trivec.exterior import (AltTensor, canonical_state, embed_three_qubits,
                             nine_q, semisimple_state, slocc_apply,
                             split_seven)
from trivec.invariants import (cayley_hyperdeterminant, delta_132, delta_24,
                               delta_48, delta_48_prime, eight_i,
                               jacobian_det_factored, jacobian_matrix,
                               jacobian_rank, nine_deltas, nine_js,
                               quartic_d, qutrit_normal_form_coefficients,
                               qutrit_normal_invariants, seven_j, three_tangle)
from trivec.oracle import (appendix_b, quartic_d_block, quartic_d_pairing,
                           random_invertible, random_rational_state,
                           random_state)
from trivec.scalars import GaussianRational, determinant, pfaffian


def e(dim, *idx):
    return AltTensor.basis(dim, idx)


GHZ = e(6, 1, 2, 3) + e(6, 4, 5, 6)
W = e(6, 1, 2, 6) + e(6, 4, 2, 3) + e(6, 1, 5, 3)


def test_quartic_anchors():
    assert quartic_d(GHZ) == 1
    assert quartic_d(e(6, 1, 2, 3)) == 0
    assert quartic_d(W) == 0
    ghz_minus = embed_three_qubits({(0, 0, 0): Fraction(1, 2),
                                    (0, 1, 1): Fraction(-1, 2),
                                    (1, 0, 1): Fraction(-1, 2),
                                    (1, 1, 0): Fraction(-1, 2)})
    assert quartic_d(ghz_minus) == Fraction(-1, 4)


def test_quartic_routes_agree():
    rng = random.Random(40)
    for _ in range(40):
        p = random_rational_state(6, rng)
        a = quartic_d(p)
        b = quartic_d_block(p)
        c = quartic_d_pairing(p)
        assert a == b == c
    # a call that still passes a route is refused: k is keyword-only
    with pytest.raises(TypeError):
        quartic_d(GHZ, "pairing")


def test_quartic_homogeneity_and_covariance():
    rng = random.Random(41)
    p = random_rational_state(6, rng)
    lam = Fraction(-3, 2)
    assert quartic_d(p.scale(lam)) == lam ** 4 * quartic_d(p)
    for _ in range(5):
        g = random_invertible(6, rng)
        det_gp = Fraction(1) / Fraction(g.det)
        assert quartic_d(slocc_apply(g, p)) == det_gp ** 2 * quartic_d(p)


def test_cayley_anchors():
    psi = [0] * 8
    psi[0] = psi[7] = 0.5 ** 0.5
    assert three_tangle(psi) == pytest.approx(1.0)
    w = [0] * 8
    w[1] = w[2] = w[4] = 3 ** -0.5
    assert cayley_hyperdeterminant(w) == pytest.approx(0.0)
    sep = [0] * 8
    sep[0] = 1.0
    assert cayley_hyperdeterminant(sep) == 0


def test_cayley_matches_embedded_quartic():
    rng = random.Random(42)
    for _ in range(15):
        psi = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(8)]
        by_bits = {(b1, b2, b3): psi[(b1 << 2) | (b2 << 1) | b3]
                   for b1 in (0, 1) for b2 in (0, 1) for b3 in (0, 1)}
        assert quartic_d(embed_three_qubits(by_bits)) == cayley_hyperdeterminant(psi)


def test_seven_j_anchors():
    p0 = canonical_state(7, "X")
    p6, om = split_seven(p0)
    om_mat = [[om.component((i, j)) for j in range(1, 7)] for i in range(1, 7)]
    want = Fraction(1, 4) * pfaffian(om_mat) * quartic_d(p6)
    assert seven_j(p0) == want
    assert want != 0
    for label in ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX"):
        assert seven_j(canonical_state(7, label)) == 0
    assert seven_j(AltTensor.zero(7, 3)) == 0


def test_seven_determinant_relations():
    # det N = -6^7 J^3 and det B = J^3 on arbitrary states
    rng = random.Random(43)
    for _ in range(6):
        p = random_state(7, rng, bound=2)
        cov = seven_covariants(p)
        j = seven_j(p)
        assert determinant(cov.n_matrix) == -(6 ** 7) * j ** 3
        assert determinant(cov.b_matrix) == j ** 3


def test_seven_j_covariance():
    rng = random.Random(44)
    p0 = canonical_state(7, "X")
    j = seven_j(p0)
    for _ in range(5):
        g = random_invertible(7, rng)
        det_gp = Fraction(1) / Fraction(g.det)
        assert seven_j(slocc_apply(g, p0)) == det_gp ** 3 * j


def test_eight_i_vanishing_pattern():
    assert eight_i(canonical_state(8, "XXIII")) != 0
    assert eight_i(canonical_state(8, "XXII")) == 0
    assert eight_i(canonical_state(8, "XI")) == 0
    assert eight_i(AltTensor.zero(8, 3)) == 0


def test_eight_i_covariance():
    rng = random.Random(45)
    p = canonical_state(8, "XXIII")
    base = eight_i(p)
    for _ in range(3):
        g = random_invertible(8, rng)
        det_gp = Fraction(1) / Fraction(g.det)
        assert eight_i(slocc_apply(g, p)) == det_gp ** 6 * base


def test_nine_js_anchor_and_oracle_equality():
    assert nine_js(nine_q(1)) == (1, 1, 111, 584)
    assert appendix_b(1, 0, 0, 0) == (1, 1, 111, 584)
    rng = random.Random(46)
    for _ in range(8):
        vals = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                     for _ in range(4))
        assert nine_js(semisimple_state(*vals)) == appendix_b(*vals)


def test_nine_js_homogeneity_and_weights():
    rng = random.Random(47)
    p = semisimple_state(1, 2, 0, 1)
    js = nine_js(p)
    lam = Fraction(2, 3)
    scaled = nine_js(p.scale(lam))
    for j, s, deg in zip(js, scaled, (12, 18, 24, 30)):
        assert s == lam ** deg * j
    g = random_invertible(9, rng)
    det_gp = Fraction(1) / Fraction(g.det)
    moved = nine_js(slocc_apply(g, p))
    for j, m, w in zip(js, moved, (4, 6, 8, 10)):
        assert m == det_gp ** w * j


def test_nine_js_complex_exact_state():
    # Gaussian-rational coefficients take the exact complex path
    p = nine_q(1).scale(GaussianRational(0, 1))
    js = nine_js(p)
    assert js == (1, -1, 111, -584)  # i^12, i^18, i^24 * 111, i^30 * 584


def test_nine_js_float_mode():
    p = nine_q(1).to_float()
    js = nine_js(p)
    for got, want in zip(js, (1, 1, 111, 584)):
        assert abs(got - want) < 1e-6


def test_delta_patterns_per_family():
    expect = {
        1: (False, False, False, False),
        2: (True, False, False, False),
        3: (True, True, False, False),
        4: (True, False, True, False),
        5: (True, True, True, False),
        6: (True, True, True, True),
    }
    params = {1: (1, 2, 4, 8), 2: (1, 2, 3), 3: (1, 2), 4: (1, 2),
              5: (1,), 6: (1,)}
    for fam, want in expect.items():
        js = nine_js(canonical_state(9, f"family{fam}", params[fam]))
        got = tuple(x == 0 for x in nine_deltas(js))
        assert got == want, fam


def test_delta48_family4_closed_form():
    for (a, b) in ((1, 2), (2, 3), (1, -3)):
        js = appendix_b(a, b, -b, 0)
        want = (2 ** 2 * 5 * 11 ** 2 * 199 ** 2 * Fraction(b) ** 9
                * Fraction(a ** 3 - b ** 3) ** 9 * Fraction(a ** 4 + 8 * a * b ** 3) ** 3)
        assert delta_48(js) == want


def test_delta132_transcription_checksum():
    # the long coefficient list is locked by its vanishing pattern: zero on
    # thirty second-family samples, nonzero on thirty first-family samples
    rng = random.Random(48)
    fam1 = fam2 = 0
    while fam1 < 30 or fam2 < 30:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        try:
            canonical_state(9, "family1", (a, b, c, d))
            ok1 = True
        except (ValueError, KeyError):
            ok1 = False
        if ok1 and fam1 < 30:
            assert delta_132(appendix_b(a, b, c, d)) != 0
            fam1 += 1
        try:
            canonical_state(9, "family2", (a, b, d))
            ok2 = True
        except ValueError:
            ok2 = False
        if ok2 and fam2 < 30:
            assert delta_132(appendix_b(a, -b, 0, d)) == 0
            fam2 += 1


def test_nilpotent_embedded_states_have_zero_js():
    emb = AltTensor.from_terms(
        9, 3, [(t, v) for t, v in canonical_state(6, "GHZ").terms()])
    assert nine_js(emb) == (0, 0, 0, 0)


def test_qutrit_relations_on_normal_form():
    rng = random.Random(49)
    for _ in range(10):
        a, b, c = (Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                   for _ in range(3))
        inv = qutrit_normal_invariants(a, b, c)
        i6, i9, i12 = inv["I6"], inv["I9"], inv["I12"]
        img = nine_q(2).scale(a) + nine_q(3).scale(-b) + nine_q(4).scale(c)
        j12, j18, j24, j30 = nine_js(img)
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
        js = (j12, j18, j24, j30)
        assert delta_48(js) == -Fraction(5 * 11 ** 2 * 199 ** 2, 2) * inv["Delta333"] * i12
        assert delta_48_prime(js) == (Fraction(2 ** 4 * 5 ** 5 * 11 ** 2 * 199 ** 2, 3 ** 5)
                                      * (8 * i12 + Fraction(1, 3) * i6 ** 2) * i9 ** 4)
        assert delta_24(js) == Fraction(2 * 11 * 199, 37) * inv["D24"]
        assert delta_132(js) == 0


def test_qutrit_normal_form_detection():
    psi = {}
    for trip in ((1, 1, 1), (2, 2, 2), (3, 3, 3)):
        psi[trip] = Fraction(2)
    for trip in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        psi[trip] = Fraction(-3)
    assert qutrit_normal_form_coefficients(psi) == (2, 3, 0)
    psi[(1, 1, 2)] = 1
    assert qutrit_normal_form_coefficients(psi) is None


def test_qutrit_d21_vanishes_at_unit_point():
    inv = qutrit_normal_invariants(1, 0, 0)
    assert inv["I6"] == 1 and inv["I9"] == 0 and inv["I12"] == 0
    assert inv["D21"] == 0
    # the embedded state then has J12 = I6^2 + 20 I12 = 1
    assert nine_js(nine_q(2))[0] == 1


def test_jacobian_rank_examples():
    _, r, _ = jacobian_rank(1, 0, 0, 0)
    assert r == 1
    _, r, _ = jacobian_rank(1, -2, 0, 3)   # second-family point
    assert r == 3
    _, r, _ = jacobian_rank(1, 2, 4, 8)    # first-family point
    assert r == 4


def test_jacobian_determinant_factors():
    rng = random.Random(50)
    for _ in range(8):
        vals = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                     for _ in range(4))
        m = jacobian_matrix(*vals)
        assert determinant(m) == jacobian_det_factored(*vals)


def _central_difference_weights(m_points):
    """Exact weights c_k with sum_k c_k [p(kh) - p(-kh)] = h p'(0)
    for every polynomial p of degree at most 2*m_points."""
    n = m_points
    rows = [[Fraction(k) ** (2 * j + 1) for k in range(1, n + 1)]
            for j in range(n)]
    rhs = [Fraction(1, 2)] + [Fraction(0)] * (n - 1)
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        rhs[col] /= pv
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
                rhs[r] -= f * rhs[col]
    return rhs


def test_jacobian_matches_exact_divided_differences():
    # the invariants have degree 30, so a 15-point exact central-difference
    # stencil reconstructs every partial derivative with no truncation term;
    # this is an independent route that never touches the dual numbers used
    # by jacobian_matrix.  The second point is degenerate: rank 3 there.
    weights = _central_difference_weights(15)
    h = Fraction(1, 3)
    for base in ((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)),
                 (Fraction(1), Fraction(-2), Fraction(0), Fraction(3))):
        m = jacobian_matrix(*base)
        for i in range(4):
            sums = [Fraction(0)] * 4
            for k, ck in enumerate(weights, start=1):
                up = list(base)
                dn = list(base)
                up[i] += k * h
                dn[i] -= k * h
                jup = appendix_b(*up)
                jdn = appendix_b(*dn)
                for j in range(4):
                    sums[j] += ck * (jup[j] - jdn[j])
            for j in range(4):
                assert sums[j] / h == m[i][j], (base, i, j)


def test_seven_and_eight_homogeneity():
    lam = Fraction(-2, 3)
    p7 = canonical_state(7, "X")
    assert seven_j(p7.scale(lam)) == lam ** 7 * seven_j(p7)
    p8 = canonical_state(8, "XXIII")
    assert eight_i(p8.scale(lam)) == lam ** 16 * eight_i(p8)


def test_qutrit_invariants_report():
    from trivec.invariants import qutrit_invariants
    psi = {}
    for trip in ((1, 1, 1), (2, 2, 2), (3, 3, 3)):
        psi[trip] = Fraction(1)
    rep = qutrit_invariants(psi)
    assert rep["normal_form"] == (1, 0, 0)
    assert rep["I6"] == 1 and rep["I12"] == 0
    assert rep["J"][0] == 1
    assert rep["relation_residuals"] == (0, 0)
    general = dict(psi)
    general[(1, 1, 2)] = Fraction(1)
    rep = qutrit_invariants(general)
    assert rep["normal_form"] is None
    assert "I6" not in rep
