import math
import random
from fractions import Fraction

import pytest

from trivec.classify import classify, classify6, classify7
from trivec.exterior import AltTensor, canonical_state, slocc_apply
from trivec.invariants import quartic_d
from trivec.oracle import (random_complex_state, random_invertible,
                           random_rational_state)
from trivec.scalars import GaussianRational
from trivec.spectra import (SEVEN_CONSTRAINTS, klyachko_check,
                            natural_orbital_transform, occupation_spectrum,
                            one_matrix, pinning_analysis)


def e(dim, *idx):
    return AltTensor.basis(dim, idx)


def _pinned6(al, be, ga):
    return (e(6, 1, 2, 3).scale(al) + e(6, 1, 4, 5).scale(be)
            + e(6, 2, 4, 6).scale(ga))


def _sorted_pinned_coeffs(rng):
    """Random (al, be, ga) whose labels already are the descending natural
    orbitals: needs al^2 >= be^2 + ga^2 and be >= ga."""
    while True:
        be = rng.uniform(0.1, 0.7)
        ga = rng.uniform(0.05, be)
        al = math.sqrt(be * be + ga * ga) * rng.uniform(1.05, 1.8)
        n = math.sqrt(al * al + be * be + ga * ga)
        return al / n, be / n, ga / n


def test_one_matrix_single_slater():
    rho = one_matrix(e(6, 1, 2, 3))
    for i in range(6):
        for j in range(6):
            want = 1 if i == j and i < 3 else 0
            assert rho[i][j] == want


def test_one_matrix_ghz_is_maximally_mixed():
    rho = one_matrix(e(6, 1, 2, 3) + e(6, 4, 5, 6))
    for i in range(6):
        for j in range(6):
            want = Fraction(1, 2) if i == j else 0
            assert rho[i][j] == want


def test_one_matrix_trace_and_hermiticity():
    rng = random.Random(70)
    for dim in (6, 7, 9):
        p = random_complex_state(dim, rng)
        rho = one_matrix(p)
        tr = sum(rho[i][i] for i in range(dim))
        assert abs(tr - 3) < 1e-10
        for i in range(dim):
            for j in range(dim):
                assert abs(rho[i][j] - rho[j][i].conjugate()) < 1e-12


def test_exact_one_matrix_is_the_defining_sum():
    # one_matrix sums on the integer rescale; the entries must equal the
    # defining sum over the state as given
    for scale in (Fraction(2, 7), GaussianRational(Fraction(3, 5), Fraction(4, 5))):
        p = slocc_apply(random_invertible(7, 5), canonical_state(7, "IX")).scale(scale)
        norm2 = p.norm_sq()
        rho = one_matrix(p)
        for i in range(1, 8):
            for j in range(1, 8):
                want = sum((p.component((i, a, b)) * p.component((j, a, b)).conjugate()
                            for a in range(1, 8) for b in range(a + 1, 8)), 0)
                assert rho[i - 1][j - 1] == want / norm2


def test_one_matrix_rejects_zero_state():
    with pytest.raises(ValueError):
        one_matrix(AltTensor.zero(6, 3))


def test_pinned_state_occupations_block_structure():
    al, be, ga = Fraction(3, 5), Fraction(4, 10), Fraction(2, 10)
    p = _pinned6(al, be, ga)
    rho = one_matrix(p)
    n2 = al ** 2 + be ** 2 + ga ** 2
    for i in range(6):
        for j in range(6):
            if i != j:
                assert rho[i][j] == 0
    want = [al ** 2 + be ** 2, al ** 2 + ga ** 2, al ** 2,
            be ** 2 + ga ** 2, be ** 2, ga ** 2]
    for i in range(6):
        assert rho[i][i] == want[i] / n2


def test_klyachko_six_anchors():
    spec = occupation_spectrum(e(6, 1, 2, 3))
    rep = klyachko_check(spec)
    assert rep[0]["saturated"]  # a Slater determinant is pinned
    ghz = (e(6, 1, 2, 3) + e(6, 4, 5, 6)).to_float()
    rep = klyachko_check(occupation_spectrum(ghz))
    assert rep[0]["slack"] == pytest.approx(0.5)
    assert not rep[0]["saturated"]


def test_pinned_form_saturates_borland_dennis():
    rng = random.Random(71)
    for _ in range(25):
        al, be, ga = _sorted_pinned_coeffs(rng)
        p = _pinned6(complex(al), complex(be), complex(ga))
        rep = klyachko_check(occupation_spectrum(p))
        assert abs(rep[0]["slack"]) <= 1e-9
        assert rep[0]["saturated"]


def test_pinned_form_quartic_vanishes_exactly():
    rng = random.Random(72)
    for _ in range(50):
        al, be, ga = (Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(3))
        assert quartic_d(_pinned6(al, be, ga)) == 0


def test_totally_pinned_seven_saturations():
    # with coefficients ordered so the labels are natural orbitals, the
    # first, second and fourth constraints saturate
    al2, be2, ga2, de2 = 0.4, 0.3, 0.2, 0.1
    p = (e(7, 1, 2, 3).scale(complex(math.sqrt(al2)))
         + e(7, 1, 4, 5).scale(complex(math.sqrt(be2)))
         + e(7, 1, 6, 7).scale(complex(math.sqrt(ga2)))
         + e(7, 2, 4, 6).scale(complex(math.sqrt(de2))))
    rep = klyachko_check(occupation_spectrum(p))
    sat = [c["saturated"] for c in rep]
    assert sat[0] and sat[1] and sat[3]
    assert not sat[2]


def test_natural_orbital_rotation_diagonalizes():
    rng = random.Random(73)
    for dim in (6, 7):
        p = random_complex_state(dim, rng)
        rotated, spec = natural_orbital_transform(p)
        rho = one_matrix(rotated)
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    assert abs(rho[i][j]) < 1e-9
        diag = [rho[i][i].real for i in range(dim)]
        assert diag == pytest.approx(spec.eigenvalues, abs=1e-9)
        assert spec.eigenvalues == sorted(spec.eigenvalues, reverse=True)


def test_natural_orbital_rotation_preserves_class():
    rng = random.Random(74)
    for _ in range(10):
        p = random_rational_state(6, rng).to_float()
        rotated, _ = natural_orbital_transform(p)
        assert classify6(rotated).label == classify6(p).label


def test_pinning_analysis_pinned_state():
    rng = random.Random(75)
    al, be, ga = _sorted_pinned_coeffs(rng)
    p = _pinned6(complex(al), complex(be), complex(ga))
    report = pinning_analysis(p, classify(p).label)
    assert report["constraints"][0]["saturated"]
    assert report["support_pattern"] == "borland_dennis_pinned"
    assert report["class_label"] in ("W", "Bisep", "Sep", "Null")
    assert report["consistent"]


def test_pinning_analysis_ghz_not_saturated():
    p = (e(6, 1, 2, 3) + e(6, 4, 5, 6)).to_float()
    report = pinning_analysis(p, classify(p).label)
    assert not report["constraints"][0]["saturated"]
    assert report["class_label"] == "GHZ"
    assert report["consistent"]


def test_pinning_analysis_seven_totally_pinned():
    # labels must already be the descending natural orbitals, which needs
    # al^2 >= be^2 + de^2 and be^2 >= ga^2 + de^2
    p = (e(7, 1, 2, 3).scale(0.8 + 0j) + e(7, 1, 4, 5).scale(0.6 + 0j)
         + e(7, 1, 6, 7).scale(0.4 + 0j) + e(7, 2, 4, 6).scale(0.2 + 0j))
    report = pinning_analysis(p, classify(p).label)
    sat = [c["saturated"] for c in report["constraints"]]
    assert sat == [True, True, False, True]
    assert report["support_pattern"] == "totally_pinned"
    assert report["class_label"] == "VII"
    assert report["class_label"] not in ("V", "VIII", "IX", "X")
    assert report["consistent"]


def test_class_x_never_saturates():
    rng = random.Random(76)
    p0 = canonical_state(7, "X").to_float()
    from trivec.exterior import GroupElement
    for _ in range(20):
        g = GroupElement([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                           for _ in range(7)] for _ in range(7)])
        q = slocc_apply(g, p0)
        if classify7(q).label != "X":
            continue
        rep = klyachko_check(occupation_spectrum(q))
        assert not any(c["saturated"] for c in rep)


def test_seven_constraint_index_sets():
    assert SEVEN_CONSTRAINTS == ((1, 2, 4, 7), (1, 2, 5, 6),
                                 (2, 3, 4, 5), (1, 3, 4, 6))


def test_totally_pinned_pattern_reduces_to_six_dim_pattern():
    # dropping the third coefficient's triple from the seven-dim pattern
    # leaves exactly the six-dim pinned support
    from trivec.spectra import _PATTERN_7_TOTAL, _PATTERN_BD
    assert _PATTERN_7_TOTAL - {(1, 6, 7)} == _PATTERN_BD


def test_natural_orbital_rotation_preserves_class_seven_dim():
    rng = random.Random(77)
    for _ in range(15):
        p = random_rational_state(7, rng).to_float()
        rotated, _ = natural_orbital_transform(p)
        assert classify7(rotated).label == classify7(p).label
