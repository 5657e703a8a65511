"""One-particle reduced density matrix, occupation spectra and pinning.

Occupation numbers are normalized to particle number (trace three) and
reported in descending order: orbital one is the most occupied.  With that
ordering the six-dimensional polytope boundary is lam4 <= lam5 + lam6 and
the seven-dimensional one is the four sums of quadruples bounded by two.
Saturation within ``TolerancePolicy.SATURATION`` counts as pinned.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exterior import AltTensor, GroupElement, contractions, slocc_apply
from .scalars import (TolerancePolicy, hermitian_eigensystem,
                      hermitian_eigenvalues, is_exact, quotient, to_complex,
                      zero_threshold)

# index quadruples of the seven-mode constraints: each sum is bounded by two
SEVEN_CONSTRAINTS = ((1, 2, 4, 7), (1, 2, 5, 6), (2, 3, 4, 5), (1, 3, 4, 6))


def one_matrix(p: AltTensor):
    """One-particle reduced density matrix, scaled so the trace is three.

    rho_ij = sum over sorted pairs (a < b) of P_iab conj(P_jab), divided by
    the squared norm; Hermitian by construction.  Exact states give exact
    entries in the exact normal form, so the diagonal is real (``int`` or
    ``Fraction``).  They are summed on the representative of the state
    (``AltTensor.representative``): rho does not change when the state is
    scaled, so the entries are equal, the exact sums run on (Gaussian)
    integers and the float norm stays in the double range.
    """
    if p.degree != 3:
        raise ValueError("one_matrix expects a three-fermion state")
    if p.is_zero():
        raise ValueError("one_matrix of the zero state is undefined")
    p = p.representative()[0]
    n = p.dim
    norm2 = p.norm_sq()
    rho = [[0] * n for _ in range(n)]
    # P_iab = (i_{ab} P)_i; each pair a < b feeds the entries of its row
    for row in contractions(p, 2).values():
        entries = [(m.bit_length() - 1, v) for m, v in row.items()]
        for i, vi in entries:
            for j, vj in entries:
                rho[i][j] = rho[i][j] + vi * vj.conjugate()
    # raw trace is 3 * norm_sq (each triple feeds three diagonal slots)
    return [[quotient(x, norm2) for x in row] for row in rho]


class OccupationSpectrum:
    """Natural occupation numbers, in descending order."""

    __slots__ = ("dimension", "eigenvalues")

    def __init__(self, dimension: int, eigenvalues: list):
        self.dimension = dimension
        self.eigenvalues = eigenvalues


def occupation_spectrum(p: AltTensor, rho=None) -> OccupationSpectrum:
    """Eigenvalues of the one-matrix; exact diagonal matrices skip the solver.

    ``rho`` is ``one_matrix(p)`` when the caller has already built it.
    """
    if rho is None:
        rho = one_matrix(p)
    n = p.dim
    exact_diag = all(is_exact(rho[i][j]) for i in range(n) for j in range(n)) and \
        all(not rho[i][j] for i in range(n) for j in range(n) if i != j)
    if exact_diag:
        evs = [rho[i][i] for i in range(n)]
    else:
        evs = hermitian_eigenvalues(rho)
    return OccupationSpectrum(n, sorted(evs, reverse=True))


def klyachko_check(spec: OccupationSpectrum) -> list:
    """Constraint report: list of dicts with name, slack and saturation flag.

    Slacks are nonnegative for occupation numbers of genuine states; a slack
    within ``TolerancePolicy.SATURATION`` of zero counts as saturated (pinned).
    """
    eps = TolerancePolicy.SATURATION
    lam = spec.eigenvalues
    out = []
    if spec.dimension == 6:
        slack = lam[4] + lam[5] - lam[3]
        out.append({"name": "borland_dennis", "slack": float(slack),
                    "saturated": abs(slack) <= eps})
        return out
    if spec.dimension == 7:
        for quad in SEVEN_CONSTRAINTS:
            s = 2.0 - float(sum(lam[i - 1] for i in quad))
            out.append({"name": "sum_" + "".join(map(str, quad)),
                        "slack": s, "saturated": abs(s) <= eps})
        return out
    raise ValueError("polytope constraints are tabulated for dimensions 6 and 7")


# canonical pinned support patterns, in descending natural-orbital labels
_PATTERN_BD = frozenset({(1, 2, 3), (1, 4, 5), (2, 4, 6)})
_PATTERN_7_TOTAL = frozenset({(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6)})
_PATTERN_7_FIRST = frozenset(
    t for t in itertools.combinations(range(1, 8), 3)
    if len(set(t) & {1, 2, 4, 7}) == 2 and len(set(t) & {3, 5, 6}) == 1)

# classes in which the given saturation can never occur
_FORBIDDEN_6 = {"GHZ", "GHZ+", "GHZ-"}
_FORBIDDEN_7_FIRST = {"X"}
_FORBIDDEN_7_TRIPLE = {"V", "VIII", "IX", "X"}


def _float_copy(p: AltTensor) -> AltTensor:
    """The float representative of ``p``: an exact state is first brought
    to about unit size by an exact power of two, so that its float copy
    exists whatever its size."""
    if p.mode == "exact":
        e = max(abs(x.numerator).bit_length() - x.denominator.bit_length()
                for v in p.masks().values()
                for x in (v.real, v.imag) if x)
        p = p.scale(Fraction(1, 2 ** e) if e > 0 else 2 ** -e).to_float()
    return p.representative()[0]


def natural_orbital_transform(p: AltTensor, rho=None):
    """(rotated state, spectrum): express the state on its natural orbitals.

    The rotation is unitary, hence inside the group, so the class label is
    unchanged.  Orbitals are ordered by descending occupation.  ``rho`` is
    ``one_matrix(p)`` when the caller has already built it.  The rotated
    state is the float representative of the state, rotated.
    """
    if rho is None:
        rho = one_matrix(p)
    rho = [[to_complex(x) for x in row] for row in rho]
    vals, vecs = hermitian_eigensystem(rho)
    order = sorted(range(p.dim), key=lambda i: -vals[i])
    u = [[vecs[r][order[c]] for c in range(p.dim)] for r in range(p.dim)]
    # the one-matrix transforms as rho -> A rho A-dagger with A the
    # inverse-transpose of the group element; A = U-dagger diagonalizes it,
    # so the element itself is the plain transpose of U
    g = GroupElement([[u[j][i] for j in range(p.dim)] for i in range(p.dim)])
    rotated = slocc_apply(g, _float_copy(p))
    spectrum = OccupationSpectrum(p.dim, sorted(vals, reverse=True))
    return rotated, spectrum


def _support_pattern(rotated: AltTensor):
    cut = zero_threshold(rotated.max_abs(), 1, TolerancePolicy.SUPPORT)
    return {t for t, v in rotated.terms() if abs(to_complex(v)) > cut}


def pinning_analysis(p: AltTensor, label: str, rho=None) -> dict:
    """Saturations, natural-orbital support pattern and class compatibility.

    ``label`` is the state's class label as the caller already computed it
    (``classify(p).label``; the real labels GHZ+ and GHZ- are accepted too).
    Rotates the state to its natural-orbital basis, reports which canonical
    pinned support pattern the rotation matches, and checks the saturation
    flags against the classes where pinning is impossible.  An inconsistency
    marks the report rather than guessing.  ``rho`` is ``one_matrix(p)`` when
    the caller has already built it.
    """
    if p.dim not in (6, 7):
        raise ValueError("pinning analysis covers dimensions 6 and 7")
    rotated, spectrum = natural_orbital_transform(p, rho)
    constraints = klyachko_check(spectrum)
    support = _support_pattern(rotated)

    pattern = None
    if p.dim == 6 and support <= _PATTERN_BD:
        pattern = "borland_dennis_pinned"
    elif p.dim == 7:
        if support <= _PATTERN_7_TOTAL:
            pattern = "totally_pinned"
        elif support <= _PATTERN_7_FIRST:
            pattern = "first_constraint_pinned"

    violations = []
    if p.dim == 6:
        if constraints[0]["saturated"] and label in _FORBIDDEN_6:
            violations.append("borland_dennis saturated in a class where pinning is impossible")
    else:
        sat = [c["saturated"] for c in constraints]
        if sat[0] and label in _FORBIDDEN_7_FIRST:
            violations.append("first constraint saturated in class X")
        if sat[0] and sat[1] and sat[3] and label in _FORBIDDEN_7_TRIPLE:
            violations.append("triple saturation in a class where it is impossible")

    return {
        "dimension": p.dim,
        "occupations": [float(x) for x in spectrum.eigenvalues],
        "constraints": constraints,
        "support_pattern": pattern,
        "support_triples": sorted(support),
        "class_label": label,
        "consistent": not violations,
        "violations": violations,
    }
