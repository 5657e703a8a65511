"""SLOCC class and family assignment for three-fermion states.

Six dimensions uses the invariant chain (quartic, cubic companion, Pluecker
residuals) cross-validated against the rank-triple table; seven and eight
dimensions are pure table lookups on covariant rank signatures; nine
dimensions resolves the family from the vanishing pattern of the four
discriminant combinations.  A state whose signature matches no table row
comes back as ``Unclassified`` with a diagnostic payload, never as a nearest
match.

Each classifier also returns the invariants it printed in a report, from the
covariants it built once.  P and cP lie in one class, so every state is
classified on one multiple of itself, ``AltTensor.representative``: an exact
state on its primitive integer multiple, a float state at unit size, so that
no decision depends on the input's scale.  Each invariant is taken back to the
caller's state by homogeneity, and its zero flag is the one verdict the
classifier reached on the representative.
"""

from __future__ import annotations

import functools
import itertools

from .covariants import (dual_trivector, eight_covariants, first_order_map,
                         k_matrix_6, kappa_map, seven_covariants)
from .exterior import (AltTensor, GroupElement, contractions, mask_of,
                       merge_sign, slocc_apply, tuple_of)
from .invariants import (DELTA_DEGREES, J_DEGREES, eight_i, nine_deltas,
                         nine_js_scaled, quartic_d, seven_j)
from .scalars import (TolerancePolicy, _bareiss, invariant_is_zero, quotient,
                      rank, row_reduce, to_complex, zero_threshold)


class ClassLabel:
    """Classification outcome: label plus the signature that justified it.

    ``invariants`` maps the report name of each polynomial invariant the
    classifier evaluated to ``(value, degree)`` for the caller's state, and
    ``zero`` maps the same names to the classifier's verdict on whether the
    invariant vanishes.
    """

    __slots__ = ("dimension", "label", "signature", "detail", "invariants",
                 "zero")

    def __init__(self, dimension: int, label: str, signature: tuple,
                 detail: dict = None, invariants: dict = None,
                 zero: dict = None):
        self.dimension = dimension
        self.label = label
        self.signature = signature
        self.detail = {} if detail is None else detail
        self.invariants = {} if invariants is None else invariants
        self.zero = {} if zero is None else zero

    @property
    def classified(self) -> bool:
        return self.label != "Unclassified"

    def relabeled(self, label: str) -> ClassLabel:
        """A new outcome with ``label`` and this one's other fields."""
        return ClassLabel(self.dimension, label, self.signature, self.detail,
                          self.invariants, self.zero)


TABLE1 = {
    (0, 0, 0): "Null",
    (3, 0, 0): "Sep",
    (5, 1, 4): "Bisep",
    (6, 3, 6): "W",
    (6, 6, 6): "GHZ",
}

TABLE2 = {
    (0, 0, 0): "I",
    (0, 3, 0): "II",
    (0, 5, 1): "III",
    (0, 6, 3): "IV",
    (0, 6, 6): "V",
    (1, 7, 1): "VI",
    (1, 7, 4): "VII",
    (2, 7, 6): "VIII",
    (4, 7, 7): "IX",
    (7, 7, 7): "X",
}

TABLE3 = {
    (0, 3, 6, 0): "XI",
    (0, 4, 7, 0): "XII",
    (0, 4, 8, 0): "XIII",
    (0, 5, 8, 1): "XIV",
    (0, 6, 8, 2): "XV",
    (1, 8, 8, 1): "XVI",
    (1, 8, 8, 2): "XVII",
    (1, 8, 8, 4): "XVIII",
    (2, 8, 8, 2): "XIX",
    (2, 8, 8, 5): "XX",
    (3, 8, 8, 7): "XXI",
    (5, 8, 8, 8): "XXII",
    (8, 8, 8, 8): "XXIII",
}

# the five six-dimensional classes coincide with the first five rows of the
# seven-dimensional table
_SIX_TO_ROMAN = {"Null": "I", "Sep": "II", "Bisep": "III", "W": "IV",
                 "GHZ": "V", "GHZ+": "V", "GHZ-": "V"}

# family rows: (Delta132, Delta48, Delta48', Delta24) as is-zero flags
TABLE4_ZERO_PATTERNS = {
    (False, False, False, False): "family1",
    (True, False, False, False): "family2",
    (True, True, False, False): "family3",
    (True, False, True, False): "family4",
    (True, True, True, False): "family5",
    (True, True, True, True): "family6",
}


def _check(p, dim):
    if p.dim != dim or p.degree != 3:
        raise ValueError(f"expected a three-form in {dim} dimensions")


def _on_representative(classifier):
    """Run ``classifier`` on ``p.representative()`` and take each invariant
    it returns back to ``p``.  The classifier's own zero verdicts, decided on
    the representative, are the ones reported."""
    @functools.wraps(classifier)
    def run(p):
        q, unscale = p.representative()
        out = classifier(q)
        out.invariants = {name: (unscale(v, deg), deg)
                          for name, (v, deg) in out.invariants.items()}
        return out
    return run


# ---------------------------------------------------------------------------
# Pluecker relations


@functools.lru_cache(maxsize=None)
def _plucker_plan(dim: int, k: int):
    """Per residual, ((A, B), terms) with one term (mask of A + (j,), mask of
    B - j, negate) for each j of B in order; j in A gives a zero component
    and no term.  ``negate`` is the sign of sorting A + (j,) times (-1)^n."""
    plan = []
    rng = range(1, dim + 1)
    for a_set in itertools.combinations(rng, k - 1):
        ma = mask_of(a_set)
        for b_set in itertools.combinations(rng, k + 1):
            mb = mask_of(b_set)
            terms = []
            for n, j in enumerate(b_set):
                mj = 1 << (j - 1)
                if not ma & mj:
                    terms.append((ma | mj, mb ^ mj,
                                  (merge_sign(ma, mj) < 0) != (n % 2 == 1)))
            plan.append(((a_set, b_set), terms))
    return plan


def plucker_residuals(p: AltTensor):
    """All residuals Pi_{A,B} over (k-1)- and (k+1)-index subsets.

    Pi_{A,B} = sum_n (-1)^n P_{A j_n} P_{B - j_n} over the entries j_n of B.
    A three-form is a single Slater determinant exactly when every residual
    vanishes.
    """
    amp = p.masks()
    out = []
    for key, terms in _plucker_plan(p.dim, p.degree):
        total = 0
        for mx, my, negate in terms:
            x = amp.get(mx)
            if x:
                y = amp.get(my)
                if y:
                    term = x * y
                    total = total - term if negate else total + term
        out.append((key, total))
    return out


def is_separable(p: AltTensor) -> bool:
    if p.is_zero():
        return True
    scale, eps = p.max_abs(), TolerancePolicy.ZERO_EPSILON
    return all(invariant_is_zero(v, scale, 2, eps)
               for _, v in plucker_residuals(p))


# ---------------------------------------------------------------------------
# six dimensions


def rank_triple_6(p: AltTensor, k=None):
    """``k`` may pass ``k_matrix_6(p)`` when the caller already has it."""
    return (first_order_map(p, 2).rank(),
            (k_matrix_6(p) if k is None else k).rank(),
            kappa_map(p, (2,)).rank())


@_on_representative
def classify6(p: AltTensor) -> ClassLabel:
    """Invariant decision chain for six dimensions, table cross-validated.

    Chain: nonzero quartic invariant is the generic class; else a nonzero
    cubic companion is W; else nonzero Pluecker residuals mean biseparable;
    else separable or null.  The rank triple must independently agree.  One
    6x6 covariant K feeds D, the cubic companion and the rank triple.
    """
    _check(p, 6)
    scale = p.max_abs()
    eps = TolerancePolicy.ZERO_EPSILON
    k = k_matrix_6(p)
    d = quartic_d(p, k=k)
    d_zero = invariant_is_zero(d, scale, 4, eps)
    if not d_zero:
        chain = "GHZ"
    elif not all(invariant_is_zero(v, scale, 3, eps)
                 for v in dual_trivector(p, k).masks().values()):
        chain = "W"
    elif not is_separable(p):
        chain = "Bisep"
    elif not p.is_zero():
        chain = "Sep"
    else:
        chain = "Null"
    triple = rank_triple_6(p, k)
    table = TABLE1.get(triple)
    detail = {"rank_triple": triple}
    if p.mode == "float":  # for the real split, which reads this representative
        detail["k_matrix"] = k.matrix
    label = chain
    if table != chain:
        detail.update(chain_label=chain, table_label=table)
        label = "Unclassified"
    return ClassLabel(6, label, triple, detail, {"quartic_d": (d, 4)},
                      {"quartic_d": d_zero})


@_on_representative
def classify6_real(p: AltTensor) -> ClassLabel:
    """Real classification: the generic class splits by the sign of D.

    Requires every amplitude real.  For negative D in float mode the
    normalized 6x6 covariant squares to minus the identity (it defines a
    complex structure); that identity is verified as a sanity check, on the
    representative that both K and D are read on.
    """
    _check(p, 6)
    for v in p.masks().values():
        if v.imag:
            raise ValueError("classify6_real requires real amplitudes")
    out = classify6(p)
    if out.label != "GHZ":
        return out
    dr = out.invariants["quartic_d"][0].real
    label = "GHZ+" if dr > 0 else "GHZ-"
    if p.mode == "float" and dr < 0:
        k = out.detail["k_matrix"]
        s = (-dr) ** 0.5
        j = [[to_complex(x) / s for x in row] for row in k]
        # J has unit scale
        cut = zero_threshold(1.0, 1, TolerancePolicy.COMPLEX_STRUCTURE)
        for i in range(6):
            for jj in range(6):
                want = -1.0 if i == jj else 0.0
                got = sum(j[i][t] * j[t][jj] for t in range(6))
                if abs(got - want) > cut:
                    out.detail["complex_structure_defect"] = abs(got - want)
                    return out.relabeled("Unclassified")
    return out.relabeled(label)


# ---------------------------------------------------------------------------
# seven dimensions


def rank_triple_7(p: AltTensor, cov=None):
    """``cov`` may pass ``seven_covariants(p)`` when the caller already has it."""
    if cov is None:
        cov = seven_covariants(p)
    return (rank(cov.n_matrix), first_order_map(p, 2).rank(),
            cov.m_map.rank())


@_on_representative
def classify7(p: AltTensor) -> ClassLabel:
    """Rank-triple lookup; the ten signatures are pairwise distinct."""
    _check(p, 7)
    cov = seven_covariants(p)
    triple = rank_triple_7(p, cov)
    label = TABLE2.get(triple, "Unclassified")
    detail = {"rank_triple": triple} if label == "Unclassified" else {}
    j = seven_j(p, cov)
    zero = invariant_is_zero(j, p.max_abs(), 7, TolerancePolicy.ZERO_EPSILON)
    return ClassLabel(7, label, triple, detail, {"seven_j": (j, 7)},
                      {"seven_j": zero})


# ---------------------------------------------------------------------------
# eight dimensions


def support_reduction(p: AltTensor):
    """(group element, support rank): rotate the state onto leading indices.

    The kernel of v -> i_v P is complemented by pivot coordinates of the
    flattened amplitude matrix; the inverse of that basis moves the state
    into the span of the first ``rank`` indices.  Exact rows are those of
    the primitive multiple, reduced fraction-free (c P has the reduced rows
    of P); float rows go to ``row_reduce``.  Nothing is inverted.
    """
    n, exact = p.dim, p.mode != "float"
    # the row of the pair a < b holds P_iab = (i_{ab} P)_i over i
    pairs = contractions(p.representative()[0] if exact else p, 2)
    rows = [[pairs.get(mask_of(ab), {}).get(1 << i, 0) for i in range(n)]
            for ab in itertools.combinations(range(1, n + 1), 2)]
    if exact:
        piv_cols, m, d = _bareiss(rows, jordan=True)
        m = [[quotient(x, d) for x in row] for row in m]
    else:
        m, piv_cols, _ = row_reduce(rows, TolerancePolicy.ABSOLUTE_FLOOR)
    free = [c for c in range(n) if c not in piv_cols]
    unit = [[int(i == c) for i in range(n)] for c in range(n)]
    kernel = [list(unit[fc]) for fc in free]
    for vec, fc in zip(kernel, free):
        for i, pc in enumerate(piv_cols):
            vec[pc] = -m[i][fc]
    # h has columns (pivot axes | kernel basis); the state moved by h^-1 is
    # supported on the leading pivot block.  h^-1 is the reduced rows over
    # e_f, unit upper triangular in the column order (p, f), and h^T is its
    # inverse transpose
    odd = sum(fc < pc for pc in piv_cols for fc in free) % 2
    g = GroupElement(m[:len(piv_cols)] + [unit[fc] for fc in free],
                     [unit[pc] for pc in piv_cols] + kernel, -1 if odd else 1)
    return g, len(piv_cols)


@_on_representative
def classify8(p: AltTensor) -> ClassLabel:
    """Quadruple lookup, delegating to lower tables on reduced support.

    States supported on at most seven independent directions are rotated
    onto the leading indices and classified by the seven- or six-dimensional
    chain; the class is unchanged because the rotation is a group element.
    Delegated states still report I = Tr(GH) of the eight-mode state.
    """
    _check(p, 8)
    g, support = support_reduction(p)
    if support <= 7:
        i = eight_i(p)
        invariants = {"eight_i": (i, 16)}
        zero = {"eight_i": invariant_is_zero(i, p.max_abs(), 16,
                                             TolerancePolicy.ZERO_EPSILON)}
        rotated = slocc_apply(g, p)
        sub_dim = 7 if support == 7 else 6
        keep = {}
        scale = rotated.max_abs() if p.mode == "float" else 0.0
        for m, v in rotated.masks().items():
            if invariant_is_zero(v, scale, 1, TolerancePolicy.ROTATED_NOISE):
                continue
            if m >= 1 << sub_dim:
                return ClassLabel(8, "Unclassified", (support,),
                                  {"support_reduction_defect": tuple_of(m)},
                                  invariants, zero)
            keep[m] = v
        sub = AltTensor(sub_dim, 3, keep)
        out = classify6(sub) if sub_dim == 6 else classify7(sub)
        detail = dict(out.detail)
        detail["delegated_to"] = sub_dim
        detail["support_rank"] = support
        if sub_dim == 6 and out.label in _SIX_TO_ROMAN:
            detail["roman_equivalent"] = _SIX_TO_ROMAN[out.label]
        return ClassLabel(8, out.label, out.signature, detail, invariants,
                          zero)
    cov = eight_covariants(p)
    quad = (rank(cov.g_matrix), cov.f_map.rank(), cov.e_map.rank(),
            rank(cov.fe_matrix))
    label = TABLE3.get(quad, "Unclassified")
    detail = {"rank_quadruple": quad} if label == "Unclassified" else {}
    i = eight_i(p, cov)
    zero = invariant_is_zero(i, p.max_abs(), 16,
                             TolerancePolicy.ZERO_EPSILON)
    return ClassLabel(8, label, quad, detail, {"eight_i": (i, 16)},
                      {"eight_i": zero})


# ---------------------------------------------------------------------------
# nine dimensions


@_on_representative
def classify9_family(p: AltTensor) -> ClassLabel:
    """Family assignment from the vanishing pattern of the discriminants.

    All four trace invariants zero means the nilpotent family; otherwise the
    zero pattern of (Delta132, Delta48, Delta48', Delta24) is matched against
    the six semisimple rows.  The rank of the 84 x 84 endomorphism and the
    invariant values ride along in the report.
    """
    _check(p, 9)
    scale = p.max_abs()
    eps = TolerancePolicy.ZERO_EPSILON
    js, _, tm = nine_js_scaled(p)
    invariants = dict(zip(("J12", "J18", "J24", "J30"), zip(js, J_DEGREES)))
    zero = {name: invariant_is_zero(j, scale, deg, eps)
            for name, (j, deg) in invariants.items()}
    detail = {"rank_T": rank(tm)}
    if all(zero.values()):
        return ClassLabel(9, "family7", (True,) * 4, detail, invariants, zero)
    deltas = dict(zip(("Delta132", "Delta48", "Delta48p", "Delta24"),
                      zip(nine_deltas(js), DELTA_DEGREES)))
    invariants.update(deltas)
    pattern = tuple(invariant_is_zero(dv, scale, deg, eps)
                    for dv, deg in deltas.values())
    zero.update(zip(deltas, pattern))
    if p.mode == "float":
        detail["delta132_confidence"] = "low"
    label = TABLE4_ZERO_PATTERNS.get(pattern, "Unclassified")
    return ClassLabel(9, label, pattern, detail, invariants, zero)


def classify(p: AltTensor, real_mode: bool = False) -> ClassLabel:
    """Dispatch on dimension; ``real_mode`` selects the real six-dim split."""
    if p.dim == 6:
        return classify6_real(p) if real_mode else classify6(p)
    if p.dim == 7:
        return classify7(p)
    if p.dim == 8:
        return classify8(p)
    if p.dim == 9:
        return classify9_family(p)
    raise ValueError("classification covers dimensions 6..9")
