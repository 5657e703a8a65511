"""Scalar relative invariants of three-fermion states.

Degrees and covariance weights (power of det(g') acquired under a group
element g):

==============  ======  ==========
invariant       degree  det weight
==============  ======  ==========
quartic D       4       2
seven-dim J     7       3
eight-dim I     16      6
J12/J18/J24/J30 12..30  4/6/8/10
==============  ======  ==========

The nine-dimensional invariants come from traces of powers of the cubic
endomorphism; the odd traces and the second-power trace vanish identically
and are verified, not assumed.  Exact inputs go through their integer
rescale so rational states cost plain big-integer arithmetic.  Exact values
come back in the exact normal form.
"""

from __future__ import annotations

from fractions import Fraction

from .covariants import (dual_trivector, eight_covariants, k_matrix_6,
                         seven_covariants, t_matrix_rows, t_power_traces,
                         trace_product)
from .exterior import AltTensor
from .scalars import TolerancePolicy, quotient, to_complex, zero_threshold


# ---------------------------------------------------------------------------
# six dimensions


def _block_dictionary(p: AltTensor):
    """(eta, xi, X, Y): the scalar pair and 3x3 blocks of the 20 amplitudes."""
    eta = p.component((1, 2, 3))
    xi = p.component((4, 5, 6))
    xcols = ((5, 6), (6, 4), (4, 5))
    ycols = ((2, 3), (3, 1), (1, 2))
    x = [[p.component((i,) + cc) for cc in xcols] for i in (1, 2, 3)]
    y = [[p.component((i,) + cc) for cc in ycols] for i in (4, 5, 6)]
    return eta, xi, x, y


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _adjugate3(m):
    co = [[m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
           - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
           for j in range(3)] for i in range(3)]
    return [[co[j][i] for j in range(3)] for i in range(3)]


def quartic_d(p: AltTensor, route: str = "trace", k=None):
    """Quartic relative invariant of a six-dimensional three-form.

    Three independent evaluation routes must agree:

    * ``trace``: one sixth of the trace of the squared 6x6 covariant,
    * ``freudenthal_block``: the quartic form of the (eta, xi, X, Y) block
      dictionary,
    * ``pairing``: half the symplectic pairing of the cubic companion
      three-form against the state.

    ``k`` may pass ``k_matrix_6(p)`` when the caller already has it.
    """
    if p.dim != 6 or p.degree != 3:
        raise ValueError("quartic_d expects a three-form in six dimensions")
    if route == "trace":
        k = (k_matrix_6(p) if k is None else k).matrix
        return quotient(trace_product(k, k), 6)
    if route == "freudenthal_block":
        eta, xi, x, y = _block_dictionary(p)
        trxy = sum(x[i][j] * y[j][i] for i in range(3) for j in range(3))
        tradj = sum(_adjugate3(x)[i][j] * _adjugate3(y)[j][i]
                    for i in range(3) for j in range(3))
        return ((eta * xi - trxy) ** 2 - 4 * tradj
                + 4 * eta * _det3(x) + 4 * xi * _det3(y))
    if route == "pairing":
        from .exterior import symplectic_pairing
        return quotient(symplectic_pairing(dual_trivector(p), p), 2)
    raise ValueError(f"unknown route {route!r}")


def cayley_hyperdeterminant(psi):
    """Quartic hyperdeterminant of 8 three-qubit amplitudes.

    ``psi`` is indexed 0..7 in binary order (psi[0b011] is psi_011).
    Coincides with the quartic invariant of the embedded fermionic state.
    """
    if len(psi) != 8:
        raise ValueError("cayley_hyperdeterminant takes 8 amplitudes")
    s = (psi[0] * psi[7] - psi[1] * psi[6] - psi[2] * psi[5] - psi[3] * psi[4])
    return (s * s
            - 4 * ((psi[1] * psi[6]) * (psi[2] * psi[5])
                   + (psi[2] * psi[5]) * (psi[3] * psi[4])
                   + (psi[3] * psi[4]) * (psi[1] * psi[6]))
            + 4 * psi[1] * psi[2] * psi[4] * psi[7]
            + 4 * psi[0] * psi[3] * psi[5] * psi[6])


def three_tangle(psi) -> float:
    """4 |D(psi)|; in [0, 1] for normalized amplitudes."""
    return 4.0 * abs(to_complex(cayley_hyperdeterminant(psi)))


# ---------------------------------------------------------------------------
# seven and eight dimensions


def seven_j(p: AltTensor, cov=None):
    """Degree-seven relative invariant Tr(L N) / (2^4 3^2 7).

    ``cov`` may pass ``seven_covariants(p)`` when the caller already has it.
    """
    if cov is None:
        cov = seven_covariants(p)
    # L is stored exactly symmetric, so this sums l_ij n_ij row by row; N
    # is not bit-symmetric in float, so it must be the first factor
    tr = trace_product(cov.n_matrix, cov.l_matrix)
    return quotient(tr, 2 ** 4 * 3 ** 2 * 7)


def eight_i(p: AltTensor, cov=None):
    """Degree-sixteen relative invariant Tr(G H).

    ``cov`` may pass ``eight_covariants(p)`` when the caller already has it.
    """
    if cov is None:
        cov = eight_covariants(p)
    return trace_product(cov.g_matrix, cov.h_matrix)


# ---------------------------------------------------------------------------
# nine dimensions

_J_DENOMS = (2 ** 7 * 3 ** 3 * 7,
             2 ** 10 * 3 ** 3 * 7 * 13,
             2 ** 11 * 3 ** 2 * 7 * 19,
             2 ** 12 * 3 ** 3 * 5 * 7 * 13)
J_DEGREES = (12, 18, 24, 30)


def nine_js_scaled(p: AltTensor):
    """((J12, J18, J24, J30), unscale, T rows) of the representative.

    The representative (``AltTensor.representative``) of an exact state has
    (Gaussian) integer coefficients, so the matrix powers run on
    machine/big integers; that of a float state has unit size, so they stay
    in the double range.  ``unscale(J, degree)`` is the invariant of the
    original state.  The 84 x 84 rows are T(cP) = c^3 T(P), so their rank is
    the rank of T(P).  The identities Tr T = Tr T^2 = Tr T^3 = 0 are verified
    on every call.
    """
    if p.dim != 9 or p.degree != 3:
        raise ValueError("nine_js expects a three-form in nine dimensions")
    work, unscale = p.representative()
    tm = t_matrix_rows(work)
    traces = t_power_traces(tm)
    if p.mode != "float":
        if traces[1] or traces[2] or traces[3]:
            raise ArithmeticError("trace identities violated; construction bug")
    else:
        norm = max((abs(x) for row in tm for x in row), default=0.0)
        eps = TolerancePolicy.TRACE_IDENTITY
        for n in (1, 2, 3):
            if abs(traces[n]) > zero_threshold(norm, n, eps) * 84:
                raise ArithmeticError("trace identities violated beyond tolerance")
    js = tuple(quotient(sign * tr, den) for den, tr, sign in zip(
        _J_DENOMS, (traces[4], traces[6], traces[8], traces[10]), (1, -1, 1, -1)))
    return js, unscale, tm


def nine_js(p: AltTensor):
    """The four trace invariants (J12, J18, J24, J30)."""
    js, unscale, _ = nine_js_scaled(p)
    return tuple(unscale(j, deg) for j, deg in zip(js, J_DEGREES))


def delta_24(js):
    j12, _, j24, _ = js
    return j12 ** 2 - Fraction(1, 111) * j24


def delta_48(js):
    j12, j18, j24, j30 = js
    return (j24 ** 2 + Fraction(13 * 23 ** 2 * 293, 2 ** 2 * 5 ** 4) * j12 ** 4
            + Fraction(3 ** 2 * 11 * 127 * 199 ** 2, 2 ** 3 * 5 ** 4 * 61) * j12 * j18 ** 2
            - Fraction(257 * 3 ** 2, 5 * 2 ** 3) * j12 ** 2 * j24
            - Fraction(11 * 199 ** 2, 2 ** 2 * 5 ** 3 * 61) * j18 * j30)


def delta_48_prime(js):
    j12, j18, j24, j30 = js
    return (113 * 193 * j12 ** 4
            - Fraction(11 * 199 ** 2 * 21347, 3 ** 5 * 61) * j12 * j18 ** 2
            + Fraction(2 * 5 ** 3 * 257, 3 ** 4) * j12 ** 2 * j24
            - Fraction(2 ** 4 * 5 ** 4, 3 ** 6) * j24 ** 2
            + Fraction(2 ** 3 * 5 * 11 * 199 ** 2, 3 ** 5 * 61) * j18 * j30)


# degree-132 discriminant separating the first two families; coefficients
# are exact rationals locked by the family vanishing tests
_D132_TERMS = (
    (Fraction(1), (11, 0, 0, 0)),
    (Fraction(-44940218765172270463, 2232199994248855116), (8, 2, 0, 0)),
    (Fraction(113325967730636958495085217, 1009180965699898771226274), (5, 4, 0, 0)),
    (Fraction(-11518845901768651039, 329340982758027804), (2, 6, 0, 0)),
    (Fraction(-188875, 1526823), (9, 0, 1, 0)),
    (Fraction(20955843759677134000, 15067349961179772033), (6, 2, 1, 0)),
    (Fraction(-48098757899275092625, 15067349961179772033), (3, 4, 1, 0)),
    (Fraction(156259946875, 27974261679948), (7, 0, 2, 0)),
    (Fraction(-43381098724294271875, 2440910693711123069346), (4, 2, 2, 0)),
    (Fraction(-32778366465625, 48591292538069676), (1, 4, 2, 0)),
    (Fraction(-37339826093750, 327991224631970313), (5, 0, 3, 0)),
    (Fraction(-198339133437500, 741017211205562559), (2, 2, 3, 0)),
    (Fraction(351718750000, 327991224631970313), (3, 0, 4, 0)),
    (Fraction(-1250000000, 327991224631970313), (1, 0, 5, 0)),
    (Fraction(522717082571600510, 5022449987059924011), (7, 1, 0, 1)),
    (Fraction(-4631798176278228432974860, 4541314345649544470518233), (4, 3, 0, 1)),
    (Fraction(45691574382263590, 741017211205562559), (1, 5, 0, 1)),
    (Fraction(-951594557840795000, 135606149650617948297), (5, 1, 1, 1)),
    (Fraction(2133816827644645000, 135606149650617948297), (2, 3, 1, 1)),
    (Fraction(140973248590625000, 1220455346855561534673), (3, 1, 2, 1)),
    (Fraction(10890275000000, 20007464702550189093), (1, 1, 3, 1)),
    (Fraction(-8007699664851700, 45202049883539316099), (6, 0, 0, 2)),
    (Fraction(6686357462527147925300, 1513771448549848156839411), (3, 2, 0, 2)),
    (Fraction(1392403335812500, 135606149650617948297), (4, 0, 1, 2)),
    (Fraction(-2371961791512500, 135606149650617948297), (1, 2, 1, 2)),
    (Fraction(-216716472500000, 1220455346855561534673), (2, 0, 2, 2)),
    (Fraction(-14445540571041712000, 1513771448549848156839411), (2, 1, 0, 3)),
    (Fraction(34328756109890000, 4541314345649544470518233), (1, 0, 0, 4)),
)


def delta_132(js):
    j12, j18, j24, j30 = js
    total = 0
    for coeff, (e12, e18, e24, e30) in _D132_TERMS:
        total = total + coeff * j12 ** e12 * j18 ** e18 * j24 ** e24 * j30 ** e30
    return total


def nine_deltas(js):
    """(Delta132, Delta48, Delta48', Delta24) from the four trace invariants.

    Exact inputs give exact values.  Float inputs are legal for the three
    smaller combinations; the degree-132 one is still computed but callers
    should treat its float value as low-confidence (``classify9_family``
    flags it).
    """
    return (delta_132(js), delta_48(js), delta_48_prime(js), delta_24(js))

DELTA_DEGREES = (132, 48, 48, 24)


# ---------------------------------------------------------------------------
# three qutrits


def qutrit_normal_invariants(a, b, c) -> dict:
    """Fundamental invariants on the qutrit normal form a X1 - b X2 + c X3.

    Returns I6, I9, I12, the 3x3x3 hyperdeterminant Delta333, and the three
    separating combinations D36, D24, D21.  Valid only on the normal form;
    general states go through the fermionic embedding instead.
    """
    i6 = (a ** 6 + 10 * a ** 3 * b ** 3 + b ** 6 - 10 * a ** 3 * c ** 3
          + 10 * b ** 3 * c ** 3 + c ** 6)
    i9 = ((a + b) * (a - c) * (b + c) * (a * a - a * b + b * b)
          * (a * a + a * c + c * c) * (b * b - b * c + c * c))
    i12 = (-a ** 9 * b ** 3 - 4 * a ** 6 * b ** 6 - a ** 3 * b ** 9
           + a ** 9 * c ** 3 - 2 * a ** 6 * b ** 3 * c ** 3
           + 2 * a ** 3 * b ** 6 * c ** 3 - b ** 9 * c ** 3
           - 4 * a ** 6 * c ** 6 - 2 * a ** 3 * b ** 3 * c ** 6
           - 4 * b ** 6 * c ** 6 + a ** 3 * c ** 9 - b ** 3 * c ** 9)
    d333 = (i6 ** 3 * i9 ** 2 - i12 ** 2 * i6 ** 2 - 32 * i12 ** 3
            + 36 * i12 * i6 * i9 ** 2 + 108 * i9 ** 4)
    d24 = i12 ** 2 - Fraction(2, 3) * i6 * i9 ** 2
    d21 = (8 * i12 + Fraction(1, 3) * i6 ** 2) * i9
    return {"I6": i6, "I9": i9, "I12": i12, "Delta333": d333,
            "D36": d333, "D24": d24, "D21": d21}


def qutrit_invariants(psi: dict) -> dict:
    """Invariant report for 27 qutrit amplitudes keyed by (m1, m2, m3).

    The fundamental invariants have closed forms only on the normal form;
    for general states the report falls back to the trace invariants of the
    embedded fermionic state, which separate the families faithfully.  When
    the amplitudes match the normal-form pattern both routes appear along
    with the relation residuals as a consistency check.
    """
    from .exterior import embed_three_qutrits
    image = embed_three_qutrits(psi)
    js = nine_js(image)
    out = {"J": js, "normal_form": None}
    nf = qutrit_normal_form_coefficients(psi)
    if nf is not None:
        inv = qutrit_normal_invariants(*nf)
        i6, i9, i12 = inv["I6"], inv["I9"], inv["I12"]
        out["normal_form"] = nf
        out.update(inv)
        out["relation_residuals"] = (
            js[0] - (i6 ** 2 + 20 * i12),
            js[1] - (i6 ** 3 + 30 * i12 * i6 + 100 * i9 ** 2),
        )
    return out


def qutrit_normal_form_coefficients(psi: dict):
    """(a, b, c) when the 27 amplitudes match the normal-form pattern, else None."""
    x1 = {(1, 1, 1), (2, 2, 2), (3, 3, 3)}
    x2 = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
    x3 = {(1, 3, 2), (2, 1, 3), (3, 2, 1)}
    a = b = c = None
    for key, val in psi.items():
        key = tuple(key)
        if not val:
            continue
        if key in x1:
            if a is not None and a != val:
                return None
            a = val
        elif key in x2:
            if b is not None and b != -val:
                return None
            b = -val
        elif key in x3:
            if c is not None and c != val:
                return None
            c = val
        else:
            return None
    zero = 0
    return (a if a is not None else zero, b if b is not None else zero,
            c if c is not None else zero)


# ---------------------------------------------------------------------------
# the Jacobian of the four invariants on the semisimple normal form


class _Dual:
    """Exact value and derivative along one parameter (forward mode)."""

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.v + other.v, self.d + other.d)
        return _Dual(self.v + other, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _Dual(-self.v, -self.d)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.v * other.v, self.v * other.d + self.d * other.v)
        return _Dual(self.v * other, self.d * other)

    __rmul__ = __mul__

    def __pow__(self, n):
        return _Dual(self.v ** n, n * self.v ** (n - 1) * self.d)


def jacobian_matrix(a, b, c, d):
    """4 x 4 matrix of partials of (J12, J18, J24, J30) at exact (a, b, c, d).

    Row i differentiates with respect to the i-th parameter.  Each row
    evaluates the closed forms (``oracle.appendix_b``) once on exact dual
    numbers, with the i-th parameter's derivative seeded to 1.  Two tests
    check the result: exact central differences of the closed forms, and
    the factored determinant (``jacobian_det_factored``).
    """
    from .oracle import appendix_b
    vals = tuple(Fraction(x) for x in (a, b, c, d))
    return [[j.d for j in appendix_b(*(_Dual(x, Fraction(k == i))
                                       for k, x in enumerate(vals)))]
            for i in range(4)]


def jacobian_rank(a, b, c, d):
    """(matrix, rank, determinant) of the invariant Jacobian at (a, b, c, d)."""
    from .scalars import determinant, rank as matrix_rank
    m = jacobian_matrix(a, b, c, d)
    return m, matrix_rank(m), determinant(m)


# determinant of the Jacobian factors into the family discriminants with
# this overall constant; the identity is asserted exactly in the test suite
JACOBIAN_DET_CONSTANT = 2 ** 14 * 3 ** 4 * 5 ** 7 * 11 ** 2 * 61 * 199


def jacobian_det_factored(a, b, c, d):
    """Closed factored form of det(jacobian_matrix(a, b, c, d))."""
    a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    return (JACOBIAN_DET_CONSTANT * a ** 2 * b ** 2 * c ** 2 * d ** 2
            * ((a ** 3 + b ** 3 - c ** 3) ** 3 + (3 * a * b * c) ** 3) ** 2
            * ((a ** 3 - b ** 3 + d ** 3) ** 3 + (3 * a * b * d) ** 3) ** 2
            * ((c ** 3 + b ** 3 + d ** 3) ** 3 - (3 * c * b * d) ** 3) ** 2
            * ((c ** 3 + a ** 3 - d ** 3) ** 3 + (3 * c * a * d) ** 3) ** 2)
