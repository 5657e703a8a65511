"""Scalar arithmetic and small dense-matrix kernels.

Two scalar modes coexist in the library and are never mixed silently:

* exact mode: ``int``, ``fractions.Fraction`` and :class:`GaussianRational`
  (a complex number with rational real and imaginary parts),
* float mode: ``float`` and ``complex``.

Exact scalars have one normal form, decided by :func:`normal_form` alone: an
``int`` when integral, a ``Fraction`` when real, and a
:class:`GaussianRational` only when the imaginary part is nonzero.  Every
:class:`~trivec.exterior.AltTensor` stores its coefficients in it, and
:func:`quotient`, the one exact division, returns it.

Every scalar answers Python's number protocol (``.real``, ``.imag``,
``.conjugate()``).  Arithmetic between a :class:`GaussianRational` and a float
or complex raises ``TypeError``; :func:`to_complex` stays the one explicit way
out of exact mode.  Every float threshold is a class constant of
:class:`TolerancePolicy`, which the classifiers and :func:`rank` read when
they run; they take the state or matrix alone.

The matrix kernels operate on rectangular lists of row lists.  In exact mode
rank and determinant use fraction-free (Bareiss) elimination, so results are
bit-exact; rank first divides the row and column gcds out of a matrix of
(Gaussian) integers.  Every other elimination (inverses, kernels, float
determinants) is the one Gauss-Jordan kernel :func:`row_reduce`.  In float
mode rank counts the diagonal of a Householder QR with column pivoting,
taken directly on the complex entries, against :class:`TolerancePolicy`;
Hermitian eigenvalues come from cyclic Jacobi sweeps.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction

_EXACT_TYPES = (int, Fraction)


def _part(x):
    """A real exact scalar in normal form: ``int`` when integral."""
    if type(x) is int:
        return x
    x = x if isinstance(x, Fraction) else Fraction(x)
    return x.numerator if x.denominator == 1 else x


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    Each part is an ``int`` when it is integral and a ``Fraction`` (lowest
    terms, positive denominator) otherwise, so Gaussian integers run on
    machine integers.  Operations accept ``int`` and ``Fraction`` operands;
    floats and complexes are rejected.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _part(re)
        self.im = im if type(im) is int else _part(im)

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, _EXACT_TYPES):
            return GaussianRational(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(quotient(self.re * o.re + self.im * o.im, n),
                                quotient(self.im * o.re - self.re * o.im, n))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"

    # the number protocol's names for the parts, read-only
    real = property(operator.attrgetter("re"))
    imag = property(operator.attrgetter("im"))

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> int | Fraction:
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)


_ALL_EXACT_TYPES = (GaussianRational,) + _EXACT_TYPES
_FLOAT_TYPES = (float, complex)


def normal_form(x):
    """The normal form of an exact scalar: an ``int`` when integral, a
    ``Fraction`` when real, a :class:`GaussianRational` only when its
    imaginary part is nonzero.  Floats and complexes come back as they are.
    """
    t = type(x)
    if t is Fraction:
        return x.numerator if x.denominator == 1 else x
    if t is GaussianRational:
        return x if x.im else x.re  # the parts are in normal form already
    if t is int or t is float or t is complex:
        return x
    return _part(x) if isinstance(x, _EXACT_TYPES) else x


def quotient(x, n):
    """x / n in the exact normal form; floats and complexes give x / n."""
    if type(x) is int and type(n) is int:
        q, r = divmod(x, n)
        return Fraction(x, n) if r else q
    if type(x) is float or type(x) is complex:
        return x / n
    return normal_form(x if n == 1 else x / n)


def is_exact(x) -> bool:
    """True for the exact scalar types, False for float/complex."""
    t = type(x)
    if t in _ALL_EXACT_TYPES:
        return True
    if t in _FLOAT_TYPES:
        return False
    # subclasses, such as bool; Fraction's ABC metaclass makes this slow
    return isinstance(x, _ALL_EXACT_TYPES)


def abs_sq(x):
    """|x|^2, exact for exact scalars, float otherwise."""
    if isinstance(x, GaussianRational):
        return x.norm_sq()
    if isinstance(x, _EXACT_TYPES):
        return x * x
    if isinstance(x, complex):
        return x.real * x.real + x.imag * x.imag
    return x * x


def to_complex(x) -> complex:
    if isinstance(x, GaussianRational):
        return x.to_complex()
    return complex(x)


class TolerancePolicy:
    """Every float threshold, as a class constant; exact mode reads none.

    Rank counts the diagonal entries |R_kk| of a column-pivoted QR above
    ``max(RELATIVE_RANK_EPSILON * |R_11|, ABSOLUTE_FLOOR, noise)``, where the
    noise floor ``16 max(rows, cols) eps |R_11|`` bounds the backward error of
    the factorization.  An invariant of degree d is zero when its modulus is
    at most ``zero_threshold(scale, d, ZERO_EPSILON)``, with ``scale`` the
    largest amplitude modulus.  The classifiers apply every threshold to the
    unit-scale representative of a float state (``AltTensor.representative``),
    never to the state as given.  Each site reads its constant when it runs.
    """

    # each commented with the float it judges and, for those that enter
    # zero_threshold, the scale and degree; the rank pair and the last three
    # are compared as they stand, the Jacobi ones strictly
    RELATIVE_RANK_EPSILON = 1e-10  # pivoted-QR |R_kk| / |R_11|
    ABSOLUTE_FLOOR = 1e-13  # pivoted-QR |R_kk|; support_reduction's pivots
    ZERO_EPSILON = 1e-8  # classifier invariants; largest amplitude, degree
    ROTATED_NOISE = 1e-10  # classify8's rotated amplitudes; largest, 1
    SUPPORT = 1e-10  # natural-orbital amplitudes; largest, 1
    COMPLEX_STRUCTURE = 1e-8  # J^2 + 1 with J = K / sqrt(-D); 1, 1
    ANTISYMMETRY = 1e-20  # pfaffian's |m_ij + m_ji|^2; max |m_ij|^2, 1
    HERMITIAN = 1e-10  # |h_ij - conj(h_ji)|; max |h_ij|, 1
    TRACE_IDENTITY = 1e-8  # Tr T^n / 84 for n = 1, 2, 3; max |T_ij|, n
    SATURATION = 1e-9  # polytope slacks, saturated (pinned) at most
    JACOBI_CONVERGENCE = 1e-14  # Jacobi off-diagonal norm / Frobenius norm
    JACOBI_PARTNER = 1e-8  # residual norm of a conjugate-partner eigenvector


def zero_threshold(scale: float, degree: int, eps: float) -> float:
    """The one float zero rule: a quantity of homogeneous ``degree`` in
    amplitudes of largest modulus ``scale`` counts as zero when its modulus
    is at most ``eps * scale**degree``; a zero scale reads as 1e-300."""
    return eps * max(scale, 1e-300) ** degree


def invariant_is_zero(value, scale: float, degree: int, eps: float) -> bool:
    """Whether ``value`` vanishes: exactly for an exact scalar, else by
    :func:`zero_threshold`."""
    if is_exact(value):
        return not value
    return abs(to_complex(value)) <= zero_threshold(scale, degree, eps)


def _check_rect(m):
    if not m:
        return 0, 0
    ncols = len(m[0])
    for row in m:
        if len(row) != ncols:
            raise ValueError("matrix rows have unequal lengths")
    return len(m), ncols


def matrix_is_exact(m) -> bool:
    return all(is_exact(x) for row in m for x in row)


def _combine(s, a, t, f, d, integral):
    """(a s - f t) / d entry by entry: one row of a Bareiss step.  An int
    row divides with ``//``; its floor remainders share the sign of d, so
    sum(q) d = a sum(s) - f sum(t) exactly when every division is exact."""
    if d == 1:
        return [a * x - f * y for x, y in zip(s, t)]
    if not integral:
        return [(a * x - f * y) / d for x, y in zip(s, t)]
    q = [(a * x - f * y) // d for x, y in zip(s, t)]
    if sum(q) * d != a * sum(s) - f * sum(t):
        raise ArithmeticError("non-exact integer division in Bareiss step")
    return q


def _bareiss(m):
    """Fraction-free elimination.  Returns (rank, det_of_leading_block, swaps).

    ``det`` is meaningful only when the matrix is square and has full rank;
    the caller adjusts for the parity of row swaps.  Each row s keeps the
    divisor d of its last update; after a step with pivot p the classic
    Bareiss row is s p / d.  A step brings the pivot row r current and
    updates only the rows with a nonzero entry f in the pivot column, to
    (p s - f r) / d with divisor p.  Scaling keeps a row's zeros, so the
    pivots are those of classic Bareiss.  A matrix with a non-int entry runs
    on Fractions or Gaussian rationals throughout.
    """
    nr, nc = _check_rect(m)
    if nr == 0 or nc == 0:
        return 0, 1, 0
    kinds = {type(x) for row in m for x in row}
    integral = all(issubclass(t, int) for t in kinds)
    if not integral:
        one = GaussianRational(1) if GaussianRational in kinds else Fraction(1)
        m = [[one * x for x in row] for row in m]
    rows = [list(row) for row in m]
    divs = [1] * nr
    prev = 1
    rank = swaps = 0
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            divs[rank], divs[piv] = divs[piv], divs[rank]
            swaps += 1
        r = rows[rank][col:]
        if divs[rank] != prev:
            r = _combine(r, prev, r, 0, divs[rank], integral)
        pv, r = r[0], r[1:]
        for i in range(rank + 1, nr):
            s = rows[i]
            f = s[col]
            if f:
                s[col + 1:] = _combine(s[col + 1:], pv, r, f, divs[i], integral)
                divs[i] = pv
        prev = pv
        rank += 1
        if rank == nr:
            break
    return rank, prev, swaps


def row_reduce(m, floor: float = 0.0):
    """Gauss-Jordan elimination to reduced row echelon form.

    Returns ``(rows, pivot_columns, det)``: the reduced rows, the column of
    each pivot in order, and the product of the pivots signed by the parity
    of the row swaps (the determinant when the matrix is square and of full
    rank).  Exact matrices are reduced over the rationals, with ``int``
    entries promoted to ``Fraction``, and pivot on the first nonzero entry of
    a column.  Float matrices are reduced in complex arithmetic and pivot on
    the entry of largest modulus, which must exceed ``floor``.
    """
    nr, nc = _check_rect(m)
    exact = matrix_is_exact(m)
    if exact:
        a = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in m]
    else:
        a = [[to_complex(x) for x in row] for row in m]
    pivots = []
    det = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        if exact:
            piv = next((i for i in range(r, nr) if a[i][c]), None)
        else:
            piv = max(range(r, nr), key=lambda i: abs(a[i][c]))
            if not abs(a[piv][c]) > floor:
                piv = None
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        pv = a[r][c]
        det = det * pv
        a[r] = [x / pv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots, det


def _abs_sq_sum(v, real=False):
    if real:
        return sum(map(operator.mul, v, v))
    return sum(z.real * z.real + z.imag * z.imag for z in v)


def _pivoted_qr_diagonal(m):
    """(|R_kk| in pivot order, noise floor) of Householder QR with pivoting.

    Businger-Golub column pivoting on the complex entries, or on floats when
    every imaginary part is zero: at step k the remaining column of largest
    norm is moved to position k and reflected onto a multiple of e_k.  The pivots make |R_11| >= |R_22| >= ... reveal
    the rank without squaring the matrix, so ratios down to about machine
    epsilon are resolved.  A wide matrix is factored through its transpose,
    which has the same rank; the columns are then the longer vectors.  The
    floor ``16 max(nr, nc) eps |R_11|`` bounds the backward error of the
    factorization, the magnitude a mathematically zero |R_kk| can show.
    """
    nr, nc = _check_rect(m)
    if nr == 0 or nc == 0:
        return [], 0.0
    vectors = zip(*m) if nr >= nc else m
    cols = [[to_complex(x) for x in v] for v in vectors]
    # a real matrix is factored on floats: in complex arithmetic every
    # imaginary part would stay zero, so each |R_kk| comes out the same
    real = not any(z.imag for c in cols for z in c)
    if real:
        cols = [[z.real for z in c] for c in cols]
    diag = _householder_diagonal(cols, real)
    return diag, 16 * max(nr, nc) * sys.float_info.epsilon * diag[0]


def _householder_diagonal(cols, real):
    """|R_kk| of the pivoted QR of the columns ``cols``, reduced in place;
    ``real`` says that they hold floats rather than complexes."""
    length, n = len(cols[0]), len(cols)
    norms = [_abs_sq_sum(c, real) for c in cols]
    # squared norms at their last exact evaluation; a downdated norm that
    # has lost most of its size to cancellation is evaluated afresh (LAPACK
    # xGEQP3 does the same)
    fresh = list(norms)
    recompute = math.sqrt(sys.float_info.epsilon)
    diag = []
    for k in range(min(length, n)):
        p = max(range(k, n), key=norms.__getitem__)
        cols[k], cols[p] = cols[p], cols[k]
        norms[k], norms[p] = norms[p], norms[k]
        fresh[k], fresh[p] = fresh[p], fresh[k]
        x = cols[k][k:]
        xnorm = math.sqrt(_abs_sq_sum(x, real))
        if xnorm == 0.0:
            break  # the pivot has the largest norm: every remaining column is 0
        diag.append(xnorm)
        alpha = x[0]
        phase = alpha / abs(alpha) if alpha else 1.0
        # reflector I - v v^H / (xnorm (xnorm + |alpha|)) with
        # v = x + phase xnorm e_1 maps x to -phase xnorm e_1
        v = [alpha + phase * xnorm] + x[1:]
        vh = v if real else [z.conjugate() for z in v]
        inv = 1.0 / (xnorm * (xnorm + abs(alpha)))
        for j in range(k + 1, n):
            c = cols[j]
            tail = c[k:]
            f = sum(map(operator.mul, vh, tail)) * inv
            if f:
                c[k:] = [a - f * b for a, b in zip(tail, v)]
            ck = c[k]
            t = norms[j] - (ck * ck if real else ck.real * ck.real + ck.imag * ck.imag)
            if t <= recompute * fresh[j]:
                t = fresh[j] = _abs_sq_sum(c[k + 1:], real)
            norms[j] = t
    diag.extend([0.0] * (min(length, n) - len(diag)))
    return diag


def float_rank(m):
    """(rank, smallest kept |R_kk|/|R_11|, largest dropped |R_kk|/|R_11|).

    The rank counts the pivoted-QR diagonal entries above
    ``max(RELATIVE_RANK_EPSILON |R_11|, ABSOLUTE_FLOOR, noise floor)``; the
    two ratios say how close that decision was (0.0 where nothing is kept or
    nothing is dropped).
    """
    diag, noise = _pivoted_qr_diagonal(m)
    smax = max(diag, default=0.0)
    if smax == 0.0:
        return 0, 0.0, 0.0
    cut = max(TolerancePolicy.RELATIVE_RANK_EPSILON * smax,
              TolerancePolicy.ABSOLUTE_FLOOR, noise)
    kept = [d for d in diag if d > cut]
    dropped = [d for d in diag if d <= cut]
    return (len(kept), min(kept, default=0.0) / smax,
            max(dropped, default=0.0) / smax)


def _content_free(m, gaussian):
    """``m`` with each row, then each column, divided by the gcd of the
    integer parts of its entries; a zero row or column is left as it is.

    Every entry is an ``int``, or with ``gaussian`` possibly a
    :class:`GaussianRational` with ``int`` parts.
    """
    def parts(v):
        if not gaussian:
            return v
        return [q for x in v for q in ((x,) if type(x) is int else (x.re, x.im))]

    def divided(x, g):
        if g < 2:
            return x
        return x // g if type(x) is int else GaussianRational(x.re // g, x.im // g)

    m = [[divided(x, g) for x in row] if g > 1 else row
         for row, g in zip(m, [math.gcd(*parts(row)) for row in m])]
    gcds = [math.gcd(*parts(col)) for col in zip(*m)]
    return [[divided(x, g) for x, g in zip(row, gcds)] for row in m]


def rank(m) -> int:
    """Rank of a rectangular matrix, exact or tolerance-based.

    One scan over the entries picks the route.  A matrix of integral
    entries (``int``, or :class:`GaussianRational` with ``int`` parts) has
    the gcd of its rows' integer parts, then of its columns', divided out
    before Bareiss elimination: scaling a row or column by a nonzero factor
    keeps the rank, and the smaller entries make the elimination's products
    cheaper.  Other exact matrices go to Bareiss as they are, and any matrix
    with a float or complex entry to :func:`float_rank`.
    """
    nr, nc = _check_rect(m)
    if nr == 0 or nc == 0:
        return 0
    integral, gaussian = True, False
    for row in m:
        for x in row:
            t = type(x)
            if t is int:
                continue
            if t is GaussianRational and type(x.re) is int and type(x.im) is int:
                gaussian = True
                continue
            if not is_exact(x):
                return float_rank(m)[0]
            integral = False
    if integral:
        m = _content_free(m, gaussian)
    return _bareiss(m)[0]


def determinant(m):
    """Determinant of a square matrix (exact Bareiss or float Gauss-Jordan)."""
    nr, nc = _check_rect(m)
    if nr != nc:
        raise ValueError("determinant requires a square matrix")
    if nr == 0:
        return 1
    if matrix_is_exact(m):
        r, det, swaps = _bareiss(m)
        if r < nr:
            return 0 * m[0][0]
        return -det if swaps % 2 else det
    _, pivots, det = row_reduce(m)
    return det if len(pivots) == nr else 0j


def _antisymmetry_defect(m):
    nr, _ = _check_rect(m)
    worst = 0
    for i in range(nr):
        for j in range(nr):
            d = abs_sq(m[i][j] + m[j][i])
            if d > worst:
                worst = d
    return worst


def pfaffian(m):
    """Pfaffian of an even-order antisymmetric matrix.

    Expansion along the first row; intended for the orders (at most 8) that
    arise here, where the recursion cost is negligible.  Satisfies
    ``pfaffian(m)**2 == determinant(m)``.
    """
    nr, nc = _check_rect(m)
    if nr != nc:
        raise ValueError("pfaffian requires a square matrix")
    if nr % 2:
        raise ValueError("pfaffian requires even order")
    exact = matrix_is_exact(m)
    defect = _antisymmetry_defect(m)
    if exact:
        if defect != 0:
            raise ValueError("matrix is not antisymmetric")
    else:
        scale = max((abs_sq(x) for row in m for x in row), default=0.0)
        if defect > zero_threshold(scale, 1, TolerancePolicy.ANTISYMMETRY):
            raise ValueError("matrix is not antisymmetric to tolerance")
    if nr == 0:
        return 1

    def rec(rows):
        if not rows:
            return 1
        first = rows[0]
        rest = rows[1:]
        total = None
        for pos, j in enumerate(rest):
            a = m[first][j]
            if not a:
                continue
            sub = rec(rest[:pos] + rest[pos + 1:])
            term = a * sub
            if pos % 2:
                term = -term
            total = term if total is None else total + term
        if total is None:
            return 0 * m[0][0]
        return total

    return rec(list(range(nr)))


def _jacobi_sweeps(a, v):
    """Cyclic Jacobi on a real symmetric matrix in place; v gathers rotations."""
    n = len(a)
    norm = math.sqrt(sum(a[i][j] * a[i][j] for i in range(n) for j in range(n)))
    if norm == 0.0:
        return
    for _ in range(60):
        off = math.sqrt(sum(a[i][j] * a[i][j]
                            for i in range(n) for j in range(n) if i != j))
        if off < TolerancePolicy.JACOBI_CONVERGENCE * norm:
            return
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp = a[k][p]
                    akq = a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk = a[p][k]
                    aqk = a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
                if v is not None:
                    for k in range(n):
                        vkp = v[k][p]
                        vkq = v[k][q]
                        v[k][p] = c * vkp - s * vkq
                        v[k][q] = s * vkp + c * vkq
    raise ArithmeticError("Jacobi iteration failed to converge")


def _embed_hermitian(m):
    """Real symmetric 2n x 2n embedding [[A, -B], [B, A]] of A + iB."""
    n = len(m)
    a = [[to_complex(x) for x in row] for row in m]
    big = [[0.0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            re = a[i][j].real
            im = a[i][j].imag
            big[i][j] = re
            big[n + i][n + j] = re
            big[i][n + j] = -im
            big[n + i][j] = im
    return big


def _check_hermitian(m):
    n, nc = _check_rect(m)
    if n != nc:
        raise ValueError("hermitian_eigenvalues requires a square matrix")
    a = [[to_complex(x) for x in row] for row in m]
    scale = max((abs(a[i][j]) for i in range(n) for j in range(n)), default=0.0)
    worst = max((abs(a[i][j] - a[j][i].conjugate())
                 for i in range(n) for j in range(n)), default=0.0)
    if worst > zero_threshold(scale, 1, TolerancePolicy.HERMITIAN):
        raise ValueError("matrix is not Hermitian to tolerance")
    return a, n


def hermitian_eigenvalues(m) -> list:
    """Ascending real eigenvalues of a Hermitian matrix.

    Exact inputs are converted to float first.  A complex Hermitian H = A+iB
    is diagonalized through its real symmetric embedding [[A,-B],[B,A]],
    whose spectrum is that of H with every eigenvalue doubled.
    """
    a, n = _check_hermitian(m)
    if n == 0:
        return []
    if all(x.imag == 0.0 for row in a for x in row):
        real = [[x.real for x in row] for row in a]
        _jacobi_sweeps(real, None)
        return sorted(real[i][i] for i in range(n))
    big = _embed_hermitian(a)
    _jacobi_sweeps(big, None)
    evs = sorted(big[i][i] for i in range(2 * n))
    return evs[::2]


def hermitian_eigensystem(m):
    """(ascending eigenvalues, unitary whose columns are eigenvectors).

    For complex input the eigenvectors are recovered from the real
    embedding: each real eigenvector (u; w) of [[A,-B],[B,A]] yields the
    complex vector u + iw, and a Gram-Schmidt pass picks one member per
    conjugate pair (the embedding doubles every eigenspace).
    """
    a, n = _check_hermitian(m)
    if n == 0:
        return [], []
    if all(x.imag == 0.0 for row in a for x in row):
        real = [[x.real for x in row] for row in a]
        v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        _jacobi_sweeps(real, v)
        order = sorted(range(n), key=lambda i: real[i][i])
        vals = [real[i][i] for i in order]
        vecs = [[complex(v[r][i]) for i in order] for r in range(n)]
        return vals, vecs
    big = _embed_hermitian(a)
    v = [[1.0 if i == j else 0.0 for j in range(2 * n)] for i in range(2 * n)]
    _jacobi_sweeps(big, v)
    order = sorted(range(2 * n), key=lambda i: big[i][i])
    vals, vecs = [], []
    for idx in order:
        if len(vals) == n:
            break
        cand = [complex(v[r][idx], v[n + r][idx]) for r in range(n)]
        for w in vecs:
            ip = sum(wc.conjugate() * cc for wc, cc in zip(w, cand))
            cand = [cc - ip * wc for cc, wc in zip(cand, w)]
        nrm = math.sqrt(sum(abs(c) ** 2 for c in cand))
        if nrm < TolerancePolicy.JACOBI_PARTNER:
            continue  # conjugate partner of a vector already chosen
        vecs.append([c / nrm for c in cand])
        vals.append(big[idx][idx])
    if len(vals) != n:
        raise ArithmeticError("failed to extract a full complex eigenbasis")
    cols = [[vecs[j][r] for j in range(n)] for r in range(n)]
    return vals, cols
