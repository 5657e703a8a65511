"""Antisymmetric tensors over C^N (N <= 9) and the operations on them.

Conventions used throughout the package:

* indices are 1-based at every public boundary; internally a degree-k tensor
  stores one coefficient per strictly increasing index tuple, keyed by the
  bitmask with bit ``i-1`` set for index ``i``,
* the stored value at a sorted tuple is the plain tensor component; the full
  antisymmetric array is recovered by sign extension, and no ``1/k!``
  prefactors are ever stored,
* the Levi-Civita orientation is ``eps(1, 2, ..., N) = +1``; every sign in
  ``star``, the symplectic pairing and the covariant constructions follows
  from that choice,
* the group acts on forms through the inverse transpose: a group element g
  sends the component array P to g'...g' P with g' = (g^T)^-1, so the
  degree-k action is the k-th compound matrix of g',
* the contraction of P by a basis multivector is
  (i_T P)_J = sign(T|J) P_{T u J}; :func:`contractions` tabulates it for
  every basis T of one degree, and every covariant of the package reads
  its contractions from that table.

Tensors are mode-homogeneous: either every coefficient is exact (int,
Fraction, GaussianRational) or every coefficient is a float/complex.  Binary
operations refuse to mix the two modes.  Exact coefficients are stored in the
normal form of :func:`~trivec.scalars.normal_form`, whatever arithmetic made
them.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .scalars import (GaussianRational, abs_sq, is_exact, normal_form,
                      quotient, row_reduce, to_complex)


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def tuple_of(mask: int) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@functools.lru_cache(maxsize=3 ** 9)
def merge_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of two disjoint sorted index sets.

    Counts the pairs (x in a, y in b) with x > y; this is the number of
    transpositions needed to merge the two sorted blocks.  Cached: nine
    modes have 3^9 pairs of disjoint masks.
    """
    s = 0
    bb = b
    while bb:
        low = bb & -bb
        s += (a >> low.bit_length()).bit_count()
        bb ^= low
    return -1 if s & 1 else 1


def ldexp(z, k):
    """z * 2^k for a float or complex z, saturating to infinity past the
    double range."""
    complex_z = type(z) is complex
    try:
        if complex_z:
            return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
        return math.ldexp(z, k)
    except OverflowError:
        if complex_z:
            return complex(ldexp(z.real, k), ldexp(z.imag, k))
        return math.copysign(math.inf, z)


def sort_indices(indices):
    """(sign, sorted tuple); sign is 0 when an index repeats."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return 0, ()
    sign = 1
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return sign, tuple(sorted(idx))


class SubsetIndexer:
    """Bijection between k-subsets of {1..N} and 0..C(N,k)-1.

    Masks sorted by numeric value enumerate subsets in colexicographic
    order, so the bijection is just a sorted list plus its inverse dict.
    """

    def __init__(self, dim: int, degree: int):
        if not 0 <= degree <= dim:
            raise ValueError("degree out of range")
        self.dim = dim
        self.degree = degree
        self.masks = sorted(mask_of(t) for t in
                            itertools.combinations(range(1, dim + 1), degree))
        self.position = {m: i for i, m in enumerate(self.masks)}

    def __len__(self):
        return len(self.masks)


class AltTensor:
    """Degree-k antisymmetric tensor over an N-dimensional space.

    Zero coefficients are dropped, and exact ones are kept in the exact
    normal form: an ``int`` when integral, a ``Fraction`` when real, a
    ``GaussianRational`` only with a nonzero imaginary part.
    """

    __slots__ = ("dim", "degree", "_c")

    def __init__(self, dim: int, degree: int, coeffs: dict | None = None):
        if not 1 <= dim <= 9:
            raise ValueError("dimension must be between 1 and 9")
        if not 0 <= degree <= dim:
            raise ValueError("degree out of range")
        self.dim = dim
        self.degree = degree
        self._c = {}
        if coeffs:
            mode = None
            for m, v in coeffs.items():
                if not v:
                    continue
                t = type(v)
                if t is int:
                    exact = True
                elif t is float or t is complex:
                    exact = False
                else:
                    v = normal_form(v)
                    exact = is_exact(v)
                if mode is None:
                    mode = exact
                elif mode is not exact:
                    raise TypeError("mixed exact and float coefficients")
                if m.bit_count() != degree or m >= 1 << dim:
                    raise ValueError("coefficient key of wrong shape")
                self._c[m] = v

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree: int) -> "AltTensor":
        return cls(dim, degree)

    @classmethod
    def from_terms(cls, dim: int, degree: int, terms) -> "AltTensor":
        """Build from (indices, coefficient) pairs.

        Indices in arbitrary order are normalized by permutation sign;
        repeated indices within one tuple are rejected.
        """
        c = {}
        for indices, val in terms:
            if len(indices) != degree:
                raise ValueError(f"index tuple {tuple(indices)} has wrong length")
            sign, st = sort_indices(indices)
            if sign == 0:
                raise ValueError(f"repeated index in {tuple(indices)}")
            if any(not 1 <= i <= dim for i in st):
                raise ValueError(f"index out of range in {tuple(indices)}")
            m = mask_of(st)
            cur = c.get(m)
            add = sign * val if sign < 0 else val
            c[m] = add if cur is None else cur + add
        return cls(dim, degree, c)

    @classmethod
    def basis(cls, dim: int, indices, coeff=1) -> "AltTensor":
        """Single basis monomial e^{i1} ^ ... ^ e^{ik} times coeff."""
        return cls.from_terms(dim, len(tuple(indices)), [(tuple(indices), coeff)])

    # -- accessors ----------------------------------------------------

    def coefficient(self, sorted_indices):
        """Coefficient at a strictly increasing tuple (0 when absent)."""
        return self._c.get(mask_of(sorted_indices), 0)

    def component(self, indices):
        """Tensor component at an arbitrary index order, sign included."""
        sign, st = sort_indices(indices)
        if sign == 0:
            return 0
        v = self._c.get(mask_of(st), 0)
        return -v if sign < 0 else v

    def terms(self):
        """Iterate (sorted index tuple, coefficient), in colex order."""
        for m in sorted(self._c):
            yield tuple_of(m), self._c[m]

    def masks(self):
        return self._c

    @property
    def mode(self):
        """'exact', 'float', or None for the zero tensor."""
        for v in self._c.values():
            return "exact" if is_exact(v) else "float"
        return None

    def is_zero(self) -> bool:
        return not self._c

    def norm_sq(self):
        """Sum of |coefficient|^2 over sorted tuples, in the exact normal
        form for an exact tensor."""
        total = 0 if self.mode != "float" else 0.0
        for v in self._c.values():
            total += abs_sq(v)
        return normal_form(total)

    def max_abs(self) -> float:
        """Largest coefficient modulus, ``inf`` past the double range.

        Only float zero tests read it; exact ones never leave exact
        arithmetic.
        """
        try:
            return max((abs(to_complex(v)) for v in self._c.values()), default=0.0)
        except OverflowError:
            return math.inf

    def integer_rescale(self) -> tuple:
        """(scale, scale * self), the primitive multiple of this tensor.

        ``scale`` is the positive rational, the lcm of the denominators over
        the gcd of the numerators of every real and imaginary part, that
        makes the coefficients (Gaussian) integers with no common integer
        factor; p and c p give the same multiple for every rational c > 0.
        Every invariant of degree d of the rescaled tensor is scale**d times
        that of this one, and ranks do not change.  Float tensors, and exact
        ones already primitive, come back as they are with scale 1.
        """
        if self.mode != "exact":
            return 1, self
        parts = [x for v in self._c.values() for x in (v.real, v.imag)]
        scale = normal_form(Fraction(math.lcm(*(x.denominator for x in parts)),
                                     math.gcd(*(x.numerator for x in parts))))
        if scale == 1:
            return 1, self
        return scale, self.scale(scale)

    def representative(self) -> tuple:
        """(q, unscale): the multiple q of this state that decisions read.

        An exact state gives its primitive multiple (``integer_rescale``),
        so p and c p share it for every rational c > 0.  A float state gives
        2^-e times itself, with the exact power of two that puts its largest
        real or imaginary part in [1/2, 1), whatever its size.
        ``unscale(v, d)`` takes an invariant of degree d of q back to this
        state.
        """
        if self.mode != "float":
            scale, q = self.integer_rescale()
            return q, lambda v, d: quotient(v, scale ** d)
        top = max(max(abs(v.real), abs(v.imag)) for v in self._c.values())
        e = math.frexp(top)[1]
        q = AltTensor(self.dim, self.degree,
                      {m: ldexp(v, -e) for m, v in self._c.items()}) if e else self
        return q, lambda v, d: ldexp(v, e * d)

    # -- arithmetic ---------------------------------------------------

    def _check_same_shape(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("tensor shape mismatch")
        if self.mode and other.mode and self.mode != other.mode:
            raise TypeError("mixed exact and float tensors")

    def __add__(self, other):
        self._check_same_shape(other)
        c = dict(self._c)
        for m, v in other._c.items():
            s = c.get(m)
            c[m] = v if s is None else s + v
        return AltTensor(self.dim, self.degree, c)

    def __sub__(self, other):
        self._check_same_shape(other)
        c = dict(self._c)
        for m, v in other._c.items():
            s = c.get(m)
            c[m] = -v if s is None else s - v
        return AltTensor(self.dim, self.degree, c)

    def __neg__(self):
        return AltTensor(self.dim, self.degree, {m: -v for m, v in self._c.items()})

    def scale(self, s):
        if not s:
            return AltTensor(self.dim, self.degree)
        return AltTensor(self.dim, self.degree, {m: s * v for m, v in self._c.items()})

    def conjugate(self):
        return AltTensor(self.dim, self.degree,
                         {m: v.conjugate() for m, v in self._c.items()})

    def to_float(self) -> "AltTensor":
        return AltTensor(self.dim, self.degree,
                         {m: to_complex(v) for m, v in self._c.items()})

    def __eq__(self, other):
        if not isinstance(other, AltTensor):
            return NotImplemented
        return (self.dim == other.dim and self.degree == other.degree
                and (self - other).is_zero())

    def __hash__(self):
        return hash((self.dim, self.degree, frozenset(self._c.items())))

    def __repr__(self):
        if self.is_zero():
            return f"AltTensor({self.dim}, {self.degree}, 0)"
        parts = [f"{v}*e{''.join(map(str, t))}" for t, v in self.terms()]
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# products and duality


def wedge(a: AltTensor, b: AltTensor) -> AltTensor:
    """Exterior product; graded anticommutative, merge-sort sign on masks."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch in wedge")
    if a.degree + b.degree > a.dim:
        raise ValueError("wedge degree exceeds dimension")
    if a.mode and b.mode and a.mode != b.mode:
        raise TypeError("mixed exact and float tensors")
    return AltTensor(a.dim, a.degree + b.degree, wedge_terms(a._c, b._c))


def wedge_terms(ac: dict, bc: dict) -> dict:
    """Components of the wedge of two coefficient dicts, zeros kept.

    Each component sums its terms in the order of ``ac``, then of ``bc``.
    """
    c = {}
    for ma, va in ac.items():
        for mb, vb in bc.items():
            if ma & mb:
                continue
            m = ma | mb
            term = va * vb
            if merge_sign(ma, mb) < 0:
                term = -term
            cur = c.get(m)
            c[m] = term if cur is None else cur + term
    return c


def interior(alpha: AltTensor, p: AltTensor) -> AltTensor:
    """Contraction of an m-vector into a k-form, m <= k.

    On canonical components: (i_alpha P)_J = sum over sorted m-subsets T
    disjoint from J of alpha^T sign(T|J) P_{T u J}, where sign(T|J) sorts the
    concatenated index list.  This is the combinatorial reduction of the
    1/(k-m)! component formula; the brute-force oracle checks the two agree.
    """
    if alpha.dim != p.dim:
        raise ValueError("dimension mismatch in interior product")
    if alpha.degree > p.degree:
        raise ValueError("contraction degree exceeds form degree")
    if alpha.mode and p.mode and alpha.mode != p.mode:
        raise TypeError("mixed exact and float tensors")
    c = {}
    for mp, vp in p._c.items():
        for mt, vt in alpha._c.items():
            if mt & mp != mt:
                continue
            j = mp ^ mt
            term = vt * vp
            if merge_sign(mt, j) < 0:
                term = -term
            cur = c.get(j)
            c[j] = term if cur is None else cur + term
    return AltTensor(p.dim, p.degree - alpha.degree, c)


@functools.lru_cache(maxsize=None)
def submasks(mask: int, k: int) -> tuple:
    """The k-element submasks of ``mask``, lowest first (in the order of
    ``itertools.combinations`` over its bits)."""
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    return tuple(map(sum, itertools.combinations(bits, k)))


def contractions(p: AltTensor, l: int) -> dict:
    """Every contraction of p by a basis l-vector: {T: {J: (i_T P)_J}}.

    (i_T P)_J = sign(T|J) P_{T u J}, as in :func:`interior` with the basis
    l-vector of mask T; only nonzero entries appear, and a T that meets no
    coefficient is absent.  Each inner dict lists its J in the order of p's
    coefficients, and the outer dict lists T in the order met when each
    coefficient gives up its (k-l)-subsets J lowest first.  Every covariant
    reads its contractions here, so sums over either order are fixed.
    """
    if not 0 <= l <= p.degree:
        raise ValueError("contraction degree out of range")
    out = {}
    for m, v in p._c.items():
        for j in submasks(m, p.degree - l):
            t = m ^ j
            out.setdefault(t, {})[j] = -v if merge_sign(t, j) < 0 else v
    return out


def star(r: AltTensor) -> AltTensor:
    """Metric-free dual: an m-form to the complementary (N-m)-vector.

    (star R)^S = eps(S, S^c) R_{S^c} with eps(1..N) = +1.  The implicit
    top-form factor is not stored; maps built from star record one power of
    the inverse determinant as their covariance weight instead.
    """
    full = (1 << r.dim) - 1
    c = {}
    for m, v in r._c.items():
        s = full ^ m
        c[s] = -v if merge_sign(s, m) < 0 else v
    return AltTensor(r.dim, r.dim - r.degree, c)


def pairing(form: AltTensor, vec: AltTensor):
    """Natural pairing of a k-form with a k-vector (determinant pairing)."""
    if form.dim != vec.dim or form.degree != vec.degree:
        raise ValueError("pairing requires equal dimension and degree")
    total = 0
    for m, v in form._c.items():
        w = vec._c.get(m)
        if w is not None:
            total = total + v * w
    return total


def symplectic_pairing(p: AltTensor, q: AltTensor):
    """{P, Q} = sum_S eps(S, S^c) P_S Q_{S^c} on three-forms in six dims."""
    if p.dim != 6 or q.dim != 6 or p.degree != 3 or q.degree != 3:
        raise ValueError("symplectic pairing is defined for three-forms in six dimensions")
    full = (1 << 6) - 1
    total = 0
    for m, v in p._c.items():
        w = q._c.get(full ^ m)
        if w is not None:
            term = v * w
            if merge_sign(m, full ^ m) < 0:
                term = -term
            total = total + term
    return total


# ---------------------------------------------------------------------------
# group action


def _invert_transpose(matrix):
    """(inverse transpose, determinant) of a square matrix, by one
    Gauss-Jordan elimination of [A | I]; exact over exact scalars."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("group element matrix must be square")
    rows, pivots, det = row_reduce([list(row) + [int(i == j) for j in range(n)]
                                    for i, row in enumerate(matrix)])
    if pivots != list(range(n)):
        raise ValueError("group element must be invertible")
    return [[rows[j][n + i] for j in range(n)] for i in range(n)], normal_form(det)


class GroupElement:
    """Invertible N x N matrix with cached determinant and inverse transpose."""

    __slots__ = ("dim", "matrix", "det", "inverse_transpose")

    def __init__(self, matrix, inverse_transpose=None, det=None):
        """``inverse_transpose`` and ``det``, when known in closed form, are
        kept as given; otherwise one inversion computes both."""
        self.dim = len(matrix)
        self.matrix = [list(row) for row in matrix]
        if inverse_transpose is None:
            inverse_transpose, det = _invert_transpose(self.matrix)
        self.inverse_transpose, self.det = inverse_transpose, det

    @classmethod
    def identity(cls, dim: int) -> "GroupElement":
        return cls([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    @classmethod
    def scalar(cls, dim: int, c) -> "GroupElement":
        return cls([[c if i == j else 0 * c for j in range(dim)] for i in range(dim)])

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        n = self.dim
        prod = [[sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
        return GroupElement(prod)


def _minor_det(mat, rows, cols):
    k = len(rows)
    if k == 1:
        return mat[rows[0]][cols[0]]
    if k == 2:
        return (mat[rows[0]][cols[0]] * mat[rows[1]][cols[1]]
                - mat[rows[0]][cols[1]] * mat[rows[1]][cols[0]])
    if k == 3:
        r0, r1, r2 = (mat[r] for r in rows)
        c0, c1, c2 = cols
        return (r0[c0] * (r1[c1] * r2[c2] - r1[c2] * r2[c1])
                - r0[c1] * (r1[c0] * r2[c2] - r1[c2] * r2[c0])
                + r0[c2] * (r1[c0] * r2[c1] - r1[c1] * r2[c0]))
    total = 0
    for j, c in enumerate(cols):
        sub = _minor_det(mat, rows[1:], cols[:j] + cols[j + 1:])
        term = mat[rows[0]][c] * sub
        total = total + (term if j % 2 == 0 else -term)
    return total


def slocc_apply(g: GroupElement, p: AltTensor) -> AltTensor:
    """Transform a k-form: every index contracted with g' = (g^T)^-1.

    Equals the action of the degree-k compound matrix of g' on the canonical
    coefficients.  Unimodular integer elements map integer states to integer
    states.
    """
    if g.dim != p.dim:
        raise ValueError("dimension mismatch in group action")
    gp = g.inverse_transpose
    k = p.degree
    if k == 0:
        return p
    c = {}
    targets = [(mask_of(t), tuple(i - 1 for i in t))
               for t in itertools.combinations(range(1, p.dim + 1), k)]
    for msrc, v in p._c.items():
        src_cols = tuple(i - 1 for i in tuple_of(msrc))
        for mtgt, rows in targets:
            d = _minor_det(gp, rows, src_cols)
            if not d:
                continue
            term = d * v
            cur = c.get(mtgt)
            c[mtgt] = term if cur is None else cur + term
    return AltTensor(p.dim, k, c)


# ---------------------------------------------------------------------------
# seven-dimensional split and primitivity


def split_seven(p: AltTensor):
    """Split a 7-dim three-form into (P, omega) with P + omega ^ e7.

    Components with all indices below 7 land in P; components with index 7
    become the two-form omega.  Lossless; invert with :func:`join_seven`.
    """
    if p.dim != 7 or p.degree != 3:
        raise ValueError("split_seven expects a three-form in seven dimensions")
    top = 1 << 6
    p6, om = {}, {}
    for m, v in p._c.items():
        if m & top:
            om[m ^ top] = v
        else:
            p6[m] = v
    return AltTensor(6, 3, p6), AltTensor(6, 2, om)


def join_seven(p6: AltTensor, omega: AltTensor) -> AltTensor:
    if p6.dim != 6 or p6.degree != 3 or omega.dim != 6 or omega.degree != 2:
        raise ValueError("join_seven expects a (three-form, two-form) pair in six dimensions")
    top = 1 << 6
    c = dict(p6._c)
    for m, v in omega._c.items():
        c[m | top] = v
    return AltTensor(7, 3, c)


def is_primitive(p6: AltTensor, omega: AltTensor) -> bool:
    """True when the five-form P ^ omega vanishes identically."""
    return wedge(p6, omega).is_zero()


# ---------------------------------------------------------------------------
# embeddings of distinguishable systems


def embed_qudits(amplitudes: dict, d: int, k: int) -> AltTensor:
    """Block embedding of k qudits: |m1..mk> to e^{m1} ^ e^{d+m2} ^ ...

    ``amplitudes`` maps k-tuples over 1..d to coefficients.  Block offsets
    keep the indices strictly increasing, so no signs appear.
    """
    n = d * k
    if n > 9:
        raise ValueError("qudit embedding needs d*k <= 9")
    terms = []
    for key, val in amplitudes.items():
        if len(key) != k or any(not 1 <= mu <= d for mu in key):
            raise ValueError(f"bad qudit index tuple {key}")
        terms.append((tuple(j * d + mu for j, mu in enumerate(key)), val))
    return AltTensor.from_terms(n, k, terms)


def embed_three_qutrits(psi: dict) -> AltTensor:
    """Three-qutrit embedding into three fermions with nine modes."""
    return embed_qudits(psi, 3, 3)


# dictionary placing the 8 qubit amplitudes on the fermionic components so
# that (P_123, P_126, P_153, P_423, P_456, P_453, P_426, P_156) =
# (psi_000, psi_001, psi_010, psi_100, psi_111, psi_110, psi_101, psi_011);
# this is the block embedding composed with the basis permutation (3245).
_QUBIT_SLOTS = {
    (0, 0, 0): (1, 2, 3),
    (0, 0, 1): (1, 2, 6),
    (0, 1, 0): (1, 5, 3),
    (1, 0, 0): (4, 2, 3),
    (1, 1, 1): (4, 5, 6),
    (1, 1, 0): (4, 5, 3),
    (1, 0, 1): (4, 2, 6),
    (0, 1, 1): (1, 5, 6),
}


def embed_three_qubits(psi: dict) -> AltTensor:
    """Three-qubit embedding with the permuted amplitude dictionary.

    ``psi`` maps bit triples (b1, b2, b3) to amplitudes.
    """
    terms = []
    for key, val in psi.items():
        key = tuple(key)
        if key not in _QUBIT_SLOTS:
            raise ValueError(f"bad qubit index tuple {key}")
        terms.append((_QUBIT_SLOTS[key], val))
    return AltTensor.from_terms(6, 3, terms)


# ---------------------------------------------------------------------------
# canonical class representatives


def _gq(re=0, im=0):
    return GaussianRational(re, im)


def complex_basis_form(dim: int, labels) -> AltTensor:
    """Wedge of complex-basis one-forms over the split C^6 (+ e^7).

    Label j in 1..3 is e^j + i e^{j+3}, label -j is e^j - i e^{j+3}, and
    label 7 (dim 7 only) is i e^7.
    """
    out = None
    for lab in labels:
        if lab == 7:
            if dim < 7:
                raise ValueError("label 7 needs dimension 7")
            f = AltTensor(dim, 1, {1 << 6: _gq(0, 1)})
        else:
            a = abs(lab)
            if not 1 <= a <= 3:
                raise ValueError(f"bad complex basis label {lab}")
            f = AltTensor(dim, 1, {1 << (a - 1): _gq(1),
                                   1 << (a + 2): _gq(0, 1 if lab > 0 else -1)})
        out = f if out is None else wedge(out, f)
    return out


def _simplify_exact(t: AltTensor) -> AltTensor:
    """Divide out the powers of two that every coefficient part shares."""
    while not t.is_zero() and all(x % 2 == 0 for v in t._c.values()
                                  for x in (v.real, v.imag)):
        t = t.scale(Fraction(1, 2))
    return t


def _e(dim, *idx):
    return AltTensor.basis(dim, idx)


def _table1(label):
    e = lambda *i: _e(6, *i)
    if label == "Null":
        return AltTensor.zero(6, 3)
    if label == "Sep":
        return e(1, 2, 3)
    if label == "Bisep":
        return e(1, 2, 3) + e(1, 5, 6)
    if label == "W":
        return e(1, 2, 6) + e(4, 2, 3) + e(1, 5, 3)
    if label == "GHZ":
        return e(1, 2, 3) + e(4, 5, 6)
    if label == "GHZ+":
        return e(1, 2, 3) + e(1, 5, 6) + e(2, 6, 4) + e(3, 4, 5)
    if label == "GHZ-":
        return e(1, 2, 3) - e(1, 5, 6) - e(2, 6, 4) - e(3, 4, 5)
    raise KeyError(label)


def _table2(label):
    E = lambda *labs: complex_basis_form(7, labs)
    sympl = wedge(E(1, -1) + E(2, -2) + E(3, -3), E(7))
    table = {
        "I": AltTensor.zero(7, 3),
        "II": E(1, 2, 3),
        "III": wedge(E(1), E(2, 3) + E(-2, -3)),
        "IV": E(1, 2, -3) + E(1, -2, 3) + E(-1, 2, 3),
        "V": E(1, 2, 3) + E(-1, -2, -3),
        "VI": sympl,
        "VII": sympl + E(1, 2, 3),
        "VIII": sympl + wedge(E(1), E(2, 3) + E(-2, -3)),
        "IX": sympl + E(1, 2, -3) + E(1, -2, 3) + E(-1, 2, 3),
        "X": sympl + E(1, 2, 3) + E(-1, -2, -3),
    }
    return table[label]


# coefficient order: the seven monomials e^123, e^567, e^154, e^264, e^374,
# e^278, e^368.  Row XIX needs a nonzero sixth coefficient: (0,0,1,1,1,1,1)
# is the unique 0/1 tuple with rank signature (2,8,8,2), and zeroing the
# sixth entry would duplicate row XI.
TABLE3_COEFFS = {
    "XI": (0, 0, 1, 1, 1, 0, 1),
    "XII": (0, 1, 1, 1, 1, 0, 1),
    "XIII": (1, 1, 1, 0, 0, 0, 1),
    "XIV": (1, 1, 1, 1, 0, 0, 1),
    "XV": (1, 1, 1, 1, 1, 0, 1),
    "XVI": (0, 0, 1, 0, 0, 1, 1),
    "XVII": (0, 0, 1, 1, 0, 1, 1),
    "XVIII": (0, 1, 1, 1, 0, 1, 1),
    "XIX": (0, 0, 1, 1, 1, 1, 1),
    "XX": (0, 1, 1, 1, 1, 1, 1),
    "XXI": (1, 1, 1, 0, 0, 1, 1),
    "XXII": (1, 1, 1, 1, 0, 1, 1),
    "XXIII": (1, 1, 1, 1, 1, 1, 1),
}

_LAMBDA_MONOMIALS = ((1, 2, 3), (5, 6, 7), (1, 5, 4), (2, 6, 4), (3, 7, 4),
                     (2, 7, 8), (3, 6, 8))


def lambda_state(coeffs) -> AltTensor:
    """Eight-dimensional representative from seven monomial coefficients."""
    if len(coeffs) != 7:
        raise ValueError("lambda_state takes seven coefficients")
    return AltTensor.from_terms(
        8, 3, [(mono, c) for mono, c in zip(_LAMBDA_MONOMIALS, coeffs) if c])


def nine_q(i: int) -> AltTensor:
    """The four commuting building blocks of the semisimple normal form."""
    e = lambda *idx: _e(9, *idx)
    if i == 1:
        return e(1, 2, 3) + e(4, 5, 6) + e(7, 8, 9)
    if i == 2:
        return e(1, 4, 7) + e(2, 5, 8) + e(3, 6, 9)
    if i == 3:
        return e(1, 5, 9) + e(2, 6, 7) + e(3, 4, 8)
    if i == 4:
        return e(1, 6, 8) + e(2, 4, 9) + e(3, 5, 7)
    raise ValueError("q index must be 1..4")


def semisimple_state(a, b, c, d) -> AltTensor:
    return (nine_q(1).scale(a) + nine_q(2).scale(b)
            + nine_q(3).scale(c) + nine_q(4).scale(d))


def _cube_sum_factor(x, y, z):
    """(x^3 + y^3 + z^3)^3 - (3 x y z)^3; zero iff x+y+z = 0 or x = y = z."""
    return (x ** 3 + y ** 3 + z ** 3) ** 3 - 27 * (x * y * z) ** 3


class FamilyConstraintError(ValueError):
    """Raised when family parameters violate the family's open conditions."""


FAMILY_PARAM_COUNT = {1: 4, 2: 3, 3: 2, 4: 2, 5: 1, 6: 1, 7: 0}


def family_state(family: int, params=()) -> AltTensor:
    """Nine-dimensional family representative with exact constraint checks.

    Parameter conventions: family 1 takes (a,b,c,d); family 2 takes (a,b,d)
    for a q1 - b q2 + d q4; family 3 (a,d); family 4 (a,b) for
    a q1 + b q2 - b q3; family 5 (c) for -c q2 + c q3; family 6 (a); family 7
    takes no parameters and returns an embedded six-dimensional GHZ state,
    a nonzero nilpotent representative.
    """
    params = tuple(params)
    want = FAMILY_PARAM_COUNT.get(family)
    if want is None:
        raise ValueError("family must be 1..7")
    if len(params) != want:
        raise ValueError(f"family {family} takes {want} parameter(s)")

    def bad(name):
        raise FamilyConstraintError(
            f"family {family} constraint violated: {name} must be nonzero")

    if family == 1:
        a, b, c, d = params
        if a * b * c * d == 0:
            bad("a*b*c*d")
        if _cube_sum_factor(b, c, d) == 0:
            bad("(b^3+c^3+d^3)^3 - (3bcd)^3")
        if _cube_sum_factor(a, c, -d) == 0:
            bad("(a^3+c^3-d^3)^3 + (3acd)^3")
        if _cube_sum_factor(a, -b, d) == 0:
            bad("(a^3-b^3+d^3)^3 + (3abd)^3")
        if _cube_sum_factor(a, b, -c) == 0:
            bad("(a^3+b^3-c^3)^3 + (3abc)^3")
        return semisimple_state(a, b, c, d)
    if family == 2:
        a, b, d = params
        if (a * b * d * (a ** 3 - b ** 3) * (a ** 3 - d ** 3) * (b ** 3 - d ** 3)
                * _cube_sum_factor(a, b, d)) == 0:
            bad("a b d (a^3-b^3)(a^3-d^3)(b^3-d^3)((a^3+b^3+d^3)^3-(3abd)^3)")
        return semisimple_state(a, -b, 0 * a, d)
    if family == 3:
        a, d = params
        if a * d * (a ** 6 - d ** 6) == 0:
            bad("a d (a^6 - d^6)")
        return semisimple_state(a, 0 * a, 0 * a, d)
    if family == 4:
        a, b = params
        if a * b * (a ** 3 - b ** 3) * (a ** 3 + 8 * b ** 3) == 0:
            bad("a b (a^3-b^3)(a^3+8b^3)")
        return semisimple_state(a, b, -b, 0 * a)
    if family == 5:
        (c,) = params
        if c == 0:
            bad("c")
        return semisimple_state(0 * c, -c, c, 0 * c)
    if family == 6:
        (a,) = params
        if a == 0:
            bad("a")
        return nine_q(1).scale(a)
    # family 7: nilpotent; any state supported on fewer than nine modes works
    return AltTensor.from_terms(9, 3, [((1, 2, 3), 1), ((4, 5, 6), 1)])


def canonical_state(dim: int, label: str, params=()) -> AltTensor:
    """Exact canonical representative for a class or family label.

    Labels: dim 6 uses Null/Sep/Bisep/W/GHZ plus GHZ+/GHZ- for the real
    split; dim 7 uses I..X; dim 8 uses XI..XXIII; dim 9 uses family1..family7
    with that family's parameters; a label below nine takes none.
    """
    if dim == 9:
        family = {f"family{f}": f for f in FAMILY_PARAM_COUNT}.get(label.lower())
        if family is None:
            raise KeyError(f"unknown nine-dimensional label {label!r}")
        return family_state(family, params)
    if dim == 6:
        p = _table1(label)
    elif dim == 7:
        p = _simplify_exact(_table2(label))
    elif dim == 8:
        try:
            coeffs = TABLE3_COEFFS[label]
        except KeyError:
            raise KeyError(f"unknown eight-dimensional class {label!r}") from None
        p = lambda_state(coeffs)
    else:
        raise ValueError("canonical states exist for dimensions 6..9")
    if params:
        raise ValueError(f"no {dim}-mode class takes parameters")
    return p
