"""Covariant linear maps built from a three-fermion state.

Every map here is assembled through the same operational recipe: a column of
the matrix is the star dual of (i_{b1} P) ^ ... ^ (i_{bn} P) ^ P evaluated on
canonical basis multivectors b_j.  Each contraction i_b P is read from the
one table :func:`~trivec.exterior.contractions` builds per degree, so the
sign of a contraction is worked out in that one place.  Reducing the
Levi-Civita contractions over canonical index subsets reproduces the usual
component formulas with their factorial prefactors exactly (each
antisymmetric block absorbs one factorial), so numeric anchors like the
diagonal GHZ matrix or N_77 = 6 Pf(omega) come out on the nose.  The
brute-force oracle validates this reduction.

Float sums add their terms in the order of the defining formula; on an
int state, the seven- and eight-mode kappa maps (1,) and (1, 1), L, G, H
and FE are the regrouped products of :mod:`trivec.packed_covariants`.

Covariance bookkeeping: a map built with one star picks up one power of
det(g') under the group action, recorded as ``det_weight``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from array import array
from fractions import Fraction

from .exterior import (AltTensor, SubsetIndexer, contractions, mask_of,
                       merge_sign, submasks, tuple_of, wedge_terms)
from .scalars import GaussianRational, normal_form, quotient, rank as matrix_rank


class ExtLinearMap:
    """Matrix of a covariant map between exterior-power spaces.

    ``matrix`` is indexed by [row][column]; ``row_subsets`` enumerates the
    codomain basis, ``col_keys`` the domain basis (tuples of masks, one per
    domain slot).  ``det_weight`` is the power of det(g') the map acquires
    under the group action.
    """

    __slots__ = ("dim", "domain_degrees", "codomain_degree", "det_weight",
                 "row_subsets", "col_keys", "matrix")

    def __init__(self, dim: int, domain_degrees: tuple, codomain_degree: int,
                 det_weight: int, row_subsets: SubsetIndexer, col_keys: list,
                 matrix: list):
        self.dim = dim
        self.domain_degrees = domain_degrees
        self.codomain_degree = codomain_degree
        self.det_weight = det_weight
        self.row_subsets = row_subsets
        self.col_keys = col_keys
        self.matrix = matrix

    def rank(self) -> int:
        return matrix_rank(self.matrix)


def first_order_map(p: AltTensor, l: int) -> ExtLinearMap:
    """Matrix of the degree-one covariant: an l-vector to its contraction.

    Rank is a group invariant; the transpose relation makes the l and k-l
    maps equal in rank.
    """
    table = contractions(p, l)
    rows = SubsetIndexer(p.dim, p.degree - l)
    cols = SubsetIndexer(p.dim, l)
    mat = [[0] * len(cols) for _ in range(len(rows))]
    for t, row in table.items():
        for j, v in row.items():
            mat[rows.position[j]][cols.position[t]] = v
    return ExtLinearMap(p.dim, (l,), p.degree - l, 0, rows,
                        [(mk,) for mk in cols.masks], mat)


def kappa_map(p: AltTensor, degrees) -> ExtLinearMap:
    """Multi-argument covariant: (a_1, ..., a_n) to star(i_{a1}P ^...^ i_{an}P ^ P).

    Columns run over products of canonical subset bases; when repeated
    degrees occur the domain is the full tensor product, which is what rank
    is computed on.
    """
    degrees = tuple(degrees)
    n = p.dim
    k = p.degree
    out_deg = n - (len(degrees) + 1) * k + sum(degrees)
    if not all(0 <= l <= k for l in degrees) or not 0 <= n - out_deg <= n:
        raise ValueError("covariant degree constraint violated")
    rows = SubsetIndexer(n, out_deg)
    if n in (7, 8) and degrees in ((1,), (1, 1)) and _all_int(p):
        from .packed_covariants import kappa_matrix
        vecs = SubsetIndexer(n, 1).masks
        return ExtLinearMap(n, degrees, out_deg, 1, rows,
                            list(itertools.product(vecs, repeat=len(degrees))),
                            kappa_matrix(p, contractions(p, 1), degrees, rows))
    # one contraction table per distinct degree; each slot lists every basis
    # element with its contraction i_beta P (empty when it meets no term)
    tables = {l: contractions(p, l) for l in set(degrees)}
    contracted = [[(m, tables[l].get(m, {})) for m in SubsetIndexer(n, l).masks]
                  for l in degrees]
    full = (1 << n) - 1
    # (row mask, mask of its complement, whether star negates that row)
    duals = [(rm, full ^ rm, merge_sign(rm, full ^ rm) < 0) for rm in rows.masks]
    col_keys = []
    columns = []

    def descend(slot, key, partial):
        if slot == len(degrees):
            w = p.masks() if partial is None else _wedge_with(partial, p)
            col_keys.append(key)
            columns.append([(-v if negate else v) if (v := w.get(m)) else 0
                            for rm, m, negate in duals])
            return
        for m, c in contracted[slot]:
            if partial is None:
                nxt = c
            else:
                nxt = {mw: v for mw, v in wedge_terms(partial, c).items() if v}
            descend(slot + 1, key + (m,), nxt)

    descend(0, (), None)
    mat = [list(row) for row in zip(*columns)]
    return ExtLinearMap(n, degrees, out_deg, 1, rows, col_keys, mat)


def _all_int(p: AltTensor) -> bool:
    return all(type(v) is int for v in p.masks().values())


def _wedge_with(ac: dict, p: AltTensor) -> dict:
    """Components of the wedge of the coefficients ``ac`` with p, zeros kept.

    As in ``wedge_terms``, each component sums its terms in the order of
    ``ac``.  A term of ``ac`` meets only the masks of p disjoint from it, so
    those are looked up instead of scanned.
    """
    full = (1 << p.dim) - 1
    pc = p.masks()
    c = {}
    for ma, va in ac.items():
        for mb in submasks(full ^ ma, p.degree):
            vb = pc.get(mb)
            if vb is not None:
                m = ma | mb
                term = va * vb
                if merge_sign(ma, mb) < 0:
                    term = -term
                cur = c.get(m)
                c[m] = term if cur is None else cur + term
    return c


def bilinear_form_matrix(kmap: ExtLinearMap) -> list:
    """Reshape a scalar-codomain two-slot covariant into its square matrix.

    A map with one output row over a pair of vector slots is the flattening
    of an N x N bilinear form; its table rank is the rank of that form.
    """
    if len(kmap.matrix) != 1 or kmap.domain_degrees != (1, 1):
        raise ValueError("expected a scalar-valued two-vector covariant")
    n = kmap.dim
    out = [[0] * n for _ in range(n)]
    for val, key in zip(kmap.matrix[0], kmap.col_keys):
        a = tuple_of(key[0])[0]
        b = tuple_of(key[1])[0]
        out[a - 1][b - 1] = val
    return out


def k_matrix_6(p: AltTensor) -> ExtLinearMap:
    """The traceless 6x6 quadratic covariant; squares to the quartic invariant."""
    if p.dim != 6 or p.degree != 3:
        raise ValueError("k_matrix_6 expects a three-form in six dimensions")
    return kappa_map(p, (1,))


def dual_trivector(p: AltTensor, k=None) -> AltTensor:
    """Cubic companion three-form: Ptilde_abc = sum_d P_bcd K^d_a.

    ``k`` may pass ``k_matrix_6(p)`` when the caller already has it.
    """
    if p.dim != 6 or p.degree != 3:
        raise ValueError("dual_trivector expects a three-form in six dimensions")
    kmat = (k_matrix_6(p) if k is None else k).matrix
    # P_bcd = (i_{bc} P)_d for b < c
    pairs = contractions(p, 2)
    terms = []
    for (a, b, c) in itertools.combinations(range(1, 7), 3):
        v = None
        ibc = pairs.get(mask_of((b, c)), {})
        for d in range(1, 7):
            kd = kmat[d - 1][a - 1]
            if not kd:
                continue
            pc = ibc.get(1 << (d - 1))
            if pc is None:
                continue
            term = pc * kd
            v = term if v is None else v + term
        if v is not None and v:
            terms.append(((a, b, c), v))
    return AltTensor.from_terms(6, 3, terms)


def _exact_sqrt(value):
    """Square root of an exact scalar inside the Gaussian rationals, or None."""
    def frac_sqrt(q: Fraction):
        if q < 0:
            return None
        num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
        if num * num != q.numerator or den * den != q.denominator:
            return None
        return Fraction(num, den)

    x, y = value.real, value.imag
    if y == 0:
        r = frac_sqrt(x)
        if r is not None:
            return GaussianRational(r)
        r = frac_sqrt(-x)
        if r is not None:
            return GaussianRational(0, r)
        return None
    # sqrt(x + iy) = u + iw with u^2 - w^2 = x, 2uw = y; needs x^2 + y^2 square
    norm = frac_sqrt(x * x + y * y)
    if norm is None:
        return None
    u = frac_sqrt((x + norm) / 2)
    if u is None or u == 0:
        return None
    return GaussianRational(u, y / (2 * u))


def freudenthal_dual(p: AltTensor) -> AltTensor:
    """Companion state -i Ptilde / sqrt(D); defined only when D is nonzero.

    In exact mode this needs the quartic invariant to be a perfect square in
    the Gaussian rationals; otherwise convert the state to float first.
    """
    from .invariants import quartic_d
    d = quartic_d(p)
    pt = dual_trivector(p)
    if p.mode == "float" or (pt.mode == "float"):
        dc = complex(d)
        if abs(dc) == 0.0:
            raise ZeroDivisionError("Freudenthal dual needs a nonzero quartic invariant")
        import cmath
        return pt.scale(-1j / cmath.sqrt(dc))
    if not d:
        raise ZeroDivisionError("Freudenthal dual needs a nonzero quartic invariant")
    root = _exact_sqrt(d)
    if root is None:
        raise ValueError("quartic invariant is not an exact square; use a float-mode state")
    return pt.scale(GaussianRational(0, -1) / root)


# ---------------------------------------------------------------------------
# seven dimensions


class SevenCovariants:
    """The quadratic pair-of-maps and derived square matrices in seven dims."""

    __slots__ = ("m_map", "n_matrix", "l_matrix", "b_matrix")

    def __init__(self, m_map: ExtLinearMap, n_matrix: list, l_matrix: list,
                 b_matrix: list):
        self.m_map = m_map          # 21 x 7, upper pair antisymmetric
        self.n_matrix = n_matrix    # 7 x 7 symmetric, cubic
        self.l_matrix = l_matrix    # 7 x 7 symmetric, quartic
        self.b_matrix = b_matrix    # -n_matrix / 6

    def m_component(self, a: int, b: int, c: int):
        """(M^a)^b_c with sign extension over the antisymmetric upper pair."""
        if a == b:
            return 0
        mmask = mask_of((min(a, b), max(a, b)))
        v = self.m_map.matrix[self.m_map.row_subsets.position[mmask]][c - 1]
        return -v if a > b else v


def seven_covariants(p: AltTensor) -> SevenCovariants:
    if p.dim != 7 or p.degree != 3:
        raise ValueError("seven_covariants expects a three-form in seven dimensions")
    m_map = kappa_map(p, (1,))
    nm = bilinear_form_matrix(kappa_map(p, (1, 1)))
    cov = SevenCovariants(m_map, nm, [], [])
    # mc[a][b][c] = m_component(a + 1, b + 1, c + 1), sign-extended once
    mc = [[[0] * 7 for _ in range(7)] for _ in range(7)]
    for mmask, row in zip(m_map.row_subsets.masks, m_map.matrix):
        a, b = tuple_of(mmask)
        mc[a - 1][b - 1] = row
        mc[b - 1][a - 1] = [-v for v in row]
    if _all_int(p):
        from .packed_covariants import l_matrix
        cov.l_matrix = l_matrix(mc)
    else:
        lm = [[0] * 7 for _ in range(7)]
        for a in range(7):
            for b in range(a, 7):
                v = 0
                for c in range(7):
                    for d in range(7):
                        x = mc[a][c][d]
                        if x:
                            y = mc[b][d][c]
                            if y:
                                v = v + x * y
                lm[a][b] = v
                lm[b][a] = v
        cov.l_matrix = lm
    if p.mode == "float":
        cov.b_matrix = [[-x / 6 for x in row] for row in nm]
    else:
        cov.b_matrix = [[-Fraction(1, 6) * x for x in row] for row in nm]
    return cov


# ---------------------------------------------------------------------------
# eight dimensions


class EightCovariants:
    """Cubic pair map, quadratic triple map and the derived square matrices."""

    __slots__ = ("f_map", "e_map", "g_matrix", "h_matrix", "fe_matrix")

    def __init__(self, f_map: ExtLinearMap, e_map: ExtLinearMap,
                 g_matrix: list, h_matrix: list, fe_matrix: list):
        self.f_map = f_map          # 8 x 64 (vector rows, ordered lower pairs)
        self.e_map = e_map          # 56 x 8 (triple rows)
        self.g_matrix = g_matrix    # 8 x 8 symmetric, degree 6
        self.h_matrix = h_matrix    # 8 x 8 symmetric, degree 10
        self.fe_matrix = fe_matrix  # 28 x 8 traced composite, degree 5


_PAIRS8 = list(itertools.combinations(range(8), 2))
_NPHI = len(_PAIRS8) * 64  # keys of Phi^a


@functools.lru_cache(maxsize=None)
def _eight_tables():
    """Index tables of the eight-mode contractions, built on first use.

    A Phi entry Phi^{a,kl}_{ij} (0-based, k < l) is keyed by the int
    (kl * 8 + i) * 8 + j, with kl the position of (k, l) in ``_PAIRS8``.
    ``e_rows[c]`` lists, for each triple row of E that holds c and in row
    order, ``(row, kl, negate)``: the rest pair of the row and whether
    merge_sign(c, kl) is negative.  ``swap[key]`` indexes the signed Phi
    lists of ``eight_covariants`` and ``packed_covariants``: key' for
    Phi^{b,ij}_{kl} with (i, j) sorted, key' + _NPHI for its negative when
    i > j, and 2 * _NPHI (never set) when i == j.
    """
    pair_pos = {pr: n for n, pr in enumerate(_PAIRS8)}
    e_rows = []
    for c in range(8):
        rows = []
        for row, mrow in enumerate(SubsetIndexer(8, 3).masks):
            if mrow >> c & 1:
                rest = mrow ^ (1 << c)
                k, l = (x - 1 for x in tuple_of(rest))
                rows.append((row, pair_pos[(k, l)], merge_sign(1 << c, rest) < 0))
        e_rows.append(rows)
    swap = []
    for kl, (k, l) in enumerate(_PAIRS8):
        for i in range(8):
            for j in range(8):
                if i == j:
                    swap.append(2 * _NPHI)
                else:
                    ij = pair_pos[(min(i, j), max(i, j))]
                    swap.append((ij * 8 + k) * 8 + l + (_NPHI if i > j else 0))
    return e_rows, swap


def eight_covariants(p: AltTensor) -> EightCovariants:
    """All eight-dimensional covariants in one pass.

    The degree-five composite is stored as the traced 28 x 8 matrix
    FE[{k<l}][i] = sum_{c,a} F^a_{ci} E^{ckl}_a; this is the contraction
    whose rank separates the class table (the untraced five-index object
    does not).
    """
    if p.dim != 8 or p.degree != 3:
        raise ValueError("eight_covariants expects a three-form in eight dimensions")
    f_map = kappa_map(p, (1, 1))
    e_map = kappa_map(p, (1,))
    cov = EightCovariants(f_map, e_map, [], [], [])
    fm, em = f_map.matrix, e_map.matrix
    if _all_int(p):
        from .packed_covariants import eight_matrices
        cov.g_matrix, cov.h_matrix, cov.fe_matrix = eight_matrices(fm, em)
        return cov
    e_rows, swap = _eight_tables()
    r8 = range(8)

    # G_ab = sum_{c,d} F^c_{ad} F^d_{bc}
    g = [[0] * 8 for _ in r8]
    for a in r8:
        for b in range(a, 8):
            v = 0
            for c in r8:
                fc = fm[c]
                for d in r8:
                    x = fc[8 * a + d]
                    if x:
                        y = fm[d][8 * b + c]
                        if y:
                            v = v + x * y
            g[a][b] = v
            g[b][a] = v
    cov.g_matrix = g

    # phi[a][key] = Phi^{a,kl}_{ij} = sum_c F^a_{ci} E^{ckl}_j over c in
    # ascending order, nonzero entries only; each dict keeps its keys in the
    # order of their first term, which fixes the order of the sums below
    e_nonzero = [[(j, ev) for j, ev in enumerate(row) if ev] for row in em]
    phi = []
    for a in r8:
        fa = fm[a]
        acc = [None] * _NPHI
        first = []
        for c in r8:
            rows = e_rows[c]
            for i in r8:
                v = fa[8 * c + i]
                if not v:
                    continue
                for row, kl, negate in rows:
                    base = (kl * 8 + i) * 8
                    for j, ev in e_nonzero[row]:
                        term = -(v * ev) if negate else v * ev
                        key = base + j
                        cur = acc[key]
                        if cur is None:
                            acc[key] = term
                            first.append(key)
                        else:
                            acc[key] = cur + term
        phi.append({key: acc[key] for key in first if acc[key]})

    # H_ab = sum Phi^{a,kl}_{ij} Phi^{b,ij}_{kl}, the upper pair
    # sign-extended.  Summing over sorted upper pairs only halves the full
    # contraction, hence the factor two.  signed[b][swap[key]] is the
    # signed Phi^b entry that pairs with key, None where Phi^b has none.
    signed = []
    for b in r8:
        sb = [None] * (2 * _NPHI + 1)
        for key, w in phi[b].items():
            sb[key] = w
            sb[key + _NPHI] = -w
        signed.append(sb)
    h = []
    for a in r8:
        vs = list(phi[a].values())
        pos = list(map(swap.__getitem__, phi[a]))
        ha = []
        for sb in signed:
            t = 0
            for v, w in zip(vs, map(sb.__getitem__, pos)):
                if w is not None:
                    t = t + 2 * (v * w)
            ha.append(t)
        h.append(ha)
    cov.h_matrix = h

    fe = [[0] * 8 for _ in _PAIRS8]
    for a in r8:
        for key, v in phi[a].items():
            if key % 8 == a:
                fe[key // 64][key // 8 % 8] += v
    cov.fe_matrix = fe
    return cov


# ---------------------------------------------------------------------------
# nine dimensions


_TRIPLES9 = list(itertools.combinations(range(1, 10), 3))
_TRIPLE_POS = {mask_of(t): i for i, t in enumerate(_TRIPLES9)}


@functools.lru_cache(maxsize=None)
def _t_tables():
    """Sign tables of the T contraction, built on first use.

    ``vec_pair[(m1, m2)]`` is the merge sign of a vector and a disjoint pair;
    ``completions[m12]`` lists, for each triple m3 disjoint from the triple
    m12, ``(m3, row, negate)``: the row of the complementary triple u and
    whether merge_sign(m12, m3) * merge_sign(u, m12 | m3) is negative.
    """
    full = (1 << 9) - 1
    masks = list(_TRIPLE_POS)
    vec_pair = {}
    for f in range(9):
        for pr in itertools.combinations(range(1, 10), 2):
            m2 = mask_of(pr)
            if not m2 >> f & 1:
                vec_pair[(1 << f, m2)] = merge_sign(1 << f, m2)
    completions = {}
    for m12 in masks:
        out = []
        for m3 in masks:
            if m12 & m3:
                continue
            v6 = m12 | m3
            u = full ^ v6
            out.append((m3, _TRIPLE_POS[u],
                        merge_sign(m12, m3) * merge_sign(u, v6) < 0))
        completions[m12] = out
    return vec_pair, completions


def t_matrix_rows(p: AltTensor) -> list:
    """Raw 84 x 84 rows of the cubic endomorphism of three-vectors.

    Columns are indexed by sorted lower triples; the lower indices are
    antisymmetrized over the (pair, vector) argument slots so that matrix
    powers reproduce the trace invariants with their standard normalization.
    Rows and columns follow the lexicographic order of
    ``itertools.combinations(range(1, 10), 3)``.  For an
    exact P, T = C . W is one packed product (:func:`_zmul`) of the
    quadratic W[m12][col], the weighted w12 sums of the column's argument
    slots, by the linear C[row][m12] = +-P[m3]; a float P adds T up term by
    term.
    """
    if p.dim != 9 or p.degree != 3:
        raise ValueError("t_matrix expects a three-form in nine dimensions")
    vec_pair, completions = _t_tables()
    amp = p.masks()
    by_vec = contractions(p, 1)
    by_pair = contractions(p, 2)

    # partners[m1, f]: (m1 | m2, i_f P at m2, sign) for each pair m2 of
    # i_f P disjoint from the vector m1, in the order of i_f P
    partners = {(1 << e, f): [(1 << e | m2, v2, vec_pair[(1 << e, m2)] < 0)
                              for m2, v2 in by_vec.get(1 << (f - 1), {}).items()
                              if not m2 >> e & 1]
                for e in range(9) for f in range(1, 10)}

    def w12_sums(pairmask, f):
        w12 = {}
        for m1, v1 in by_pair.get(pairmask, {}).items():
            for m, v2, negate in partners[(m1, f)]:
                term = v1 * v2
                if negate:
                    term = -term
                cur = w12.get(m)
                w12[m] = term if cur is None else cur + term
        return w12

    slots = [(col, weight, w12_sums(mask_of(pair), f))
             for col, (w1, w2, w3) in enumerate(_TRIPLES9)
             for pair, f, weight in (((w1, w2), w3, 2), ((w1, w3), w2, -2),
                                     ((w2, w3), w1, 2))]
    if p.mode == "float":
        mat = [[0] * 84 for _ in range(84)]
        # each entry of T gets at most one term per m12, so the order of
        # the completions m3 does not change any sum
        for col, weight, w12 in slots:
            for m12, v12 in w12.items():
                for m3, r, negate in completions[m12] if v12 else ():
                    if (v3 := amp.get(m3)) is not None:
                        term = v12 * v3
                        mat[r][col] += weight * (-term if negate else term)
        return mat
    w = [[0] * 84 for _ in range(84)]
    for col, weight, w12 in slots:
        for m12, v12 in w12.items():
            w[_TRIPLE_POS[m12]][col] += weight * v12
    c = [[0] * 84 for _ in range(84)]
    for m12, k in _TRIPLE_POS.items():
        for m3, r, negate in completions[m12]:
            if (v3 := amp.get(m3)) is not None:
                c[r][k] = -v3 if negate else v3
    (cp, cden), (wp, wden) = _integer_parts(c), _integer_parts(w)
    tm, den = _zmul(cp, wp), cden * wden
    if den == 1 and len(tm) == 1:
        return tm[0]
    return [[normal_form(GaussianRational(*(quotient(v, den) for v in vs)))
             for vs in zip(*rows)] for rows in zip(*tm)]


def matmul(a, b):
    """Dense product of square list-matrices, skipping zero entries."""
    n = len(a)
    out = []
    for row in a:
        acc = [0] * n
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                acc = [u + x * v for u, v in zip(acc, brow)]
        out.append(acc)
    return out


def trace_product(a, b):
    """Tr(a . b) without forming the product."""
    total = 0
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x:
                y = b[j][i]
                if y:
                    total = total + x * y
    return total


# a product row that takes at most this many times n nonzero entry products
# is accumulated term by term: that is cheaper than packing and decoding it
_SPARSE_TERMS = 2
_BIG_ENDIAN = sys.byteorder == "big"


def _words(buf, code):
    words = array(code, buf)
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def _codec(bound, n):
    """(pack, decode) for rows of ``n`` ints in slots that hold ``bound``.

    pack(row) is the one int sum_j row[j] 2^(64 m j), whose slots of m
    64-bit words hold any signed value within ``bound``.  decode takes a
    sum of int multiples of packed rows back to its list of entries, each
    of which must lie within ``bound``: adding 2^(64m-1) to every slot
    settles each slot's borrow from the one below, and xor-ing that offset
    out again leaves each entry as its own two's complement slot, read in
    bulk from the bytes.
    """
    m = (bound.bit_length() + 64) // 64  # one more bit for the sign
    size = 8 * m * n
    offset = int.from_bytes((1 << (64 * m - 1)).to_bytes(8 * m, "little") * n,
                            "little")

    def pack(row):
        if not any(row):
            return 0
        if m == 1:
            words = array("q", row)
            if _BIG_ENDIAN:
                words.byteswap()
            buf = words.tobytes()
        else:
            buf = b"".join([v.to_bytes(8 * m, "little", signed=True) for v in row])
        return (int.from_bytes(buf, "little") ^ offset) - offset

    def decode(acc):
        if not acc:
            return [0] * n
        buf = ((acc + offset) ^ offset).to_bytes(size, "little")
        top = _words(buf, "q")
        if m == 1:
            return top.tolist()
        low = _words(buf, "Q")
        out = top[m - 1::m].tolist()
        for t in range(m - 2, -1, -1):
            out = [(v << 64) | w for v, w in zip(out, low[t::m])]
        return out

    return pack, decode


def _support(m):
    """The columns of the nonzero entries of ``m``, row by row."""
    n = len(m)
    cols = range(n)
    return [list(itertools.compress(cols, row)) if row.count(0) < n else []
            for row in m]


def packed_matmul(a, b):
    """a . b for square matrices of Python ints, by Kronecker substitution.

    Row i of the product is sum_k a[i][k] b[k].  When that takes more than
    ``_SPARSE_TERMS * n`` nonzero entry products, it is one sum of
    ``a[i][k] * packed[k]`` big-int terms, decoded once (see
    :func:`_codec`, for the bound n max|a| max|b| of an entry); a sparser
    row is accumulated term by term over the nonzero entries.  The entries
    are exactly those of :func:`matmul`.
    """
    n = len(b)
    picks = _support(a)
    if not any(picks):
        return [[0] * n for _ in a]
    support = picks if b is a else _support(b)
    terms = [len(s) for s in support]
    dense = [sum(map(terms.__getitem__, ks)) > _SPARSE_TERMS * n for ks in picks]
    if any(dense):
        amax = max(max(max(row), -min(row)) for row in itertools.compress(a, dense))
        bmax = max(max(max(row), -min(row)) for row in b)
        pack, decode = _codec(n * amax * bmax, n)
        packed = list(map(pack, b))
    out = []
    for row, ks, packs in zip(a, picks, dense):
        if packs:
            out.append(decode(sum(map(operator.mul, row, packed))))
            continue
        acc = [0] * n
        for k in ks:
            x, brow = row[k], b[k]
            for j in support[k]:
                acc[j] += x * brow[j]
        out.append(acc)
    return out


def _integer_parts(tm):
    """((re,) or (re, im), den): integer matrices with tm = (re + i im) / den.

    ``None`` for a matrix with a float or complex entry.  Only a matrix
    with a :class:`GaussianRational` entry gets an imaginary part.
    """
    kinds = set(map(type, itertools.chain.from_iterable(tm)))
    if kinds <= {int}:
        return (tm,), 1
    if kinds & {float, complex}:
        return None
    parts = [[[x.real for x in row] for row in tm]]
    if GaussianRational in kinds:
        parts.append([[x.imag for x in row] for row in tm])
    den = math.lcm(*{q.denominator for part in parts for row in part for q in row})
    return tuple([[q.numerator * (den // q.denominator) for q in row] for row in part]
                 for part in parts), den


def _zmul(x, y):
    """x . y for integer matrices given as (re,) or (re, im) parts.

    A real factor takes one packed product per part of the other.  A
    Gaussian product takes three packed real products (Karatsuba):
    re = xr yr - xi yi and im = (xr + xi)(yr + yi) - xr yr - xi yi.
    """
    if len(x) == 1 or len(y) == 1:
        return tuple(packed_matmul(a, b) for a in x for b in y)
    (xr, xi), (yr, yi) = x, y
    rr = packed_matmul(xr, yr)
    ii = packed_matmul(xi, yi)
    ss = packed_matmul([list(map(operator.add, u, v)) for u, v in zip(xr, xi)],
                       [list(map(operator.add, u, v)) for u, v in zip(yr, yi)])
    return ([list(map(operator.sub, u, v)) for u, v in zip(rr, ii)],
            [[s - u - v for s, u, v in zip(*rows)] for rows in zip(ss, rr, ii)])


def _ztrace(x, y=None):
    """Tr(x) or Tr(x . y) for parts as in :func:`_zmul`, as (re,) or (re, im)."""
    if y is None:
        return tuple(sum(row[i] for i, row in enumerate(u)) for u in x)
    if len(x) == 1:
        return (trace_product(x[0], y[0]),)
    (xr, xi), (yr, yi) = x, y
    return (trace_product(xr, yr) - trace_product(xi, yi),
            trace_product(xr, yi) + trace_product(xi, yr))


def t_power_traces(tm: list) -> dict:
    """Traces of the needed powers of the 84 x 84 endomorphism.

    Returns {n: Tr T^n} for n in 1..4, 6, 8, 10; vanishing of the odd and
    n = 2 traces is an identity of the construction and is asserted by the
    invariant layer rather than assumed.  An exact T is cleared to integer
    matrices, T = (A + iB) / d, whose powers run through
    :func:`packed_matmul`; each trace comes back divided by d^n in the exact
    normal form.  A float T runs through :func:`matmul`.
    """
    split = _integer_parts(tm)
    if split is not None:
        t, den = split
        a = _zmul(t, t)
        b = _zmul(a, a)
        c = _zmul(b, a)
        traces = {1: _ztrace(t), 2: _ztrace(a), 3: _ztrace(a, t), 4: _ztrace(b),
                  6: _ztrace(b, a), 8: _ztrace(b, b), 10: _ztrace(c, b)}
        return {n: normal_form(GaussianRational(*(quotient(v, den ** n) for v in tr)))
                for n, tr in traces.items()}
    a = matmul(tm, tm)
    b = matmul(a, a)
    c = matmul(b, a)
    return {
        1: sum(tm[i][i] for i in range(84)),
        2: sum(a[i][i] for i in range(84)),
        3: trace_product(a, tm),
        4: sum(b[i][i] for i in range(84)),
        6: trace_product(b, a),
        8: trace_product(b, b),
        10: trace_product(c, b),
    }
