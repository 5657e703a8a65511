"""Seven- and eight-mode covariants of an int state as packed integer products.

The classifiers read the integer representative of an exact state, whose
coefficients are all ints.  There the kappa maps (1,) and (1, 1), L, G, H
and FE of :mod:`trivec.covariants` are exact sums, so they are regrouped
here: each i_b P ^ P is formed once, and a short index is packed into the
slots of one int (:func:`~trivec.covariants._codec`), so one multiply-add
serves every value of it.  The entries, and their types, are those of the
term walk that float, Fraction and Gaussian states keep.  ``kappa_map``,
``seven_covariants`` and ``eight_covariants`` import this module on first
use, so commands on six or nine modes do not compile it.
"""

from __future__ import annotations

import functools

from .covariants import _NPHI, _PAIRS8, _codec, _eight_tables, _wedge_with
from .exterior import SubsetIndexer, merge_sign, submasks


@functools.lru_cache(maxsize=None)
def _kappa_tables(n: int) -> tuple:
    """Sign tables of the maps (1,) and (1, 1) in n = 7 or 8 modes, built
    on first use.

    ``one[r]`` is ``(mq, negate)`` for row r of the (1,) map: the
    five-mask complement of the row and whether star negates the row.
    ``two[ma]`` lists, for each row r of the (1, 1) map whose mask is
    disjoint from the pair ma, ``(r, mq, negate)``: the five-mask mq that
    completes ma to the complement of row r, and whether merge_sign(ma, mq)
    times the sign star gives row r is negative.
    """
    full = (1 << n) - 1
    one = [(full ^ rm, merge_sign(rm, full ^ rm) < 0)
           for rm in SubsetIndexer(n, n - 5).masks]
    two = {}
    for r, rm in enumerate(SubsetIndexer(n, n - 7).masks):
        comp = full ^ rm
        for ma in submasks(comp, 2):
            two.setdefault(ma, []).append(
                (r, comp ^ ma, merge_sign(rm, comp) * merge_sign(ma, comp ^ ma) < 0))
    return one, two


def kappa_matrix(p, by_vec: dict, degrees: tuple, rows: SubsetIndexer) -> list:
    """Matrix of ``kappa_map(p, degrees)`` for degrees (1,) or (1, 1).

    ``by_vec`` is ``contractions(p, 1)``.  i_b P is packed over b at each
    pair, so one wedge with P gives every i_b P ^ P packed over b: the
    (1,) column b is its star, and (i_a P ^ i_b P) ^ P is regrouped as
    i_a P ^ (i_b P ^ P), so each present term of i_a P takes one multiply
    for all b.
    """
    n = p.dim
    top = max(map(abs, p.masks().values()), default=0)
    # an entry of i_b P ^ P sums at most 10 terms, one of the (1, 1) map
    # at most 21 of those
    pack, decode = _codec(10 * top ** 2 if degrees == (1,) else 210 * top ** 3, n)
    vecs = [by_vec.get(1 << b, {}) for b in range(n)]
    packed = _wedge_with({m: pack([v.get(m, 0) for v in vecs])
                          for m in set().union(*vecs)}, p)
    one, two = _kappa_tables(n)
    if degrees == (1,):
        mat = []
        for mq, negate in one:
            row = decode(packed.get(mq, 0))
            mat.append([-v for v in row] if negate else row)
        return mat
    acc = [[0] * n for _ in rows.masks]
    for a in range(n):
        for ma, va in by_vec.get(1 << a, {}).items():
            for r, mq, negate in two[ma]:
                if w := packed.get(mq):
                    acc[r][a] += -(va * w) if negate else va * w
    return [[v for x in row for v in decode(x)] for row in acc]


def l_matrix(mc: list) -> list:
    """L of ``seven_covariants`` from the sign-extended M^{ab}_c,
    ``mc[a][b][c]``: row a is sum_{c,d} M^{ac}_d (M^{bd}_c over b)."""
    r7 = range(7)
    top = max(abs(x) for plane in mc for row in plane for x in row)
    pack, decode = _codec(49 * top ** 2, 7)
    mb = [[pack([mc[b][d][c] for b in r7]) for c in r7] for d in r7]
    return [decode(sum(x * mb[d][c] for c in r7 for d, x in enumerate(mc[a][c]) if x))
            for a in r7]


def eight_matrices(fm: list, em: list) -> tuple:
    """(G, H, FE) of ``eight_covariants`` from the F and E matrices.

    F^a_{bc} = F^a_{cb}, as i_b P and i_c P are two-forms that commute, so
    row a of F packed over its second slot (``fb[a][b]``) is also packed
    over its first.  G and FE sum int multiples of those.  Phi^{a,kl}_{ij}
    is packed over a, so its signed partners at ``swap`` are Phi^b packed
    over b, and H_ab = 2 sum_{c,i} F^a_{ci} R^b_{ci} with R^b_{ci} =
    sum +-E^{ckl}_j Phi^{b,ij}_{kl}: Phi is never unpacked.
    """
    e_rows, swap = _eight_tables()
    r8 = range(8)
    ftop = max(max(map(abs, row)) for row in fm)
    etop = max(max(map(abs, row)) for row in em)
    # |G| <= 64 ftop^2 and |FE| <= 48 ftop etop; |Phi| <= 6 ftop etop
    pack, unpack = _codec(64 * ftop * max(ftop, etop), 8)
    fb = [[pack(row[8 * b:8 * b + 8]) for b in r8] for row in fm]
    g = [unpack(sum(x * fb[d][c] for c in r8
                    for d, x in enumerate(fm[c][8 * a:8 * a + 8]) if x)) for a in r8]
    # the E rows of each c that have a nonzero entry, with those entries
    live = [[(kl, negate, nz) for row, kl, negate in e_rows[c]
             if (nz := [(j, ev) for j, ev in enumerate(em[row]) if ev])] for c in r8]
    fe = [0] * len(_PAIRS8)
    for c in r8:
        for kl, negate, nz in live[c]:
            t = sum(ev * fb[a][c] for a, ev in nz)
            fe[kl] += -t if negate else t
    pack, decode = _codec(2 * _NPHI * (6 * ftop * etop) ** 2, 8)
    # the nonzero columns of F, each packed over its row a
    cols = [(ci, fa) for ci in range(64) if (fa := pack([row[ci] for row in fm]))]
    phi = [0] * _NPHI
    for ci, fa in cols:
        c, i = divmod(ci, 8)
        for kl, negate, nz in live[c]:
            f = -fa if negate else fa
            base = (kl * 8 + i) * 8
            for j, ev in nz:
                phi[base + j] += f * ev
    signed = phi + [-w for w in phi] + [0]
    partner = list(map(signed.__getitem__, swap))
    r = [0] * 64
    for ci, _ in cols:
        c, i = divmod(ci, 8)
        for kl, negate, nz in live[c]:
            base = (kl * 8 + i) * 8
            t = 0
            for j, ev in nz:
                t += ev * partner[base + j]
            r[ci] += -t if negate else t
    h = [decode(2 * sum(x * w for x, w in zip(row, r) if x)) for row in fm]
    return g, h, [unpack(x) for x in fe]
