"""The packed integer seven- and eight-mode covariants against the term walk.

A state whose coefficients are all ints, as the classifiers' integer
representative is, takes the packed products of ``trivec.packed_covariants``;
the same state with the int gate switched off takes the term walk that
float, Fraction and Gaussian states keep.  Both must give the same entries
of the same types.
"""

import itertools
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import trivec.covariants
import trivec.packed_covariants
from trivec.classify import TABLE2, TABLE3
from trivec.covariants import eight_covariants, kappa_map, seven_covariants
from trivec.exterior import AltTensor, canonical_state, slocc_apply
from trivec.oracle import random_invertible, random_state, random_unimodular
from trivec.scalars import GaussianRational

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the property below needs it
    st = None


def _int_states(dim):
    """Canonical rows, unimodular-moved copies, representatives of
    rational-moved copies and dense random states, all with int
    coefficients."""
    out = []
    for label in sorted(set((TABLE2 if dim == 7 else TABLE3).values())):
        p = canonical_state(dim, label)
        if not trivec.covariants._all_int(p):
            continue  # a Gaussian row: its copies are not int either
        out += [p, slocc_apply(random_unimodular(dim, 5), p),
                slocc_apply(random_invertible(dim, 7), p).representative()[0]]
    return out + [random_state(dim, s) for s in (1, 2)]


def _walked(monkeypatch, fn, p):
    with monkeypatch.context() as m:
        m.setattr(trivec.covariants, "_all_int", lambda q: False)
        return fn(p)


def _same(got, want):
    """Equal entry for entry and type for type."""
    assert got == want
    assert [type(x) for x in itertools.chain(*got)] == \
        [type(x) for x in itertools.chain(*want)]


def _same_map(got, want):
    _same(got.matrix, want.matrix)
    assert got.col_keys == want.col_keys
    assert got.row_subsets.masks == want.row_subsets.masks
    assert ((got.dim, got.domain_degrees, got.codomain_degree, got.det_weight)
            == (want.dim, want.domain_degrees, want.codomain_degree,
                want.det_weight))


def _check(monkeypatch, p):
    for degrees in ((1,), (1, 1)):
        _same_map(kappa_map(p, degrees),
                  _walked(monkeypatch, lambda q: kappa_map(q, degrees), p))
    if p.dim == 7:
        got, want = seven_covariants(p), _walked(monkeypatch, seven_covariants, p)
        _same_map(got.m_map, want.m_map)
        for name in ("n_matrix", "l_matrix", "b_matrix"):
            _same(getattr(got, name), getattr(want, name))
    else:
        got, want = eight_covariants(p), _walked(monkeypatch, eight_covariants, p)
        _same_map(got.f_map, want.f_map)
        _same_map(got.e_map, want.e_map)
        for name in ("g_matrix", "h_matrix", "fe_matrix"):
            _same(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("dim", [7, 8])
def test_int_maps_equal_the_term_walk(monkeypatch, dim):
    states = _int_states(dim)
    assert len(states) > 10 and all(map(trivec.covariants._all_int, states))
    for p in states:
        _check(monkeypatch, p)


def test_int_maps_of_the_zero_state(monkeypatch):
    for dim in (7, 8):
        _check(monkeypatch, AltTensor.zero(dim, 3))


def test_wide_slots_equal_the_term_walk(monkeypatch):
    # coefficients past 2^60 need slots of several 64-bit words
    for dim in (7, 8):
        p = random_state(dim, 3, density=0.5)
        _check(monkeypatch, p.scale(2 ** 61 + 1))
        _check(monkeypatch, AltTensor(dim, 3, {m: v * 3 ** 50 + v
                                               for m, v in p.masks().items()}))


def test_float_fraction_and_gaussian_states_keep_the_term_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("packed product on a state that is not all int")

    for name in ("kappa_matrix", "l_matrix", "eight_matrices"):
        monkeypatch.setattr(trivec.packed_covariants, name, refuse)
    for dim in (7, 8):
        p = random_state(dim, 4, density=0.3)
        real = AltTensor(dim, 3, {m: float(v) for m, v in p.masks().items()})
        for q in (p.to_float(), real, p.scale(Fraction(1, 2)),
                  p.scale(GaussianRational(1, 1))):
            (seven_covariants if dim == 7 else eight_covariants)(q)


def test_six_mode_classify_loads_no_seven_or_eight_mode_code(tmp_path):
    path = tmp_path / "ghz.json"
    code = (
        "import contextlib, io, sys\n"
        "import trivec.cli\n"
        "from trivec import covariants as c\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    trivec.cli.main(['canonical', '--dim', '6', '--class', 'GHZ',"
        " '--out', sys.argv[1]])\n"
        "    trivec.cli.main(['classify', '--input', sys.argv[1]])\n"
        "print('trivec.packed_covariants' in sys.modules,"
        " [f.cache_info().currsize for f in (c._eight_tables, c._t_tables)])\n")
    src = os.path.dirname(os.path.dirname(trivec.covariants.__file__))
    out = subprocess.run([sys.executable, "-c", code, str(path)], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "False [0, 0]"


@pytest.mark.parametrize("table,args", [
    (trivec.packed_covariants._kappa_tables, (7,)),
    (trivec.packed_covariants._kappa_tables, (8,)),
    (trivec.covariants._eight_tables, ())])
def test_each_table_builds_in_ten_ms(table, args):
    best = None
    for _ in range(3):
        table.cache_clear()
        t = time.process_time()
        table(*args)
        dt = time.process_time() - t
        best = dt if best is None else min(best, dt)
    assert best <= 0.010


if st is not None:
    @st.composite
    def int_states(draw):
        """A sparse or dense seven- or eight-mode state with small or wide
        int coefficients."""
        dim = draw(st.sampled_from([7, 8]))
        triples = list(itertools.combinations(range(1, dim + 1), 3))
        coeffs = st.integers(-4, 4) | st.integers(-2 ** 70, 2 ** 70)
        if draw(st.booleans()):
            values = draw(st.lists(coeffs, min_size=len(triples),
                                   max_size=len(triples)))
            terms = zip(triples, values)
        else:
            terms = draw(st.lists(st.tuples(st.sampled_from(triples), coeffs),
                                  max_size=8))
        return AltTensor.from_terms(dim, 3, [(t, v) for t, v in terms if v])

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(int_states())
    def test_int_maps_equal_the_term_walk_on_any_int_state(p):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _check(monkeypatch, p)
