import itertools
import math
import random
from fractions import Fraction

import pytest

from trivec.covariants import t_matrix_rows
from trivec.exterior import GroupElement, canonical_state
from trivec.oracle import random_invertible
from trivec.scalars import (GaussianRational, TolerancePolicy, _bareiss,
                            _content_free, _householder_diagonal,
                            _pivoted_qr_diagonal, determinant, float_rank,
                            hermitian_eigensystem, hermitian_eigenvalues,
                            invariant_is_zero, is_exact, normal_form,
                            pfaffian, quotient, rank, row_reduce,
                            zero_threshold)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the property on int matrices needs it
    st = None


def test_gaussian_rational_basic_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    b = GaussianRational(2, 1)
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(1, 4))
    assert a * b == GaussianRational(Fraction(7, 4), -1)
    assert (a * b) / b == a
    assert -a + a == GaussianRational(0)
    assert a.conjugate().im == Fraction(3, 4)
    assert (a * a.conjugate()).re == a.norm_sq()
    assert GaussianRational(0, 1) ** 2 == -1
    # every scalar answers the number protocol alike
    for x, parts in ((a, (Fraction(1, 2), Fraction(-3, 4))), (3, (3, 0)),
                     (Fraction(1, 3), (Fraction(1, 3), 0)), (1.5 - 2j, (1.5, -2.0))):
        assert (x.real, x.imag) == parts
        assert (x.conjugate().real, x.conjugate().imag) == (parts[0], -parts[1])
    with pytest.raises(AttributeError):
        a.real = 1


def test_gaussian_rational_accepts_ints_and_fractions():
    a = GaussianRational(1, 1)
    assert a + 1 == GaussianRational(2, 1)
    assert 2 * a == GaussianRational(2, 2)
    assert a - Fraction(1, 2) == GaussianRational(Fraction(1, 2), 1)


def test_mixed_mode_arithmetic_is_an_error():
    a = GaussianRational(1, 1)
    with pytest.raises(TypeError):
        a + 0.5
    with pytest.raises(TypeError):
        a * 1j
    with pytest.raises(TypeError):
        0.5 + a


def test_gaussian_parts_are_ints_when_integral():
    a = GaussianRational(Fraction(4, 2), Fraction(-3))
    assert type(a.re) is int and type(a.im) is int and (a.re, a.im) == (2, -3)
    half = GaussianRational(Fraction(1, 2), 1)
    assert type(half.re) is Fraction and type(half.im) is int
    # Gaussian-integer arithmetic stays on ints
    b = GaussianRational(1, 2) * GaussianRational(3, -1) + 4 - GaussianRational(0, 1)
    assert (b.re, b.im) == (9, 4) and type(b.re) is int and type(b.im) is int
    # a Fraction result that comes out integral becomes an int
    c = half * 2 + Fraction(1, 2) - Fraction(1, 2)
    assert (c.re, c.im) == (1, 2) and type(c.re) is int
    assert type(half.norm_sq()) is Fraction and type(b.norm_sq()) is int
    assert type((b ** 3).re) is int


def test_gaussian_division_is_exact_in_z_i():
    z = GaussianRational(5, 5) / GaussianRational(1, 2)
    assert (z.re, z.im) == (3, -1) and type(z.re) is int and type(z.im) is int
    w = GaussianRational(1, 0) / GaussianRational(1, 1)
    assert (w.re, w.im) == (Fraction(1, 2), Fraction(-1, 2))
    assert type(w.re) is Fraction and type(w.im) is Fraction
    q = GaussianRational(6, 3) / 3
    assert (q.re, q.im) == (2, 1) and type(q.re) is int
    r = GaussianRational(7, 3) / 2
    assert (r.re, r.im) == (Fraction(7, 2), Fraction(3, 2))
    assert 1 / GaussianRational(0, 2) == GaussianRational(0, Fraction(-1, 2))
    assert GaussianRational(Fraction(1, 3), 1) / Fraction(1, 3) == GaussianRational(1, 3)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 1) / GaussianRational(0)


def is_normal(x):
    """True when x is an int, a Fraction that is not integral, or a
    GaussianRational with a nonzero imaginary part."""
    t = type(x)
    return (t is int or (t is Fraction and x.denominator != 1)
            or (t is GaussianRational and x.im != 0))


def test_normal_form_of_exact_scalars():
    cases = [(GaussianRational(Fraction(1, 2), 0), Fraction(1, 2)),
             (GaussianRational(3), 3), (Fraction(4, 2), 2), (Fraction(-1, 3), Fraction(-1, 3)),
             (GaussianRational(1, -1), GaussianRational(1, -1)), (7, 7), (True, 1)]
    for x, want in cases:
        got = normal_form(x)
        assert got == want and type(got) is type(want) and is_normal(got), x
    for x in (0.5, 2.0, 1 + 2j, 3j):
        assert normal_form(x) is x


def test_quotient_returns_the_normal_form():
    cases = [((6, 3), 2), ((1, 2), Fraction(1, 2)), ((-9, 6), Fraction(-3, 2)),
             ((Fraction(4, 3), Fraction(2, 3)), 2),
             ((Fraction(1, 2), 1), Fraction(1, 2)), ((Fraction(6, 1), 1), 6),
             ((GaussianRational(4, 2), 2), GaussianRational(2, 1)),
             ((GaussianRational(6, 0), 4), Fraction(3, 2)),
             ((GaussianRational(2, 2), GaussianRational(1, 1)), 2),
             ((GaussianRational(Fraction(1, 2), 3), GaussianRational(0, 1)),
              GaussianRational(3, Fraction(-1, 2))),
             ((GaussianRational(5, 5), 1), GaussianRational(5, 5)),
             ((0, Fraction(3, 7)), 0)]
    for (x, n), want in cases:
        got = quotient(x, n)
        assert got == want and type(got) is type(want) and is_normal(got), (x, n)
    # floats and complexes pass through as x / n, bit for bit
    for x, n in ((1.0, 3), (2.5, 1), (1 + 2j, 3), (-0.0 + 1j, 1), (0.1, 7.0)):
        got = quotient(x, n)
        assert type(got) is type(x / n) and repr(got) == repr(x / n), (x, n)


def test_gaussian_equality_hash_and_str_do_not_see_the_part_type():
    # the same values as the Fraction parts every GaussianRational once had
    for re, im in ((3, 4), (3, -4), (Fraction(1, 2), 1), (0, Fraction(-2, 3)),
                   (5, 0), (0, 0)):
        z = GaussianRational(re, im)
        old = (Fraction(re), Fraction(im))
        assert z == GaussianRational(*old)
        assert hash(z) == (hash(old[0]) if not im else hash(old))
        sign = "+" if old[1] >= 0 else ""
        assert str(z) == (str(old[0]) if not im else f"({old[0]}{sign}{old[1]}i)")
    assert GaussianRational(5) == 5 == Fraction(5)
    assert hash(GaussianRational(5)) == hash(5) == hash(Fraction(5))
    assert {GaussianRational(Fraction(5)): 1}[5] == 1


def test_the_one_zero_rule():
    # the form of the literals it replaced, and their comparison direction
    for scale in (0.0, 1e-310, 0.7, 3.0, math.inf):
        for degree in (1, 4, 30):
            assert zero_threshold(scale, degree, 1e-8) == 1e-8 * max(scale, 1e-300) ** degree
    assert invariant_is_zero(0, 1.0, 4, 1e-8)
    assert not invariant_is_zero(Fraction(1, 10 ** 40), 1.0, 4, 1e-8)
    assert invariant_is_zero(1e-8 + 0j, 1.0, 1, 1e-8)
    assert not invariant_is_zero(math.nan, 1.0, 1, 1e-8)


def _brute_rank(m):
    """Rank via minor enumeration, for small exact matrices."""
    nr = len(m)
    nc = len(m[0]) if m else 0
    for k in range(min(nr, nc), 0, -1):
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                sub = [[m[r][c] for c in cols] for r in rows]
                if determinant(sub):
                    return k
    return 0


def test_rank_matches_minor_enumeration():
    rng = random.Random(1)
    for _ in range(40):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(nc)] for _ in range(nr)]
        if rng.random() < 0.5 and nr > 1:
            m[-1] = [2 * x for x in m[0]]  # force a dependency sometimes
        want = _brute_rank(m)
        assert rank(m) == want
        assert rank([[float(x) for x in row] for row in m]) == want
    # integral matrices, whose row and column gcds rank divides out first:
    # planted factors, zero rows and columns (gcd 0), rectangular shapes
    rng = random.Random(2)
    factors = (1, -1, 6, -35, 2 ** 31 - 1, 3 * 2 ** 40)
    for trial in range(100):
        gaussian = trial % 2 == 1
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)

        def entry():
            if gaussian:
                return GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            return rng.randint(-3, 3)

        # a product through k <= min(nr, nc) dimensions, often fewer, so
        # that a wrongly scaled entry shows as a change of rank
        k = rng.randint(1, min(nr, nc))
        a = [[entry() for _ in range(k)] for _ in range(nr)]
        b = [[entry() for _ in range(nc)] for _ in range(k)]
        m = [[sum((x * y for x, y in zip(row, col)), 0) for col in zip(*b)]
             for row in a]
        for row in m:
            f = rng.choice(factors)
            row[:] = [f * x for x in row]
        for c in range(nc):
            f = rng.choice(factors)
            for row in m:
                row[c] *= f
        if rng.random() < 0.3:
            m[rng.randrange(nr)] = [0] * nc
        if rng.random() < 0.3:
            c = rng.randrange(nc)
            for row in m:
                row[c] = 0
        want = _brute_rank(m)
        assert rank(m) == want
        assert _brute_rank(_content_free(m, gaussian)) == want


def test_content_free_leaves_unit_gcds():
    m = [[6, -12, 0, 18], [0, 0, 0, 0], [10, 20, 0, -40]]
    # row gcds 6, 0, 10, then column gcds 1, 2, 0, 1
    assert _content_free(m, False) == [[1, -1, 0, 3], [0, 0, 0, 0], [1, 1, 0, -4]]
    g = [[GaussianRational(4, 6), 2], [GaussianRational(0, 8), 0]]
    assert _content_free(g, True) == [[GaussianRational(2, 3), 1],
                                      [GaussianRational(0, 1), 0]]


def test_is_exact_types():
    for x in (0, 3, True, Fraction(1, 3), GaussianRational(1, 2)):
        assert is_exact(x)
    for x in (0.0, 1j, 2.5 + 0j, float("nan")):
        assert not is_exact(x)


def test_rank_matches_minors_order_six():
    rng = random.Random(9)
    for _ in range(3):
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(6)] for _ in range(6)]
        m[3] = [x + y for x, y in zip(m[0], m[1])]  # guarantee a dependency
        assert rank(m) == _brute_rank(m)


def test_rank_anchors():
    diag = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    for i in (3, 4, 5):
        diag[i][i] = -1
    assert rank(diag) == 6
    assert rank([[0] * 6 for _ in range(6)]) == 0


def test_rank_float_mode():
    m = [[1.0, 2.0], [2.0, 4.0 + 1e-16]]
    assert rank(m) == 1
    m = [[1.0, 0.0], [0.0, 1e-3]]
    assert rank(m) == 2


def test_float_rank_resolves_below_sqrt_eps():
    # singular values 1 and 1e-9 in a rotated basis: a Gram matrix squares
    # 1e-9 to 1e-18, below its noise, while pivoted QR keeps it
    c, s = 0.6, 0.8
    q = [[c, -s], [s, c]]
    m = [[sum(q[i][k] * (1.0, 1e-9)[k] * q[j][k] for k in range(2))
          for j in range(2)] for i in range(2)]
    assert rank(m) == 2
    r, kept, dropped = float_rank(m)
    # |R_11| is the larger column norm 0.8 and |R_22| = det / |R_11|
    assert r == 2 and kept == pytest.approx(1e-9 / 0.64) and dropped == 0.0


def test_float_rank_reads_the_policy_when_it_runs(monkeypatch):
    m = [[1.0, 0.0], [0.0, 1e-9]]
    assert rank(m) == 2
    monkeypatch.setattr(TolerancePolicy, "RELATIVE_RANK_EPSILON", 1e-8)
    assert rank(m) == 1
    monkeypatch.setattr(TolerancePolicy, "ABSOLUTE_FLOOR", 2.0)
    assert float_rank(m) == (0, 0.0, 1.0)


def test_float_rank_margins():
    m = [[2j, 0, 0], [0, 1e-3, 0], [0, 0, 2e-15]]
    r, kept, dropped = float_rank(m)
    assert r == 2
    assert kept == pytest.approx(5e-4) and dropped == pytest.approx(1e-15)
    assert float_rank([[0.0, 0.0]]) == (0, 0.0, 0.0)
    # a wide matrix has the rank of its transpose
    wide = [[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0 + 1e-6j]]
    assert rank(wide) == rank([list(col) for col in zip(*wide)]) == 2


def _real_matrices():
    rng = random.Random(17)
    out = []
    for nr, nc, r in ((6, 6, 6), (9, 5, 3), (4, 11, 2), (12, 12, 7)):
        a = [[rng.gauss(0, 1) for _ in range(r)] for _ in range(nr)]
        b = [[rng.gauss(0, 1) for _ in range(nc)] for _ in range(r)]
        out.append([[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(nc)]
                    for i in range(nr)])
    for fam, params in ((1, (1, 2, 4, 8)), (4, (1, 2))):
        p = canonical_state(9, f"family{fam}", params).to_float()
        out.append(t_matrix_rows(p))
    return out


def test_pivoted_qr_on_real_floats_matches_the_complex_kernel():
    # a real matrix is factored on floats; the complex kernel on the same
    # entries keeps every imaginary part zero and gives the same |R_kk| (the
    # float and complex sums add in the same order, as sum() does up to
    # CPython 3.11)
    for m in _real_matrices():
        diag, _ = _pivoted_qr_diagonal(m)
        assert all(type(d) is float for d in diag)
        vectors = zip(*m) if len(m) >= len(m[0]) else m
        cols = [[complex(x) for x in v] for v in vectors]
        assert _householder_diagonal(cols, False) == diag
        assert _pivoted_qr_diagonal([[complex(x) for x in row] for row in m])[0] == diag


def test_determinant_anchors():
    ident = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    assert determinant(ident) == 1
    diag = [row[:] for row in ident]
    for i in (3, 4, 5):
        diag[i][i] = -1
    assert determinant(diag) == -1
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


def _bareiss_cases():
    """Seeded sparse and dense matrices of int, Gaussian-int and Fraction
    entries in square, wide, tall, 1 x n and n x 1 shapes, each also made
    rank-deficient and given a zero row and a zero column.  The Gaussian
    ones are also given a last row i times the first, which drops the rank
    over C but not over R."""
    rng = random.Random(24)
    entries = {
        "int": lambda: rng.randint(-9, 9),
        "Gaussian": lambda: GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4)),
        "Fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
    }
    cases = []
    for kind, entry in entries.items():
        for nr, nc in ((1, 1), (1, 6), (6, 1), (5, 5), (7, 4), (4, 7), (9, 9)):
            for density in (0.25, 1.0):
                m = [[entry() if rng.random() < density else 0 for _ in range(nc)]
                     for _ in range(nr)]
                name = f"{kind} {nr}x{nc} density {density}"
                cases.append((name, m))
                if nr > 2:
                    deficient = [list(row) for row in m]
                    deficient[-1] = [2 * x - y for x, y in zip(m[0], m[1])]
                    cases.append((name + " rank-deficient", deficient))
                    if kind == "Gaussian":
                        deficient = [list(row) for row in m]
                        deficient[-1] = [GaussianRational(0, 1) * x for x in m[0]]
                        cases.append((name + " rank-deficient over C", deficient))
                zeros = [list(row) for row in m]
                zeros[rng.randrange(nr)] = [0] * nc
                c = rng.randrange(nc)
                for row in zeros:
                    row[c] = 0
                cases.append((name + " zero row and column", zeros))
    return cases


BAREISS_CASES = _bareiss_cases()


@pytest.mark.parametrize("name,m", BAREISS_CASES, ids=[c[0] for c in BAREISS_CASES])
def test_bareiss_rank_and_det_equal_row_reduce(name, m):
    # both pivot on the first nonzero entry of a column, so they take the
    # same pivots: the last Bareiss pivot, signed by the row swaps, is the
    # product of the Gauss-Jordan pivots
    r, det, swaps = _bareiss(m)
    _, pivots, want = row_reduce(m)
    assert r == len(pivots)
    assert (-det if swaps % 2 else det) == want
    # rank() of an integral matrix first divides out row and column content
    assert rank(m) == len(pivots)


def _check_jordan(m):
    """The Gauss-Jordan mode of _bareiss against row_reduce on ``m``."""
    pivots, rows, d = _bareiss(m, jordan=True)
    want, want_pivots, _ = row_reduce(m)
    assert pivots == want_pivots
    # row i times d, value for value; row_reduce's other rows are zero
    assert [[quotient(x, d) for x in row] for row in rows] == want[:len(pivots)]
    assert not any(x for row in want[len(pivots):] for x in row)
    # the same pivots as the rank mode, so the same last pivot
    assert (len(pivots), d) == _bareiss(m)[:2]
    for i, row in enumerate(rows):
        assert [row[c] for c in pivots] == [d if j == i else 0
                                            for j in range(len(pivots))]
    if all(type(x) is int for row in m for x in row):
        assert all(type(x) is int for row in rows for x in row)  # fraction-free


@pytest.mark.parametrize("name,m", BAREISS_CASES, ids=[c[0] for c in BAREISS_CASES])
def test_bareiss_jordan_mode_equals_row_reduce(name, m):
    _check_jordan(m)


def test_bareiss_jordan_mode_edge_shapes():
    for m in ([], [[]], [[0, 0], [0, 0]], [[0], [3]], [[5]], [[0, 2, 4]],
              [[1, 2], [2, 4], [3, 6]], [[Fraction(1, 2), 1], [1, 2]]):
        _check_jordan(m)
    # the rows above a pivot are cleared too: [[2, 3], [4, 5]] -> 2 I
    assert _bareiss([[2, 3], [4, 5]], jordan=True) == ([0, 1], [[-2, 0], [0, -2]], -2)


if st is not None:
    @st.composite
    def low_rank_int_matrices(draw):
        """Int products A B of nr x r and r x nc factors, so that tall, wide,
        square and rank-deficient matrices all occur, with small and with
        multi-word entries."""
        nr, nc = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        r = draw(st.integers(0, min(nr, nc)))
        coeffs = st.integers(-3, 3) | st.integers(-2 ** 40, 2 ** 40)
        a = [draw(st.lists(coeffs, min_size=r, max_size=r)) for _ in range(nr)]
        b = [draw(st.lists(coeffs, min_size=nc, max_size=nc)) for _ in range(r)]
        return [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(nc)]
                for i in range(nr)]

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(low_rank_int_matrices())
    def test_bareiss_jordan_mode_equals_row_reduce_on_int_matrices(m):
        _check_jordan(m)


def test_bareiss_raises_on_a_non_exact_division():
    class Skewed(int):
        """An int whose products are one too large."""

        def __mul__(self, other):
            return int(self) * int(other) + 1

        __rmul__ = __mul__

    m = [[2, 1, 1], [1, 3, 1], [1, 1, 4]]
    assert _bareiss(m) == (3, 17, 0)
    for jordan in (False, True):
        with pytest.raises(ArithmeticError, match="non-exact integer division"):
            _bareiss([[Skewed(x) for x in row] for row in m], jordan)


def test_determinant_matches_permutation_expansion():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        brute = sum(
            (1 if _parity(perm) else -1)
            * _prod(m[i][perm[i]] for i in range(n))
            for perm in itertools.permutations(range(n)))
        assert determinant(m) == brute



def test_float_determinant_agrees_with_exact():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randint(2, 7)
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        exact = determinant(m)
        approx = determinant([[float(x) for x in row] for row in m])
        assert abs(approx - complex(exact)) <= 1e-12 * max(abs(exact), 1)
    assert determinant([[1.0, 2.0], [2.0, 4.0]]) == 0

def _parity(perm):
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return inv % 2 == 0


def _prod(it):
    out = 1
    for x in it:
        out *= x
    return out


def test_pfaffian_two_by_two():
    assert pfaffian([[0, 1], [-1, 0]]) == 1
    assert pfaffian([[0, 0], [0, 0]]) == 0


def test_pfaffian_squares_to_determinant():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.choice((2, 4, 6))
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = Fraction(rng.randint(-3, 3))
                m[i][j] = v
                m[j][i] = -v
        assert pfaffian(m) ** 2 == determinant(m)


def test_pfaffian_rejects_bad_input():
    with pytest.raises(ValueError):
        pfaffian([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])  # odd order
    with pytest.raises(ValueError):
        pfaffian([[0, 1], [1, 0]])  # not antisymmetric


def test_hermitian_eigenvalues_diagonal():
    m = [[0.0] * 6 for _ in range(6)]
    for i in (3, 4, 5):
        m[i][i] = 1.0
    assert hermitian_eigenvalues(m) == pytest.approx([0, 0, 0, 1, 1, 1])


def test_hermitian_eigenvalues_complex_anchor():
    m = [[2.0, 1j], [-1j, 2.0]]
    evs = hermitian_eigenvalues(m)
    assert evs == pytest.approx([1.0, 3.0], abs=1e-12)


def test_hermitian_eigenvalues_trace_and_error():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(2, 6)
        a = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
             for _ in range(n)]
        h = [[a[i][j] + a[j][i].conjugate() for j in range(n)] for i in range(n)]
        evs = hermitian_eigenvalues(h)
        tr = sum(h[i][i].real for i in range(n))
        assert sum(evs) == pytest.approx(tr, rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError):
        hermitian_eigenvalues([[0.0, 1.0], [2.0, 0.0]])


def test_hermitian_eigensystem_reconstructs_matrix():
    rng = random.Random(5)
    for _ in range(8):
        n = rng.randint(2, 6)
        a = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
             for _ in range(n)]
        h = [[a[i][j] + a[j][i].conjugate() for j in range(n)] for i in range(n)]
        vals, vecs = hermitian_eigensystem(h)
        for i in range(n):
            for j in range(n):
                got = sum(vecs[i][k] * vals[k] * vecs[j][k].conjugate()
                          for k in range(n))
                assert got == pytest.approx(h[i][j], abs=1e-10)


def _times_transpose(a, b):
    """a^T b, the identity when b is the inverse transpose of a."""
    n = len(a)
    return [[sum(a[k][i] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def test_exact_inverse_transpose_is_exact():
    for n in range(6, 10):
        g = random_invertible(n, 11 + n)
        ident = _times_transpose(g.matrix, g.inverse_transpose)
        assert ident == [[int(i == j) for j in range(n)] for i in range(n)]


def test_complex_inverse_transpose():
    rng = random.Random(7)
    for n in (2, 6, 9):
        m = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
             for _ in range(n)]
        ident = _times_transpose(m, GroupElement(m).inverse_transpose)
        for i in range(n):
            for j in range(n):
                assert abs(ident[i][j] - (i == j)) <= 1e-12


def test_singular_group_element_is_rejected():
    for m in ([[1, 2, 3], [2, 4, 6], [0, 1, 1]],
              [[Fraction(1, 2), 1], [1, 2]],
              [[1.0, 2.0], [2.0, 4.0]],
              [[1j, 0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError):
            GroupElement(m)


def test_group_element_determinant_comes_from_its_inversion():
    # the one Gauss-Jordan elimination that inverts g also gives det(g), in
    # the exact normal form; inverse transposition is an involution, and
    # det(g') = 1 / det(g) for the element built from g' = inverse transpose
    phase = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    for n, seed in ((3, 1), (6, 2), (9, 3)):
        m = random_invertible(n, seed).matrix
        m[0] = [phase * x for x in m[0]]
        for g in (GroupElement(m), GroupElement([[Fraction(x, 7) for x in row]
                                                 for row in m[1:]] + [m[0]])):
            assert g.det == determinant(g.matrix) and is_normal(g.det)
            h = GroupElement(g.inverse_transpose)
            assert h.inverse_transpose == g.matrix and h.det == 1 / g.det
            assert is_normal(h.det)
            # given in closed form, the inverse and det are kept as they are
            k = GroupElement(h.matrix, g.matrix, h.det)
            assert k.inverse_transpose is g.matrix and k.det is h.det


def test_row_reduce_pivots_and_floor():
    m = [[0, 2, 4, 2], [0, 1, 2, 3], [0, 3, 6, 5]]
    rows, pivots, _ = row_reduce(m)
    assert pivots == [1, 3]
    assert rows == [[0, 1, 2, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    assert all(isinstance(x, Fraction) for row in rows for x in row)
    rows_f, pivots_f, _ = row_reduce([[float(x) for x in row] for row in m])
    assert pivots_f == pivots
    assert all(abs(x - y) <= 1e-15 for rf, r in zip(rows_f, rows)
               for x, y in zip(rf, r))
    # a float pivot at or below the floor is not taken
    assert row_reduce([[1.0, 0.0], [0.0, 1e-14]], floor=1e-13)[1] == [0]
    _, _, det = row_reduce([[0, 2], [3, 1]])
    assert det == -6
