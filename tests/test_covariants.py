import itertools
import random
from fractions import Fraction

import pytest

import trivec.covariants
from trivec.covariants import (bilinear_form_matrix, dual_trivector,
                               eight_covariants, first_order_map,
                               freudenthal_dual, k_matrix_6, kappa_map,
                               matmul, packed_matmul, seven_covariants,
                               t_power_traces, t_matrix_rows,
                               trace_product, _zmul)
from trivec.exterior import (AltTensor, SubsetIndexer, canonical_state,
                             interior, mask_of, merge_sign, nine_q,
                             slocc_apply, split_seven, star, tuple_of, wedge)
from trivec.invariants import quartic_d
from trivec.oracle import (random_complex_state, random_invertible,
                           random_rational_state, random_state,
                           random_unimodular)
from trivec.scalars import (GaussianRational, normal_form, pfaffian, quotient,
                            rank, to_complex)


def e(dim, *idx):
    return AltTensor.basis(dim, idx)


GHZ = e(6, 1, 2, 3) + e(6, 4, 5, 6)


def test_k_matrix_diagonal_on_ghz():
    k = k_matrix_6(GHZ).matrix
    for i in range(6):
        for j in range(6):
            want = 0
            if i == j:
                want = 1 if i < 3 else -1
            assert k[i][j] == want


def test_k_matrix_pinnable_entries():
    al, be, ga = Fraction(2, 3), Fraction(-1, 2), Fraction(5, 7)
    p = (e(6, 1, 2, 3).scale(al) + e(6, 1, 4, 5).scale(be)
         + e(6, 2, 4, 6).scale(ga))
    k = k_matrix_6(p).matrix
    nz = {(i + 1, j + 1): v for i, row in enumerate(k)
          for j, v in enumerate(row) if v}
    assert nz == {(3, 4): -2 * be * ga, (5, 2): 2 * al * ga, (6, 1): -2 * al * be}


def test_k_matrix_squares_to_quartic():
    rng = random.Random(30)
    for _ in range(20):
        p = random_rational_state(6, rng)
        k = k_matrix_6(p).matrix
        d = quartic_d(p)
        k2 = matmul(k, k)
        assert sum(k[i][i] for i in range(6)) == 0
        for i in range(6):
            for j in range(6):
                assert k2[i][j] == (d if i == j else 0)


def test_first_order_map_ranks():
    assert first_order_map(e(6, 1, 2, 3), 2).rank() == 3
    assert first_order_map(AltTensor.zero(6, 3), 2).rank() == 0
    assert first_order_map(e(6, 1, 2, 3) + e(6, 1, 5, 6), 2).rank() == 5
    # transpose relation
    rng = random.Random(31)
    for _ in range(5):
        p = random_state(6, rng)
        assert first_order_map(p, 1).rank() == first_order_map(p, 2).rank()


def test_kappa_map_anchors_and_constraint():
    m = kappa_map(GHZ, (1,))
    assert m.det_weight == 1
    assert m.matrix == k_matrix_6(GHZ).matrix
    assert kappa_map(e(6, 1, 2, 3), (1,)).rank() == 0
    # (n+1)k - sum(l) must land between 0 and the dimension
    with pytest.raises(ValueError):
        kappa_map(e(6, 1, 2, 3), (1, 1, 1))
    kappa_map(nine_q(1), (1, 1, 1))  # admissible in nine dimensions


def test_dual_trivector_anchors():
    assert dual_trivector(GHZ) == e(6, 1, 2, 3) - e(6, 4, 5, 6)
    assert dual_trivector(e(6, 1, 2, 3)).is_zero()
    sep_img = slocc_apply(random_unimodular(6, 7), e(6, 1, 2, 3))
    assert dual_trivector(sep_img).is_zero()


def test_dual_trivector_is_antisymmetric_formula():
    # the defining contraction is already fully antisymmetric; check the
    # canonical components against an independent full-index evaluation
    rng = random.Random(32)
    for _ in range(10):
        p = random_rational_state(6, rng)
        k = k_matrix_6(p).matrix
        pt = dual_trivector(p)
        for (a, b, c) in ((2, 1, 3), (4, 2, 6), (5, 3, 1)):
            full = sum(p.component((b, c, d)) * k[d - 1][a - 1] for d in range(1, 7))
            assert pt.component((a, b, c)) == full


def _dual_trivector_by_components(p):
    """Ptilde_abc = sum_d P_bcd K^d_a from sorted components, d ascending."""
    k = k_matrix_6(p).matrix
    out = {}
    for a, b, c in itertools.combinations(range(1, 7), 3):
        v = None
        for d in range(1, 7):
            x = p.component((b, c, d))
            if x and k[d - 1][a - 1]:
                term = x * k[d - 1][a - 1]
                v = term if v is None else v + term
        if v:
            out[mask_of((a, b, c))] = v
    return out


def test_dual_trivector_equals_the_component_sum():
    z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    for seed in range(3):
        p = slocc_apply(random_invertible(6, 60 + seed), GHZ)
        q = random_state(6, 70 + seed, density=0.5)
        for state in (p, q, p.to_float(), q.to_float(),
                      AltTensor(6, 3, {m: v * z for m, v in p.masks().items()})):
            assert dual_trivector(state).masks() == _dual_trivector_by_components(state)


def test_freudenthal_dual_exact_ghz():
    ph = freudenthal_dual(GHZ)
    assert ph == (e(6, 1, 2, 3) - e(6, 4, 5, 6)).scale(GaussianRational(0, -1))
    # U+- = P -+ i Phat are separable (two-term decomposition of the state)
    from trivec.classify import is_separable
    i = GaussianRational(0, 1)
    assert is_separable(GHZ.scale(GaussianRational(1)) + ph.scale(i))
    assert is_separable(GHZ.scale(GaussianRational(1)) + ph.scale(-i))


def test_freudenthal_dual_errors():
    with pytest.raises(ZeroDivisionError):
        freudenthal_dual(e(6, 1, 2, 3))
    p = random_state(6, 0, bound=2)
    assert quartic_d(p) == 209  # not a square, so no exact dual exists
    with pytest.raises(ValueError):
        freudenthal_dual(p)


def test_seven_covariants_on_calibration():
    p0 = canonical_state(7, "X")
    p6, om = split_seven(p0)
    cov = seven_covariants(p0)
    om_mat = [[om.component((i, j)) for j in range(1, 7)] for i in range(1, 7)]
    pf = pfaffian(om_mat)
    assert cov.n_matrix[6][6] == 6 * pf
    for a in range(6):
        assert cov.n_matrix[a][6] == 0
        assert cov.n_matrix[6][a] == 0
    # b matrix is -N/6
    assert cov.b_matrix[6][6] == -pf
    # the embedded six-dim covariant sits in the (M^7)^b_c block
    k = k_matrix_6(p6).matrix
    for b in range(1, 7):
        for c in range(1, 7):
            assert cov.m_component(7, b, c) == k[b - 1][c - 1]


def _seven_mode_states():
    z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    out = []
    for label in ("II", "IV", "VII", "IX", "X"):
        p = canonical_state(7, label)
        moved = slocc_apply(random_unimodular(7, 5), p)
        out += [p, moved, moved.to_float(),
                AltTensor(7, 3, {m: v * z for m, v in moved.masks().items()})]
    return out + [random_rational_state(7, 71)]


def test_l_matrix_equals_the_m_component_sum():
    # L^{ab} = L^{ba} = sum_{c,d} (M^a)^c_d (M^b)^d_c for a <= b, summed in
    # the order of the definition
    for p in _seven_mode_states():
        cov = seven_covariants(p)
        mc = cov.m_component
        want = [[0] * 7 for _ in range(7)]
        for a in range(1, 8):
            for b in range(a, 8):
                v = 0
                for c in range(1, 8):
                    for d in range(1, 8):
                        x = mc(a, c, d)
                        if x:
                            y = mc(b, d, c)
                            if y:
                                v = v + x * y
                want[a - 1][b - 1] = want[b - 1][a - 1] = v
        assert cov.l_matrix == want


@pytest.mark.parametrize("dim,degrees", [(6, (1,)), (6, (2,)), (7, (1,)),
                                         (7, (1, 1)), (8, (1, 1)), (8, (2,))])
def test_kappa_map_builds_one_contraction_table_per_degree(monkeypatch, dim, degrees):
    calls = []
    original = trivec.covariants.contractions

    def counted(p, l):
        calls.append(l)
        return original(p, l)

    p = random_state(dim, 40 + dim, density=0.5)
    want = _kappa_by_star_of_wedges(p, degrees)
    monkeypatch.setattr(trivec.covariants, "contractions", counted)
    assert kappa_map(p, degrees).matrix == want
    assert sorted(calls) == sorted(set(degrees))


def _kappa_by_star_of_wedges(p, degrees):
    """kappa_map by its definition: one star(i_b1 P ^ ... ^ P) per column."""
    n = p.dim
    unit = complex(1) if p.mode == "float" else 1
    rows = SubsetIndexer(n, n - (len(degrees) + 1) * 3 + sum(degrees))
    columns = []
    for key in itertools.product(*(SubsetIndexer(n, l).masks for l in degrees)):
        w = None
        for m, l in zip(key, degrees):
            c = interior(AltTensor(n, l, {m: unit}), p)
            w = c if w is None else wedge(w, c)
        columns.append(star(p if w is None else wedge(w, p)))
    return [[col.masks().get(rm, 0) for col in columns] for rm in rows.masks]


def _exact_float_and_gaussian(p):
    z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    return [p, p.to_float(), AltTensor(p.dim, 3, {m: v * z for m, v in p.masks().items()})]


@pytest.mark.parametrize("dim,degrees", [(6, ()), (6, (1,)), (6, (2,)), (7, (1,)),
                                         (7, (1, 1)), (8, (1,)), (8, (1, 1)),
                                         (8, (2,))])
def test_kappa_map_equals_star_of_wedges(dim, degrees):
    # same entries, term for term: float sums must come out bit-identical
    states = (_exact_float_and_gaussian(random_state(dim, 60 + dim, density=0.4))
              + [random_complex_state(dim, 3)])
    for p in states:
        got = kappa_map(p, degrees).matrix
        want = _kappa_by_star_of_wedges(p, degrees)
        assert repr(got) == repr(want), (dim, degrees, p.mode)


def _eight_by_index_tuples(p):
    """G, H and FE of eight_covariants by the component sums over index
    tuples, with Phi in a dict that keeps the order of first terms."""
    f_map = kappa_map(p, (1, 1))
    e_map = kappa_map(p, (1,))
    cols = {key: i for i, key in enumerate(f_map.col_keys)}

    def f(a, b1, b2):
        return f_map.matrix[a - 1][cols[(1 << (b1 - 1), 1 << (b2 - 1))]]

    rng = range(1, 9)
    g = [[0] * 8 for _ in rng]
    for a in rng:
        for b in range(a, 9):
            v = 0
            for c in rng:
                for d in rng:
                    x = f(c, a, d)
                    if x:
                        y = f(d, b, c)
                        if y:
                            v = v + x * y
            g[a - 1][b - 1] = g[b - 1][a - 1] = v
    phi = {}
    for a in rng:
        for (m1, m2) in cols:
            v = f(a, tuple_of(m1)[0], tuple_of(m2)[0])
            if not v:
                continue
            c, i = tuple_of(m1)[0], tuple_of(m2)[0]
            for mrow, rowpos in e_map.row_subsets.position.items():
                if not mrow >> (c - 1) & 1:
                    continue
                rest = mrow ^ (1 << (c - 1))
                k, l = tuple_of(rest)
                s = merge_sign(1 << (c - 1), rest)
                for j in rng:
                    ev = e_map.matrix[rowpos][j - 1]
                    if ev:
                        term = v * ev if s > 0 else -(v * ev)
                        key = (a, k, l, i, j)
                        phi[key] = term if key not in phi else phi[key] + term
    phi = {key: v for key, v in phi.items() if v}
    h = [[0] * 8 for _ in rng]
    for (a, k, l, i, j), v in phi.items():
        for b in rng:
            w = None
            if i < j:
                w = phi.get((b, i, j, k, l))
            elif i > j:
                w = phi.get((b, j, i, k, l))
                w = None if w is None else -w
            if w is not None:
                h[a - 1][b - 1] = h[a - 1][b - 1] + 2 * (v * w)
    pairs = {pr: n for n, pr in enumerate(itertools.combinations(rng, 2))}
    fe = [[0] * 8 for _ in pairs]
    for (a, k, l, i, j), v in phi.items():
        if j == a:
            fe[pairs[(k, l)]][i - 1] += v
    return g, h, fe


def test_eight_covariants_match_the_index_tuple_sums():
    # bit-identical floats: eight_i = Tr(G H) is printed to full precision
    states = []
    for label in ("XII", "XV", "XXIII"):
        states += _exact_float_and_gaussian(
            slocc_apply(random_invertible(8, 7), canonical_state(8, label)))
    states += [canonical_state(8, "XV").to_float(), random_complex_state(8, 2),
               random_state(8, 9, density=0.3).to_float()]
    for p in states:
        cov = eight_covariants(p)
        got = (cov.g_matrix, cov.h_matrix, cov.fe_matrix)
        assert repr(got) == repr(_eight_by_index_tuples(p)), p.mode


def test_seven_covariant_ranks_match_embedded_sep():
    p = e(7, 1, 2, 3)
    cov = seven_covariants(p)
    assert rank(cov.n_matrix) == 0
    assert cov.m_map.rank() == 0


def test_eight_covariants_table_rows():
    for label, want in (("XXIII", (8, 8, 8, 8)), ("XI", (0, 3, 6, 0)),
                        ("XVI", (1, 8, 8, 1))):
        cov = eight_covariants(canonical_state(8, label))
        got = (rank(cov.g_matrix), cov.f_map.rank(),
               cov.e_map.rank(), rank(cov.fe_matrix))
        assert got == want, (label, got)


def test_eight_covariants_zero_state():
    cov = eight_covariants(AltTensor.zero(8, 3))
    assert rank(cov.g_matrix) == 0
    assert cov.f_map.rank() == 0
    assert rank(cov.fe_matrix) == 0


def test_t_rank_and_odd_traces():
    q1 = nine_q(1)
    assert rank(t_matrix_rows(q1)) == 56
    tr = t_power_traces(t_matrix_rows(q1))
    assert tr[1] == 0 and tr[2] == 0 and tr[3] == 0


def _t_rows_by_merge_signs(p):
    """T from its defining sum, one merge_sign per factor and no tables."""
    full = (1 << 9) - 1
    amp = p.masks()
    triples = list(itertools.combinations(range(1, 10), 3))
    row_of = {mask_of(t): i for i, t in enumerate(triples)}

    def iota(mask):
        return {m ^ mask: (-v if merge_sign(mask, m ^ mask) < 0 else v)
                for m, v in amp.items() if m & mask == mask}

    mat = [[0] * 84 for _ in range(84)]
    for col, (a, b, c) in enumerate(triples):
        for pair, f, w in (((a, b), c, 2), ((a, c), b, -2), ((b, c), a, 2)):
            for m1, v1 in iota(mask_of(pair)).items():
                for m2, v2 in iota(mask_of((f,))).items():
                    for m3, v3 in amp.items():
                        if m1 & m2 or (m1 | m2) & m3:
                            continue
                        v6 = m1 | m2 | m3
                        s = (merge_sign(m1, m2) * merge_sign(m1 | m2, m3)
                             * merge_sign(full ^ v6, v6))
                        mat[row_of[full ^ v6]][col] += w * s * v1 * v2 * v3
    return mat


def test_t_matrix_rows_match_the_defining_sum():
    for seed in (3, 4):
        p = random_state(9, seed, density=0.3)
        assert t_matrix_rows(p) == _t_rows_by_merge_signs(p)


def _small_integer_states():
    """Canonical and unimodular-moved nine-mode states with small int or
    Gaussian-integer amplitudes."""
    states = {"dense": random_state(9, 4)}
    for row, params in (("family1", (1, 2, 4, 8)), ("family5", (1,)), ("family7", ())):
        p = canonical_state(9, row, params)
        states[row] = p
        states[row + " moved"] = slocc_apply(random_unimodular(9, 100), p)
    for name, p in list(states.items()):
        states["Gaussian " + name] = p.scale(GaussianRational(2, -1))
    # W of i P is real while C is imaginary: a real by Gaussian product
    states["imaginary family1 moved"] = states["family1 moved"].scale(GaussianRational(0, 1))
    return states


def test_exact_t_matrix_rows_equal_the_float_path():
    # T is cubic in P: with |P| < 150 and a few thousand terms per entry,
    # every product and partial sum is an integer that doubles hold exactly
    for name, p in _small_integer_states().items():
        assert max(abs(to_complex(v)) for v in p.masks().values()) < 150, name
        exact = t_matrix_rows(p)
        floats = t_matrix_rows(p.to_float())
        assert all(normal_form(x) is x for row in exact for x in row), name
        assert [[to_complex(x) for x in row] for row in exact] == \
            [[complex(y) for y in row] for row in floats], name


def test_t_matrix_rows_of_a_fraction_state_scale_by_the_cube():
    moved = slocc_apply(random_unimodular(9, 100), canonical_state(9, "family1", (1, 2, 4, 8)))
    for factor, c in ((Fraction(5, 6), 6), (GaussianRational(Fraction(3, 5), Fraction(4, 5)), 5)):
        p = moved.scale(factor)
        q = p.scale(c)  # an integer multiple
        assert all(type(v) in (int, GaussianRational) for v in q.masks().values())
        want = [[normal_form(x / c ** 3) if type(x) is GaussianRational else quotient(x, c ** 3)
                 for x in row] for row in t_matrix_rows(q)]
        got = t_matrix_rows(p)
        assert got == want
        assert all(type(x) is type(y) for gr, wr in zip(got, want) for x, y in zip(gr, wr))


def _random_matrix(rng, n, density, size):
    """Seeded n x n ints with mixed signs, each entry nonzero with ``density``."""
    return [[rng.randint(-size, size) if rng.random() < density else 0
             for _ in range(n)] for _ in range(n)]


def _kernel_cases():
    rng = random.Random(17)
    big = 10 ** 400
    zero_lines = _random_matrix(rng, 9, 1.0, 50)
    for i in range(9):
        zero_lines[3][i] = zero_lines[i][5] = 0
    single = [[0] * 7 for _ in range(7)]
    single[2][4] = -3
    cases = [
        ("sparse", _random_matrix(rng, 17, 0.15, 9), _random_matrix(rng, 17, 0.15, 9)),
        ("dense", _random_matrix(rng, 23, 1.0, 10 ** 6), _random_matrix(rng, 23, 0.9, 10 ** 12)),
        ("dense 84", _random_matrix(rng, 84, 1.0, 2 ** 40), _random_matrix(rng, 84, 1.0, 2 ** 40)),
        ("mixed density", _random_matrix(rng, 12, 0.5, 3), _random_matrix(rng, 12, 0.2, 10 ** 30)),
        ("zero rows and columns", zero_lines, [list(r) for r in reversed(zero_lines)]),
        ("near 1e400", _random_matrix(rng, 6, 1.0, 1000), _random_matrix(rng, 6, 1.0, 1000)),
        ("n = 1", [[-7]], [[5]]),
        ("single nonzero", single, _random_matrix(rng, 7, 1.0, 10 ** 20)),
        ("zero", [[0] * 4 for _ in range(4)], _random_matrix(rng, 4, 1.0, 9)),
    ]
    name, a, b = cases[5]
    cases[5] = (name, [[big + x if x % 2 else -big - x for x in r] for r in a],
                [[big - x if x % 3 else -big + x for x in r] for r in b])
    # every entry at the bound, so each product entry is +-n max|a| max|b|:
    # the bound 2^63 - 1 fills one 64-bit slot, 2^63 needs two
    for n, top in ((5, 2 ** 31), (1, 2 ** 63 - 1), (1, 2 ** 63), (4, 2 ** 64 - 1)):
        cases.append((f"at the bound {n} x {top}",
                      [[(-1) ** i * top] * n for i in range(n)],
                      [[1] * n for _ in range(n)] if n > 1 else [[-1]]))
        cases.append((f"at the bound {n} x -{top}", [[-top] * n for _ in range(n)],
                      [[-top] * n for _ in range(n)] if n > 1 else [[1]]))
    return cases


KERNEL_CASES = _kernel_cases()


@pytest.fixture(params=["by rule", "all packed", "none packed"])
def packing(request, monkeypatch):
    """The kernel's row switch as it is, and forced to either side."""
    terms = {"by rule": trivec.covariants._SPARSE_TERMS, "all packed": 0,
             "none packed": 10 ** 9}[request.param]
    monkeypatch.setattr(trivec.covariants, "_SPARSE_TERMS", terms)


@pytest.mark.parametrize("name,a,b", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_packed_matmul_equals_matmul(packing, name, a, b):
    got = packed_matmul(a, b)
    assert got == matmul(a, b)
    assert all(type(x) is int for row in got for x in row)
    assert packed_matmul(a, a) == matmul(a, a)


def _gaussian(re, im):
    return [[GaussianRational(x, y) if y else x for x, y in zip(r, i)]
            for r, i in zip(re, im)]


# the 84 x 84 case as Gaussian matrices takes seconds in ``matmul``
GAUSSIAN_CASES = [c for c in KERNEL_CASES if len(c[1]) < 84]


@pytest.mark.parametrize("k", range(len(GAUSSIAN_CASES)),
                         ids=[c[0] for c in GAUSSIAN_CASES])
def test_gaussian_packed_product_equals_matmul(packing, k):
    # the real parts of one case and the imaginary parts of another of the
    # same size, so every shape above also runs as a Gaussian product
    _, ar, br = GAUSSIAN_CASES[k]
    n = len(ar)
    others = [c for c in GAUSSIAN_CASES if len(c[1]) == n and c[1] is not ar]
    ai, bi = (others[0][2], others[0][1]) if others else ([r[::-1] for r in br], ar)
    re, im = _zmul((ar, ai), (br, bi))
    want = matmul(_gaussian(ar, ai), _gaussian(br, bi))
    assert _gaussian(re, im) == want
    assert all(type(x) is int for part in (re, im) for row in part for x in row)


def _t_power_traces_by_matmul(tm):
    """The traces by the dense ``matmul`` chain alone."""
    a = matmul(tm, tm)
    b = matmul(a, a)
    c = matmul(b, a)
    return {1: sum(tm[i][i] for i in range(84)), 2: sum(a[i][i] for i in range(84)),
            3: trace_product(a, tm), 4: sum(b[i][i] for i in range(84)),
            6: trace_product(b, a), 8: trace_product(b, b), 10: trace_product(c, b)}


def _nine_mode_states():
    """Sparse and dense nine-mode states whose T has int, Fraction and
    Gaussian-integer entries."""
    f1 = canonical_state(9, "family1", (1, 2, 4, 8))
    gauss = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    return {"family1": f1, "family7": canonical_state(9, "family7"),
            "family1 / 3": f1.scale(Fraction(1, 3)),
            "Gaussian family1": f1.scale(gauss).representative()[0],
            "moved family1": slocc_apply(random_unimodular(9, 100), f1),
            "dense": random_state(9, 4)}


def test_t_power_traces_of_exact_t_equal_the_matmul_chain():
    for name, p in _nine_mode_states().items():
        tm = t_matrix_rows(p)
        got = t_power_traces(tm)
        assert got == _t_power_traces_by_matmul(tm), name
        # every trace in the exact normal form
        assert all(normal_form(v) is v for v in got.values()), name


def test_t_power_traces_of_float_t_are_the_matmul_chain_bit_for_bit():
    zero_floats = [[0] * 84 for _ in range(84)]
    zero_floats[2][2] = zero_floats[3][5] = 0.0
    tms = {name: t_matrix_rows(p.to_float())
           for name, p in _nine_mode_states().items() if name != "dense"}
    tms["float zeros"] = zero_floats
    for name, tm in tms.items():
        got = t_power_traces(tm)
        want = _t_power_traces_by_matmul(tm)
        assert [(type(got[n]), repr(got[n])) for n in want] == \
            [(type(want[n]), repr(want[n])) for n in want], name


def test_t_family_one_rank():
    p = canonical_state(9, "family1", (1, 2, 4, 8))
    assert rank(t_matrix_rows(p)) == 80


def test_covariant_ranks_invariant_under_group():
    rng = random.Random(33)
    p = canonical_state(7, "IX")
    base = (bilinear_rank_7(p), first_order_map(p, 2).rank(),
            kappa_map(p, (1,)).rank())
    for _ in range(5):
        g = random_unimodular(7, rng)
        q = slocc_apply(g, p)
        assert (bilinear_rank_7(q), first_order_map(q, 2).rank(),
                kappa_map(q, (1,)).rank()) == base


def bilinear_rank_7(p):
    return rank(bilinear_form_matrix(kappa_map(p, (1, 1))))


def test_degree_two_covariant_vanishes_iff_separable():
    # the l = k-1 covariant is zero exactly on single Slater determinants
    from trivec.classify import is_separable
    rng = random.Random(34)
    for _ in range(10):
        sep = slocc_apply(random_unimodular(6, rng), e(6, 1, 2, 3))
        assert kappa_map(sep, (2,)).rank() == 0
        assert is_separable(sep)
    for label in ("Bisep", "W", "GHZ"):
        p = canonical_state(6, label)
        assert kappa_map(p, (2,)).rank() > 0
        assert not is_separable(p)
