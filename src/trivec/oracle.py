"""Brute-force reference implementations and random generators.

Everything here exists to check the fast canonical-subset kernels against
literal definitions: full antisymmetric component arrays with their
factorial prefactors, Levi-Civita sums over explicit permutations, and the
closed-form polynomial expressions for the nine-dimensional invariants.
These run orders of magnitude slower than the main path and are only meant
for dimensions up to six (plus the polynomial evaluations, which are cheap
at any size).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .exterior import AltTensor, GroupElement, sort_indices


def epsilon(seq) -> int:
    """Sign of a permutation sequence; 0 when an entry repeats."""
    sign, _ = sort_indices(seq)
    return sign


class FullTensor:
    """Dense degree-k tensor with explicit antisymmetry over all index tuples.

    Components are stored for every ordered tuple; construction checks
    antisymmetry under adjacent transpositions.  Limited to dimension six to
    keep the N^k cost harmless.
    """

    def __init__(self, dim: int, degree: int, comp: dict):
        if dim > 6:
            raise ValueError("FullTensor is limited to dimension six")
        self.dim = dim
        self.degree = degree
        self.comp = {}
        for idx in itertools.product(range(1, dim + 1), repeat=degree):
            self.comp[idx] = comp.get(idx, 0)
        for idx in self.comp:
            for t in range(degree - 1):
                swapped = list(idx)
                swapped[t], swapped[t + 1] = swapped[t + 1], swapped[t]
                if self.comp[idx] != -self.comp[tuple(swapped)]:
                    raise ValueError("components are not antisymmetric")

    @classmethod
    def from_alt(cls, p: AltTensor) -> "FullTensor":
        comp = {}
        for idx in itertools.product(range(1, p.dim + 1), repeat=p.degree):
            comp[idx] = p.component(idx)
        return cls(p.dim, p.degree, comp)

    def to_alt(self) -> AltTensor:
        terms = []
        for idx in itertools.combinations(range(1, self.dim + 1), self.degree):
            v = self.comp[idx]
            if v:
                terms.append((idx, v))
        return AltTensor.from_terms(self.dim, self.degree, terms)


def brute_wedge(a: FullTensor, b: FullTensor) -> FullTensor:
    """Literal alternation formula with the 1/(k! m!) prefactor."""
    k, m = a.degree, b.degree
    dim = a.dim
    norm = Fraction(1, math.factorial(k) * math.factorial(m))
    comp = {}
    for idx in itertools.product(range(1, dim + 1), repeat=k + m):
        total = 0
        for perm in itertools.permutations(range(k + m)):
            s = epsilon(tuple(q + 1 for q in perm))
            if s == 0:
                continue
            left = tuple(idx[perm[t]] for t in range(k))
            right = tuple(idx[perm[t]] for t in range(k, k + m))
            va = a.comp[left]
            if not va:
                continue
            vb = b.comp[right]
            if not vb:
                continue
            total = total + s * va * vb
        if total:
            comp[idx] = norm * total
    return FullTensor(dim, k + m, comp)


def brute_interior(alpha: FullTensor, p: FullTensor) -> FullTensor:
    """Literal contraction with the 1/m! prefactor over all dummy tuples."""
    m, k = alpha.degree, p.degree
    dim = p.dim
    norm = Fraction(1, math.factorial(m))
    comp = {}
    for idx in itertools.product(range(1, dim + 1), repeat=k - m):
        total = 0
        for dummy in itertools.product(range(1, dim + 1), repeat=m):
            va = alpha.comp[dummy]
            if not va:
                continue
            vp = p.comp[dummy + idx]
            if not vp:
                continue
            total = total + va * vp
        if total:
            comp[idx] = norm * total
    return FullTensor(dim, k - m, comp)


def brute_star(r: FullTensor) -> FullTensor:
    """Literal Levi-Civita dual with the 1/m! prefactor."""
    m = r.degree
    dim = r.dim
    norm = Fraction(1, math.factorial(m))
    comp = {}
    for idx in itertools.product(range(1, dim + 1), repeat=dim - m):
        total = 0
        for dummy in itertools.product(range(1, dim + 1), repeat=m):
            s = epsilon(idx + dummy)
            if s == 0:
                continue
            v = r.comp[dummy]
            if v:
                total = total + s * v
        if total:
            comp[idx] = norm * total
    return FullTensor(dim, dim - m, comp)


def brute_pairing(form: FullTensor, vec: FullTensor):
    """Determinant pairing evaluated as 1/k! over all ordered tuples."""
    k = form.degree
    total = 0
    for idx in itertools.product(range(1, form.dim + 1), repeat=k):
        vf = form.comp[idx]
        if vf:
            vv = vec.comp[idx]
            if vv:
                total = total + vf * vv
    return Fraction(1, math.factorial(k)) * total


# ---------------------------------------------------------------------------
# closed forms of the nine-dimensional invariants on the semisimple normal
# form a q1 + b q2 + c q3 + d q4; generic over any commutative ring elements


def appendix_b(a, b, c, d):
    """(J12, J18, J24, J30) evaluated on the semisimple normal form.

    Accepts numbers or anything with +, -, * and integer powers (the
    Jacobian passes dual numbers); this transcription is the independent
    oracle against which the trace-invariant pipeline is tested.
    """
    j12 = (a**12 + b**12 + c**12 + 22*c**6*d**6 + d**12
           - 220*a**3*(b**3 - c**3)*(b**3 - d**3)*(c**3 - d**3)
           + 220*b**3*c**3*d**3*(c**3 + d**3)
           + 22*b**6*(c**6 + 10*c**3*d**3 + d**6)
           + 22*a**6*(b**6 + c**6 - 10*c**3*d**3 + d**6 - 10*b**3*(c**3 + d**3)))
    j18 = (a**18 + b**18 + c**18 - 17*c**12*d**6 - 17*c**6*d**12 + d**18
           + 1870*a**9*(b**3 - c**3)*(b**3 - d**3)*(c**3 - d**3)
           - 1870*b**9*c**3*d**3*(c**3 + d**3)
           - 17*b**12*(c**6 + 10*c**3*d**3 + d**6)
           - 170*b**3*c**3*d**3*(c**9 + 11*c**6*d**3 + 11*c**3*d**6 + d**9)
           - 17*b**6*(c**12 + 110*c**9*d**3 + 462*c**6*d**6 + 110*c**3*d**9 + d**12)
           - 17*a**12*(b**6 + c**6 - 10*c**3*d**3 + d**6 - 10*b**3*(c**3 + d**3))
           - 17*a**6*(b**12 + c**12 - 110*c**9*d**3 + 462*c**6*d**6 - 110*c**3*d**9
                      + d**12 - 110*b**9*(c**3 + d**3) + 462*b**6*(c**6 + d**6)
                      - 110*b**3*(c**9 + d**9))
           + 170*a**3*(b**12*(c**3 - d**3) - 11*b**9*(c**6 - d**6)
                       + 11*b**6*(c**9 - d**9)
                       + c**3*d**3*(c**9 - 11*c**6*d**3 + 11*c**3*d**6 - d**9)
                       + b**3*(-(c**12) + d**12)))
    j24 = (111*a**24 + 111*b**24 + 111*c**24 + 506*c**18*d**6 + 10166*c**12*d**12
           + 506*c**6*d**18 + 111*d**24
           - 206448*a**15*(b**3 - c**3)*(b**3 - d**3)*(c**3 - d**3)
           + 206448*b**15*c**3*d**3*(c**3 + d**3)
           + 506*b**18*(c**6 + 10*c**3*d**3 + d**6)
           + 1118260*b**9*c**3*d**3*(c**9 + 11*c**6*d**3 + 11*c**3*d**6 + d**9)
           + 10166*b**12*(c**12 + 110*c**9*d**3 + 462*c**6*d**6 + 110*c**3*d**9 + d**12)
           + 1012*b**3*c**3*d**3*(5*c**15 + 204*c**12*d**3 + 1105*c**9*d**6
                                  + 1105*c**6*d**9 + 204*c**3*d**12 + 5*d**15)
           + 506*b**6*(c**18 + 408*c**15*d**3 + 9282*c**12*d**6 + 24310*c**9*d**9
                       + 9282*c**6*d**12 + 408*c**3*d**15 + d**18)
           + 506*a**18*(b**6 + c**6 - 10*c**3*d**3 + d**6 - 10*b**3*(c**3 + d**3))
           + 10166*a**12*(b**12 + c**12 - 110*c**9*d**3 + 462*c**6*d**6
                          - 110*c**3*d**9 + d**12 - 110*b**9*(c**3 + d**3)
                          + 462*b**6*(c**6 + d**6) - 110*b**3*(c**9 + d**9))
           - 1118260*a**9*(b**12*(c**3 - d**3) - 11*b**9*(c**6 - d**6)
                           + 11*b**6*(c**9 - d**9)
                           + c**3*d**3*(c**9 - 11*c**6*d**3 + 11*c**3*d**6 - d**9)
                           + b**3*(-(c**12) + d**12))
           + 506*a**6*(b**18 + c**18 - 408*c**15*d**3 + 9282*c**12*d**6
                       - 24310*c**9*d**9 + 9282*c**6*d**12 - 408*c**3*d**15 + d**18
                       - 408*b**15*(c**3 + d**3) + 9282*b**12*(c**6 + d**6)
                       - 24310*b**9*(c**9 + d**9) + 9282*b**6*(c**12 + d**12)
                       - 408*b**3*(c**15 + d**15))
           - 1012*a**3*(5*b**18*(c**3 - d**3) - 204*b**15*(c**6 - d**6)
                        + 1105*b**12*(c**9 - d**9) - 1105*b**9*(c**12 - d**12)
                        + c**3*d**3*(5*c**15 - 204*c**12*d**3 + 1105*c**9*d**6
                                     - 1105*c**6*d**9 + 204*c**3*d**12 - 5*d**15)
                        + 204*b**6*(c**15 - d**15) - 5*b**3*(c**18 - d**18)))
    j30 = (584*a**30 + 584*b**30 + 584*c**30 - 435*c**24*d**6 - 63365*c**18*d**12
           - 63365*c**12*d**18 - 435*c**6*d**24 + 584*d**30
           + 440220*a**21*(b**3 - c**3)*(b**3 - d**3)*(c**3 - d**3)
           - 440220*b**21*c**3*d**3*(c**3 + d**3)
           - 435*b**24*(c**6 + 10*c**3*d**3 + d**6)
           - 25852920*b**15*c**3*d**3*(c**9 + 11*c**6*d**3 + 11*c**3*d**6 + d**9)
           - 63365*b**18*(c**12 + 110*c**9*d**3 + 462*c**6*d**6 + 110*c**3*d**9 + d**12)
           - 1394030*b**9*c**3*d**3*(5*c**15 + 204*c**12*d**3 + 1105*c**9*d**6
                                     + 1105*c**6*d**9 + 204*c**3*d**12 + 5*d**15)
           - 63365*b**12*(c**18 + 408*c**15*d**3 + 9282*c**12*d**6 + 24310*c**9*d**9
                          + 9282*c**6*d**12 + 408*c**3*d**15 + d**18)
           - 290*b**3*c**3*d**3*(15*c**21 + 1518*c**18*d**3 + 24035*c**15*d**6
                                 + 89148*c**12*d**9 + 89148*c**9*d**12
                                 + 24035*c**6*d**15 + 1518*c**3*d**18 + 15*d**21)
           - 435*b**6*(c**24 + 1012*c**21*d**3 + 67298*c**18*d**6 + 653752*c**15*d**9
                       + 1352078*c**12*d**12 + 653752*c**9*d**15 + 67298*c**6*d**18
                       + 1012*c**3*d**21 + d**24)
           - 435*a**24*(b**6 + c**6 - 10*c**3*d**3 + d**6 - 10*b**3*(c**3 + d**3))
           - 63365*a**18*(b**12 + c**12 - 110*c**9*d**3 + 462*c**6*d**6
                          - 110*c**3*d**9 + d**12 - 110*b**9*(c**3 + d**3)
                          + 462*b**6*(c**6 + d**6) - 110*b**3*(c**9 + d**9))
           + 25852920*a**15*(b**12*(c**3 - d**3) - 11*b**9*(c**6 - d**6)
                             + 11*b**6*(c**9 - d**9)
                             + c**3*d**3*(c**9 - 11*c**6*d**3 + 11*c**3*d**6 - d**9)
                             + b**3*(-(c**12) + d**12))
           - 63365*a**12*(b**18 + c**18 - 408*c**15*d**3 + 9282*c**12*d**6
                          - 24310*c**9*d**9 + 9282*c**6*d**12 - 408*c**3*d**15 + d**18
                          - 408*b**15*(c**3 + d**3) + 9282*b**12*(c**6 + d**6)
                          - 24310*b**9*(c**9 + d**9) + 9282*b**6*(c**12 + d**12)
                          - 408*b**3*(c**15 + d**15))
           + 1394030*a**9*(5*b**18*(c**3 - d**3) - 204*b**15*(c**6 - d**6)
                           + 1105*b**12*(c**9 - d**9) - 1105*b**9*(c**12 - d**12)
                           + c**3*d**3*(5*c**15 - 204*c**12*d**3 + 1105*c**9*d**6
                                        - 1105*c**6*d**9 + 204*c**3*d**12 - 5*d**15)
                           + 204*b**6*(c**15 - d**15) - 5*b**3*(c**18 - d**18))
           - 435*a**6*(b**24 + c**24 - 1012*c**21*d**3 + 67298*c**18*d**6
                       - 653752*c**15*d**9 + 1352078*c**12*d**12 - 653752*c**9*d**15
                       + 67298*c**6*d**18 - 1012*c**3*d**21 + d**24
                       - 1012*b**21*(c**3 + d**3) + 67298*b**18*(c**6 + d**6)
                       - 653752*b**15*(c**9 + d**9) + 1352078*b**12*(c**12 + d**12)
                       - 653752*b**9*(c**15 + d**15) + 67298*b**6*(c**18 + d**18)
                       - 1012*b**3*(c**21 + d**21))
           + 290*a**3*(15*b**24*(c**3 - d**3) - 1518*b**21*(c**6 - d**6)
                       + 24035*b**18*(c**9 - d**9) - 89148*b**15*(c**12 - d**12)
                       + 89148*b**12*(c**15 - d**15) - 24035*b**9*(c**18 - d**18)
                       + c**3*d**3*(15*c**21 - 1518*c**18*d**3 + 24035*c**15*d**6
                                    - 89148*c**12*d**9 + 89148*c**9*d**12
                                    - 24035*c**6*d**15 + 1518*c**3*d**18 - 15*d**21)
                       + 1518*b**6*(c**21 - d**21) - 15*b**3*(c**24 - d**24)))
    return j12, j18, j24, j30


# ---------------------------------------------------------------------------
# random generators (deterministic per seed)


def _rng(seed_or_rng):
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_unimodular(dim: int, seed) -> GroupElement:
    """Product of 2*dim random integer shears; determinant exactly one."""
    rng = _rng(seed)
    g = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        while j == i:
            j = rng.randrange(dim)
        c = rng.randint(-2, 2)
        if c:
            for r in range(dim):
                g[r][j] += c * g[r][i]
    return GroupElement(g)


def random_invertible(dim: int, seed) -> GroupElement:
    """Random unimodular element composed with a nonzero integer diagonal."""
    rng = _rng(seed)
    u = random_unimodular(dim, rng)
    diag = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(dim)]
    d = GroupElement([[diag[i] if i == j else 0 for j in range(dim)]
                      for i in range(dim)])
    return u @ d


def random_state(dim: int, seed, degree: int = 3, density: float = 1.0,
                 bound: int = 4) -> AltTensor:
    """Random exact state with small integer amplitudes."""
    rng = _rng(seed)
    terms = []
    for t in itertools.combinations(range(1, dim + 1), degree):
        if rng.random() <= density:
            v = rng.randint(-bound, bound)
            if v:
                terms.append((t, v))
    return AltTensor.from_terms(dim, degree, terms)


def random_rational_state(dim: int, seed, degree: int = 3,
                          num_bound: int = 4, den_bound: int = 3) -> AltTensor:
    rng = _rng(seed)
    terms = []
    for t in itertools.combinations(range(1, dim + 1), degree):
        v = Fraction(rng.randint(-num_bound, num_bound),
                     rng.randint(1, den_bound))
        if v:
            terms.append((t, v))
    return AltTensor.from_terms(dim, degree, terms)


def random_complex_state(dim: int, seed, degree: int = 3) -> AltTensor:
    rng = _rng(seed)
    terms = []
    for t in itertools.combinations(range(1, dim + 1), degree):
        terms.append((t, complex(rng.gauss(0, 1), rng.gauss(0, 1))))
    return AltTensor.from_terms(dim, degree, terms)


# ---------------------------------------------------------------------------
# self-check suite (runnable from the command line)


def selfcheck(verbose: bool = False) -> list:
    """Cross-check the canonical kernels against the brute-force ones.

    Returns a list of (name, passed) pairs; used by the command-line
    self-check so the transcription-heavy pieces can be audited at runtime.
    """
    from .exterior import interior, star, wedge
    from .invariants import nine_js
    from .exterior import semisimple_state
    from .invariants import quartic_d

    import sys
    results = []

    def record(name, ok):
        results.append((name, bool(ok)))
        if verbose:
            print(f"{'ok' if ok else 'FAIL'}  {name}", file=sys.stderr)

    rng = random.Random(20240)
    ok = True
    for _ in range(25):
        dim = rng.choice((4, 5, 6))
        ka = rng.randint(1, 2)
        kb = rng.randint(1, min(2, dim - ka))
        a = random_state(dim, rng, degree=ka, bound=3)
        b = random_state(dim, rng, degree=kb, bound=3)
        lhs = wedge(a, b)
        rhs = brute_wedge(FullTensor.from_alt(a), FullTensor.from_alt(b)).to_alt()
        ok = ok and lhs == rhs
    record("wedge against brute-force alternation", ok)

    ok = True
    for _ in range(25):
        dim = rng.choice((4, 5, 6))
        k = rng.randint(2, min(3, dim))
        m = rng.randint(1, k)
        p = random_state(dim, rng, degree=k, bound=3)
        al = random_state(dim, rng, degree=m, bound=3)
        lhs = interior(al, p)
        rhs = brute_interior(FullTensor.from_alt(al), FullTensor.from_alt(p)).to_alt()
        ok = ok and lhs == rhs
    record("interior against brute-force contraction", ok)

    ok = True
    for _ in range(25):
        dim = rng.choice((4, 5, 6))
        m = rng.randint(1, dim - 1)
        p = random_state(dim, rng, degree=m, bound=3)
        lhs = star(p)
        rhs = brute_star(FullTensor.from_alt(p)).to_alt()
        ok = ok and lhs == rhs
    record("star against brute-force Levi-Civita sum", ok)

    ok = True
    for k in range(8):
        vals = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4))
        ok = ok and nine_js(semisimple_state(*vals)) == appendix_b(*vals)
    record("trace invariants against closed-form polynomials", ok)

    ok = True
    ghz = AltTensor.from_terms(6, 3, [((1, 2, 3), 1), ((4, 5, 6), 1)])
    for k in range(5):
        g = random_unimodular(6, rng)
        from .exterior import slocc_apply
        ok = ok and quartic_d(slocc_apply(g, ghz)) == 1
    record("quartic invariant under random unimodular action", ok)

    return results
