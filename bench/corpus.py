"""Seeded corpus of state files for the benchmark workloads.

States are built only from the library's generators (``canonical_state``,
``random_unimodular``, ``random_invertible``, ``random_state``,
``random_complex_state``) and written by this module's own serializer, so the
library under test receives nothing but files.  Unimodular copies are moved
by this module's own integer action (the third compound matrix), not by the
library's ``slocc_apply``; copies moved by rational invertible elements are
made during the run through ``trivec random --slocc-of``.

Every item carries its expected label and the reason it is in the corpus.
Expected labels are independent of the code under test: canonical rows take
the label they were built from, moved copies keep their source's label (group
invariance), and dense random states take the generic label of their
dimension once numpy confirms that their group orbit is open (full-rank
tangent map of the GL(N) action).
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

import numpy as np

ROWS = {
    6: ("Null", "Sep", "Bisep", "W", "GHZ", "GHZ+", "GHZ-"),
    7: ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X"),
    8: ("XI", "XII", "XIII", "XIV", "XV", "XVI", "XVII", "XVIII", "XIX",
        "XX", "XXI", "XXII", "XXIII"),
    9: tuple(f"family{k}" for k in range(1, 8)),
}
FAMILY_PARAMS = {"family1": (1, 2, 4, 8), "family2": (1, 2, 4),
                 "family3": (1, 2), "family4": (1, 2), "family5": (1,),
                 "family6": (1,), "family7": ()}
GENERIC = {6: "GHZ", 7: "X", 8: "XXIII", 9: "family1"}
REAL_ROWS = frozenset({"GHZ+", "GHZ-"})
ZERO_ROWS = frozenset({"Null", "I"})
# generic GL(N) orbit dimension: open orbit for N <= 8; for N = 9 the four
# invariants cut it to 84 - 4 + 1 (scaling leaves the SL(9) orbit)
GENERIC_ORBIT_DIM = {6: 20, 7: 35, 8: 56, 9: 81}

# The state files are drawn with this seed on every run; a run's own seed
# draws the elements of its in-run transports and the order of operations.
# The cost of a unimodular copy varies up to eightfold with its element, and
# drawing the files from the run's seed moved the lowdim classify median
# between 38 and 61 ms from seed to seed.
CORPUS_SEED = 1

# The designated slowest known input of each workload.  It is the same file
# for every seed, classified once at the end of every run.
SLOWEST = {
    "lowdim_exact": {"dim": 8, "row": "XXIII", "via": "transport", "seed": 1},
    "nine_exact": {"dim": 9, "row": "family1", "via": "transport", "seed": 1},
    "float_mixed": {"dim": 9, "via": "complex", "seed": 0},
}

WORKLOADS = {
    "lowdim_exact": {
        "why": "6-8 mode tables in exact arithmetic: kappa maps, eight-mode "
               "covariants, support reduction, small exact ranks and pinning; "
               "no 84x84 T and no float rank",
        "mode": "rational", "dims": (6, 7, 8), "unimodular": {6: 1, 8: 3},
        "dense": {6: 1, 7: 1, 8: 1},
        "follow_up": ("GHZ+", "W", "IX", "X"),
        "classify_transported": True,
    },
    "nine_exact": {
        "why": "nine-mode families in exact arithmetic: the 84x84 T, its trace "
               "powers, the exact 84x84 rank and Gaussian-rational arithmetic",
        "mode": "rational", "dims": (9,), "unimodular": {9: 1}, "dense": {9: 1},
        "seeded_params": 3, "follow_up": ROWS[9],
        "classify_transported": False,
    },
    "float_mixed": {
        "why": "float and complex copies in 6-9 modes: the same covariants on "
               "complex floats, rank through the Gram matrix and Jacobi",
        "mode": "float", "dims": (6, 7, 8, 9), "unimodular": {6: 1},
        "dense": {6: 1, 7: 1, 8: 1}, "follow_up": ("GHZ", "X", "XV", "family1"),
        "classify_transported": True,
    },
}


# ---------------------------------------------------------------------------
# scalars and files


def exact_parts(v):
    """(re, im) as Fractions for an exact library scalar."""
    if isinstance(v, (int, Fraction)):
        return Fraction(v), Fraction(0)
    return Fraction(v.re), Fraction(v.im)


def to_parts(state):
    """{sorted 1-based triple: (re, im)} from a library AltTensor."""
    out = {}
    for t, v in state.terms():
        if isinstance(v, (float, complex)):
            out[t] = (complex(v).real, complex(v).imag)
        else:
            out[t] = exact_parts(v)
    return out


def float_parts(parts):
    return {t: (float(re), float(im)) for t, (re, im) in parts.items()}


def state_document(dim, parts, mode):
    amps = []
    for t in sorted(parts):
        re, im = parts[t]
        if mode == "rational":
            amps.append({"indices": list(t), "re": str(re), "im": str(im)})
        else:
            amps.append({"indices": list(t), "re": repr(float(re)),
                         "im": repr(float(im))})
    return {"format": 1, "dimension": dim, "degree": 3, "scalar_mode": mode,
            "amplitudes": amps}


def write_state(path, dim, parts, mode):
    with open(path, "w") as fh:
        json.dump(state_document(dim, parts, mode), fh)


def read_state(path):
    """(dim, mode, {sorted triple: complex}) read back from a state file."""
    with open(path) as fh:
        doc = json.load(fh)
    amps = {}
    for a in doc["amplitudes"]:
        re, im = (Fraction(a["re"]), Fraction(a["im"])) \
            if doc["scalar_mode"] == "rational" else (float(a["re"]), float(a["im"]))
        amps[tuple(a["indices"])] = complex(float(re), float(im))
    return doc["dimension"], doc["scalar_mode"], amps


# ---------------------------------------------------------------------------
# independent group action and numpy references


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def move(parts, matrix):
    """Image of a three-vector under g: coefficients times 3x3 minors of g."""
    dim = len(matrix)
    out = {}
    for abc in itertools.combinations(range(dim), 3):
        rows = [matrix[a] for a in abc]
        re = im = 0
        for (i, j, k), (vr, vi) in parts.items():
            m = _det3([[r[i - 1], r[j - 1], r[k - 1]] for r in rows])
            if m:
                re += m * vr
                im += m * vi
        if re or im:
            out[tuple(a + 1 for a in abc)] = (re, im)
    return out


def full_tensor(dim, amps):
    """Dense antisymmetric (dim, dim, dim) complex array from sorted triples."""
    t = np.zeros((dim, dim, dim), dtype=complex)
    for (i, j, k), v in amps.items():
        for perm, sign in (((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
                           ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1)):
            t[perm[0] - 1, perm[1] - 1, perm[2] - 1] = sign * v
    return t


def occupations(dim, amps):
    """Natural occupations (trace 3, descending) by numpy ``eigvalsh``."""
    t = full_tensor(dim, amps)
    rho = np.einsum("iab,jab->ij", t, t.conj())
    rho *= 3.0 / np.trace(rho).real
    return sorted(np.linalg.eigvalsh(rho).tolist(), reverse=True)


def orbit_dimension(dim, amps):
    """Rank of X -> X.P on gl(N), or None when the singular-value gap is thin."""
    t = full_tensor(dim, amps)
    idx = [tuple(a - 1 for a in c)
           for c in itertools.combinations(range(1, dim + 1), 3)]
    sel = tuple(np.array(ax) for ax in zip(*idx))
    cols = []
    for i in range(dim):
        for j in range(dim):
            x = np.zeros_like(t)
            x[i, :, :] += t[j, :, :]
            x[:, i, :] += t[:, j, :]
            x[:, :, i] += t[:, :, j]
            cols.append(x[sel])
    s = np.linalg.svd(np.array(cols), compute_uv=False)
    r = int(np.sum(s > 1e-9 * s[0]))
    if r < len(s) and s[r] > 1e-12 * s[0]:
        return None
    if s[r - 1] < 1e-6 * s[0]:
        return None
    return r


def is_generic(dim, parts):
    amps = {t: complex(float(re), float(im)) for t, (re, im) in parts.items()}
    return orbit_dimension(dim, amps) == GENERIC_ORBIT_DIM[dim]


# ---------------------------------------------------------------------------
# corpus


def canonical_parts(lib, dim, row, params=None):
    if params is None:
        params = FAMILY_PARAMS.get(row, ())
    return to_parts(lib.canonical_state(dim, row, tuple(Fraction(x) for x in params)))


def seeded_family(lib, row, rng):
    """(params, parts): the family's representative at seeded small parameters
    that meet its open conditions."""
    while True:
        params = tuple(rng.choice((-3, -2, -1, 1, 2, 3, 4, 5))
                       for _ in FAMILY_PARAMS[row])
        try:
            return params, canonical_parts(lib, 9, row, params)
        except ValueError:
            continue


def _item(key, dim, row, mode, label, reason, path, moved=None):
    return {"key": key, "dim": dim, "row": row, "mode": mode, "label": label,
            "real": row in REAL_ROWS, "zero": row in ZERO_ROWS,
            "moved": moved, "reason": reason, "path": path}


def _dense(lib, dim, seed, complex_values):
    """First generic dense state at or after ``seed`` (numpy-confirmed)."""
    s = seed
    while True:
        st = (lib.random_complex_state(dim, s) if complex_values
              else lib.random_state(dim, s))
        parts = to_parts(st)
        if is_generic(dim, parts):
            return s, parts
        s += 1


def build(lib, workload, seed, out_dir):
    """Write the workload's seed-fixed files; returns (items, slowest item).

    ``lib`` is a namespace holding the five generators and ``canonical_state``.
    """
    spec = WORKLOADS[workload]
    mode = spec["mode"]
    rng = random.Random(seed)
    items = []

    def add(key, dim, row, label, reason, parts, moved=None):
        path = os.path.join(out_dir, key.replace("/", "_").replace("+", "p")
                            .replace("-", "m") + ".json")
        write_state(path, dim, parts if mode == "rational" else float_parts(parts),
                    mode)
        items.append(_item(key, dim, row, mode, label, reason, path, moved))

    for dim in spec["dims"]:
        for row in ROWS[dim]:
            parts = canonical_parts(lib, dim, row)
            add(f"{dim}/{row}/canonical", dim, row, row,
                "canonical table row; label by construction", parts)
            for k in range(spec.get("seeded_params", 0) if FAMILY_PARAMS.get(row) else 0):
                params, pparts = seeded_family(lib, row, rng)
                add(f"{dim}/{row}/params{k}", dim, row, row,
                    f"canonical family at seeded parameters {params}; label by "
                    "construction", pparts)
            for k in range(0 if row in ZERO_ROWS else spec["unimodular"].get(dim, 0)):
                g = lib.random_unimodular(dim, rng.randrange(2 ** 32))
                add(f"{dim}/{row}/unimodular{k}", dim, row, row,
                    "unimodular integer copy; keeps its source label",
                    move(parts, g.matrix), moved="unimodular")
    for dim, count in spec["dense"].items():
        s = seed * 1000 + dim * 10
        for _ in range(count):
            s, parts = _dense(lib, dim, s, mode == "float")
            add(f"{dim}/dense{s}", dim, None, GENERIC[dim],
                "dense random state; generic label, numpy-confirmed open orbit",
                parts)
            s += 1

    slow = SLOWEST[workload]
    dim = slow["dim"]
    if slow["via"] == "complex":
        s, parts = _dense(lib, dim, slow["seed"], True)
        add("slowest", dim, None, GENERIC[dim],
            "designated slowest input: dense complex nine-mode state", parts)
        slowest = {"item": items.pop()}
    else:
        row = slow["row"]
        add("slowest_source", dim, row, row,
            "source of the designated slowest input", canonical_parts(lib, dim, row))
        source = items.pop()
        slowest = {"source": source, "seed": slow["seed"],
                   "item": _item("slowest", dim, row, mode, row,
                                 "designated slowest input: canonical row moved "
                                 f"by random --slocc-of --seed {slow['seed']}",
                                 os.path.join(out_dir, "slowest.json"),
                                 moved="invertible")}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "why": spec["why"],
                   "items": items, "slowest": slowest}, fh, indent=1)
    return items, slowest


def transport_sources(items):
    """Every nonzero item built from a table row or family: moved each pass."""
    return [it for it in items
            if it["moved"] is None and it["row"] is not None and not it["zero"]]


def follow_up(workload, transports):
    """Transports of the workload's follow-up rows (canonical sources only),
    whose moved copies also get classify and rdm.  The rows are fixed so that
    a pass costs about the same for every seed; the elements are seeded."""
    rows = WORKLOADS[workload]["follow_up"]
    return [t for t in transports
            if t["item"]["key"].endswith("/canonical") and t["item"]["row"] in rows]
