"""Same-answers sweep: hash every CLI answer over a fixed set of state files.

Writes the state files of every 6-9-mode table row (GHZ+ and GHZ- included,
nine-mode families at fixed parameters) in three versions: canonical, moved
by ``random_unimodular(dim, 100)`` and moved by ``random_invertible(dim,
202)``, each exact, times 3/5 + 4/5 i and as floats.  On each file it runs
``classify``, ``classify --real``, ``rdm`` and ``random --slocc-of FILE
--seed 1`` as subprocesses of the tree's ``trivec.cli`` and records one
sha256 of each command's stdout, stderr and exit code.  Two trees answer
alike when their manifests are equal:

    python3 tools/same_answers.py --tree . --out change.json
    python3 tools/same_answers.py --tree ../parent --out parent.json
    python3 tools/same_answers.py --compare parent.json change.json

The state files come from the library of the tree under test, and their
hashes are in the manifest too.  Standard library only; a sweep of both
trees takes minutes, so it is not part of the test suite.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

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
TIMEOUT_S = 600  # per command; the slowest takes a few seconds
COMMANDS = {
    "classify": ["classify", "--input"],
    "classify --real": ["classify", "--real", "--input"],
    "rdm": ["rdm", "--input"],
    "random --slocc-of": ["random", "--seed", "1", "--slocc-of"],
}


def _write_states(tree, out_dir):
    """{key: path} of the state files, written with the tree's library."""
    sys.path.insert(0, os.path.join(tree, "src"))
    from trivec.cli import emit, state_document
    from trivec.exterior import AltTensor, canonical_state, slocc_apply
    from trivec.oracle import random_invertible, random_unimodular
    from trivec.scalars import GaussianRational

    z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    paths = {}
    for dim, rows in ROWS.items():
        for row in rows:
            params = tuple(map(Fraction, FAMILY_PARAMS.get(row, ())))
            p = canonical_state(dim, row, params)
            for moved, g in (("canonical", None),
                             ("unimodular", random_unimodular(dim, 100)),
                             ("invertible", random_invertible(dim, 202))):
                q = p if g is None else slocc_apply(g, p)
                for arith, doc in (
                        ("exact", state_document(q, "rational")),
                        ("gaussian", state_document(AltTensor(dim, 3, {
                            m: v * z for m, v in q.masks().items()}), "rational")),
                        ("float", state_document(q.to_float(), "float"))):
                    key = f"{dim}/{row}/{moved}/{arith}"
                    path = os.path.join(out_dir, key.replace("/", "_") + ".json")
                    with open(path, "w") as fh:
                        emit(doc, fh)
                    paths[key] = path
    return paths


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        data = part.encode()
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def sweep(tree, jobs):
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_states(tree, tmp)
        manifest = {f"{key} input": _digest(open(path).read())
                    for key, path in paths.items()}

        def run(item):
            key, name, path = item
            argv = [sys.executable, "-m", "trivec.cli"] + COMMANDS[name] + [path]
            try:
                proc = subprocess.run(argv, env=env, cwd=tmp, capture_output=True,
                                      text=True, timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return f"{key} {name}", "timeout"
            # the input path differs from run to run; errors may quote it
            out, err = (s.replace(path, "INPUT") for s in (proc.stdout, proc.stderr))
            return f"{key} {name}", _digest(out, err, str(proc.returncode))

        items = [(key, name, path) for key, path in paths.items() for name in COMMANDS]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            manifest.update(pool.map(run, items))
    return dict(sorted(manifest.items()))


def compare(a_path, b_path):
    with open(a_path) as fh:
        a = json.load(fh)
    with open(b_path) as fh:
        b = json.load(fh)
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for k in differ:
        print(f"differs: {k}")
    runs = sum(1 for k in a if not k.endswith(" input"))
    print(f"{len(differ)} of {len(a.keys() | b.keys())} entries differ "
          f"({runs} commands in {a_path})")
    return 1 if differ else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", default=os.path.join(os.path.dirname(__file__), ".."),
                    help="repository root whose src/ is swept (default: this one)")
    ap.add_argument("--out", help="manifest file (default: stdout)")
    ap.add_argument("--jobs", type=int, default=2, help="commands run at once")
    ap.add_argument("--compare", nargs=2, metavar="MANIFEST",
                    help="compare two manifests instead of sweeping")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    manifest = sweep(args.tree, max(1, args.jobs))
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
