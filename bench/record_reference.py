#!/usr/bin/env python3
"""Record reference.json: stdout digests of every seed-independent exact input.

    python3 bench/record_reference.py

Run from the repository root, only on a commit whose exact reports are known
good; the benchmark compares every later run against what this writes.
Covers ``classify`` (``--real`` for GHZ+/GHZ-) and ``rdm`` of every canonical
row in 6-9 modes, the designated slowest inputs, and each row's invariant
zero flags and rank of T, which moved copies must repeat.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import check
import corpus
import run


def main():
    lib = run.load_library()
    import trivec.cli as cli

    def call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        return rc, out.getvalue()

    refs = {"stdout": {}, "rows": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for dim, rows in corpus.ROWS.items():
            for row in rows:
                item = corpus._item(f"{dim}/{row}", dim, row, "rational", row, "",
                                    os.path.join(tmp, f"{dim}_{row}.json"))
                corpus.write_state(item["path"], dim,
                                   corpus.canonical_parts(lib, dim, row), "rational")
                ops = [run.classify_op(item)] + ([] if item["zero"] else [run.rdm_op(item)])
                for op in ops:
                    rc, out = call(op["argv"])
                    refs["stdout"][check.command_key(op)] = check.sha(out)
                    if op["cmd"] == "classify":
                        rep = json.loads(out)
                        refs["rows"][f"{dim}/{row}"] = {
                            "zero": {k: v["zero"] for k, v in rep["invariants"].items()},
                            "rank_T": rep["classification"].get("rank_T")}
                    print(dim, row, op["cmd"], rc, file=sys.stderr)
        for workload, slow in corpus.SLOWEST.items():
            if slow["via"] != "transport":
                continue
            src = corpus._item("src", slow["dim"], slow["row"], "rational", slow["row"],
                               "", os.path.join(tmp, f"slow_src_{workload}.json"))
            corpus.write_state(src["path"], slow["dim"],
                               corpus.canonical_parts(lib, slow["dim"], slow["row"]),
                               "rational")
            t = run.transport_op(src, slow["seed"], os.path.join(tmp, f"slow_{workload}.json"))
            call(t["argv"])
            op = run.classify_op(t["moved"])
            rc, out = call(op["argv"])
            refs["stdout"][check.command_key(op)] = check.sha(out)
            print(workload, "slowest", rc, file=sys.stderr)
    with open(check.REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
