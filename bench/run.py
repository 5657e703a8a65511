#!/usr/bin/env python3
"""trivec benchmark: seeded workloads through the real CLI path.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Each run builds the corpus, starts one
fresh worker interpreter that imports ``trivec`` from ``src`` and drives it as
a closed loop with one client: the next command is sent only after the
previous reply arrives.  Passes over the corpus repeat until S seconds have
elapsed (a pass is never cut short), then the workload's designated slowest
input is classified.  Every output is checked (see check.py) after the
timed region.  Human-readable metric lines come first; the last stdout line
is one JSON object.

The client, the worker and a calibration process that never runs the
library share one CPU; every time is scaled to a reference speed by the
CPU's speed measured during it (speed.py).  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1``
ignores ``--seconds``: it makes one untraced pass, then the same pass plus
the slowest input traced by tracer.py, and reports per-layer calls, self
time and waste ratios.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter, process_time
from types import SimpleNamespace

# numpy serves only as a reference here; keep it to one thread
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKER = os.path.join(BENCH, "worker.py")
SETUPS = 5
COLD_RUNS = 21
# transports of each source per pass: the cost of one varies with its
# seeded element, and their median needs many of them
TRANSPORTS = 3
SLOWEST_REPEATS = {"lowdim_exact": 3, "nine_exact": 1, "float_mixed": 1}

import check  # noqa: E402
import corpus  # noqa: E402
import tracer  # noqa: E402
import speed  # noqa: E402

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"),
    ("classify_p50_ms", "ms"), ("classify_tail_ms", "ms"),
    ("rdm_p50_ms", "ms"), ("rdm_tail_ms", "ms"),
    ("transport_p50_ms", "ms"), ("slowest_state_s", "s"),
    ("cli_cold_ms", "ms"), ("peak_rss_mb", "MB"),
)

WASTE = {
    # name: (span names counted, classify ops it is divided by)
    "covariants.t_matrix_rows.per_nine_classify":
        (("covariants.t_matrix_rows",), lambda it: it["dim"] == 9),
    "classify.classify6_7.per_report":
        (("classify.classify6", "classify.classify7"),
         lambda it: it["dim"] in (6, 7) and not it["zero"]),
    "spectra.one_matrix.per_report":
        (("spectra.one_matrix",), lambda it: it["dim"] in (6, 7) and not it["zero"]),
    "invariants.quartic_d.per_six_report":
        (("invariants.quartic_d",), lambda it: it["dim"] == 6 and not it["zero"]),
}


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, names in tracer.SPANNED.items():
        for fname in names:
            qual = f"{mod}.{fname}"
            if qual == tracer.RANK:
                for kind in ("exact", "float"):
                    out += [(f"{qual}.{kind}.calls", "count"),
                            (f"{qual}.{kind}.self_s", "s"),
                            (f"{qual}.{kind}.entries", "count")]
            else:
                out += [(f"{qual}.calls", "count"), (f"{qual}.self_s", "s")]
    out += [(name, "count") for name in tracer.COUNTED]
    out.append(("scalars.GaussianRational.mul.calls", "count"))
    out += [(name, "ratio") for name in WASTE]
    out += [("trace.overhead_ratio", "ratio"), ("check.fail_ratio", "ratio"),
            ("check.known_defects", "count")]
    return out


# ---------------------------------------------------------------------------
# statistics


def tail(samples):
    """(value, percentile, count): the highest nearest-rank percentile that
    leaves at least ten samples above it; the maximum below eleven samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 10
    return xs[k - 1], 100.0 * k / n, n


# ---------------------------------------------------------------------------
# worker and corpus


class Worker:
    """Closed-loop client of one worker interpreter (traced into ``trace_file``)."""

    def __init__(self, trace_file="-"):
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, SRC, trace_file], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        ready = self._read()
        if ready.get("ready") is not True:
            raise RuntimeError("worker did not start")
        self.start_cpu_s = ready["cpu_s"]

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited (code {self.proc.poll()})")
        return json.loads(line)

    def request(self, req):
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def load_library():
    sys.path.insert(0, SRC)
    import trivec.exterior as exterior
    import trivec.oracle as oracle
    if not exterior.__file__.startswith(SRC + os.sep):
        raise RuntimeError(f"trivec found at {exterior.__file__}, not under {SRC}")
    return SimpleNamespace(
        canonical_state=exterior.canonical_state,
        random_unimodular=oracle.random_unimodular,
        random_invertible=oracle.random_invertible,
        random_state=oracle.random_state,
        random_complex_state=oracle.random_complex_state)


def setup(workload, run_dir):
    """Corpus files, a started worker and its ``import trivec``."""
    os.makedirs(run_dir)
    lib = load_library()
    items, slowest = corpus.build(lib, workload, corpus.CORPUS_SEED, run_dir)
    ghz = corpus._item("cold/6/GHZ", 6, "GHZ", "rational", "GHZ",
                       "cold start of the command line", os.path.join(run_dir, "ghz6.json"))
    corpus.write_state(ghz["path"], 6, corpus.canonical_parts(lib, 6, "GHZ"), "rational")
    return SimpleNamespace(items=items, slowest=slowest, ghz=ghz, worker=Worker(),
                           run_dir=run_dir)


def classify_op(item):
    argv = ["classify", "--input", item["path"]] + (["--real"] if item["real"] else [])
    return {"cmd": "classify", "item": item, "argv": argv}


def rdm_op(item):
    return {"cmd": "rdm", "item": item, "argv": ["rdm", "--input", item["path"]]}


def transport_op(src, seed, out_path):
    moved = dict(src, key=f"{src['key']}/invertible{seed}", moved="invertible",
                 path=out_path, reason="moved in-run by random --slocc-of")
    return {"cmd": "transport", "item": src, "out_path": out_path, "moved": moved,
            "argv": ["random", "--slocc-of", src["path"], "--seed", str(seed),
                     "--out", out_path]}


def plan_pass(workload, st, rng, pass_no):
    """Every operation of one pass, in seeded order: classify and rdm of every
    item, ``TRANSPORTS`` transports of every row-built item, and classify and
    rdm of the follow-up rows' first moved copies, each placed after its
    transport."""
    sources = corpus.transport_sources(st.items)
    transports = [
        transport_op(src, rng.randrange(1, 10 ** 6),
                     os.path.join(st.run_dir, f"moved_p{pass_no}_{k}_{n}.json"))
        for k in range(TRANSPORTS) for n, src in enumerate(sources)]
    seq = list(transports)
    for it in st.items:
        seq.append(classify_op(it))
        if not it["zero"]:
            seq.append(rdm_op(it))
    rng.shuffle(seq)
    for t in corpus.follow_up(workload, transports[:len(sources)]):
        ops = [rdm_op(t["moved"])]
        if corpus.WORKLOADS[workload]["classify_transported"]:
            ops.append(classify_op(t["moved"]))
        for op in ops:
            seq.insert(rng.randint(seq.index(t) + 1, len(seq)), op)
    return seq


def slowest_ops(workload, st):
    slow = st.slowest
    ops = []
    if "source" in slow:
        ops.append(transport_op(slow["source"], slow["seed"], slow["item"]["path"]))
    ops += [classify_op(slow["item"])] * SLOWEST_REPEATS[workload]
    return ops


def drive(worker, ops, log):
    """Run ops in a closed loop, appending (op, reply, start, end) to ``log``."""
    for op in ops:
        t = perf_counter()
        res = worker.request({"op": len(log), "argv": op["argv"]})
        log.append((op, res, t, perf_counter()))


def children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def cli_cold(st, log):
    env = dict(os.environ, PYTHONPATH=SRC)
    op = classify_op(st.ghz)
    for _ in range(COLD_RUNS):
        t, cpu0 = perf_counter(), children_cpu_s()
        proc = subprocess.run([sys.executable, "-m", "trivec.cli"] + op["argv"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        log.append((op, {"rc": proc.returncode, "out": proc.stdout,
                         "err": proc.stderr,
                         "tb": proc.stderr if "Traceback" in proc.stderr else None,
                         "cpu_s": children_cpu_s() - cpu0},
                    t, perf_counter()))


def verdicts(log):
    checker = check.Checker(check.load_reference())
    tally = {"ok": 0, "known_defect": 0, "fail": 0}
    for op, res, *_ in log:
        verdict, reason = checker(op, res)
        tally[verdict] += 1
        if verdict != "ok":
            print(f"{verdict}: {op['cmd']} {reason}", file=sys.stderr)
    return tally


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(args, run_dir, clock):
    setups = []
    for k in range(SETUPS):
        t, cpu0 = perf_counter(), process_time()
        st = setup(args.workload, os.path.join(run_dir, f"setup{k}"))
        setups.append((process_time() - cpu0 + st.worker.start_cpu_s, t, perf_counter()))
        if k < SETUPS - 1:
            st.worker.close()
    rng = random.Random(args.seed)
    log = []
    try:
        pass_no = 0
        t0 = perf_counter()
        while pass_no == 0 or perf_counter() - t0 < args.seconds:
            drive(st.worker, plan_pass(args.workload, st, rng, pass_no), log)
            pass_no += 1
        first_slow = len(log)
        drive(st.worker, slowest_ops(args.workload, st), log)
        rss = st.worker.request({"stats": True})["peak_rss_mb"]
        timed = len(log)
        cli_cold(st, log)
    finally:
        st.worker.close()
    clock.stop()
    tally = verdicts(log)

    scaled = [(op, res["cpu_s"] * clock.factor(t0, t1)) for op, res, t0, t1 in log]

    def ms(cmd, entries=scaled[:first_slow]):
        return [dt * 1000 for op, dt in entries if op["cmd"] == cmd]

    c_tail, c_pct, c_n = tail(ms("classify"))
    r_tail, r_pct, r_n = tail(ms("rdm"))
    pass_s = sum(dt for _, dt in scaled[:first_slow])
    values = {
        "setup_s": statistics.median(cpu * clock.factor(t0, t1) for cpu, t0, t1 in setups),
        "ops_per_s": first_slow / pass_s,
        "classify_p50_ms": statistics.median(ms("classify")),
        "classify_tail_ms": c_tail,
        "rdm_p50_ms": statistics.median(ms("rdm")),
        "rdm_tail_ms": r_tail,
        "transport_p50_ms": statistics.median(ms("transport")),
        "slowest_state_s": statistics.median(ms("classify", scaled[first_slow:timed])) / 1000,
        "cli_cold_ms": statistics.median(ms("classify", scaled[timed:])),
        "peak_rss_mb": rss,
    }
    notes = {"classify_tail_ms": f"p{c_pct:.1f} of {c_n} samples",
             "rdm_tail_ms": f"p{r_pct:.1f} of {r_n} samples",
             "ops_per_s": f"{first_slow} ops in {pass_s:.2f} s scaled, {pass_no} passes",
             "slowest_state_s": "wall time unscaled {:.3g} s".format(statistics.median(
                 t1 - t0 for op, _, t0, t1 in log[first_slow:timed] if op["cmd"] == "classify"))}
    raw_s = sum(t1 - t0 for _, _, t0, t1 in log[:first_slow])
    raw_setups = [t1 - t0 for _, t0, t1 in setups]
    print(f"{args.workload} speed: {len(clock.walls)} units, median CPU time per unit "
          f"{clock.median_unit_s() * 1000:.4f} ms (reference {speed.REFERENCE_S * 1000:.4f} ms); "
          f"passes took {raw_s:.2f} s and set-ups {min(raw_setups):.3f}-{max(raw_setups):.3f} s "
          "unscaled")
    for name, unit in END_TO_END:
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} {values[name]:.6g} {unit}{extra}")
    return values, END_TO_END, tally, len(log)


def traced(args, run_dir, clock):
    st = setup(args.workload, os.path.join(run_dir, "setup"))
    st.worker.close()
    rng = random.Random(args.seed)
    ops = plan_pass(args.workload, st, rng, 0)
    trace_file = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
    # the untraced run skips the slowest input; the overhead compares the pass
    logs = []
    for tf, run_ops in (("-", ops), (trace_file, ops + slowest_ops(args.workload, st))):
        worker, log = Worker(tf), []
        try:
            drive(worker, run_ops, log)
            worker.request({"stats": True})
        finally:
            worker.close()
        logs.append(log)
    clock.stop()
    pass_s = [sum(res["cpu_s"] * clock.factor(t0, t1) for _, res, t0, t1 in log[:len(ops)])
              for log in logs]
    log = logs[1]
    tally = verdicts(log)
    with open(trace_file) as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    values = {f"{base}.{field}": v for base, fields in tracer.aggregate(spans).items()
              for field, v in fields.items()}
    values.update(trace["counts"])
    for name, (names, takes) in WASTE.items():
        ops_in = {i for i, (op, *_) in enumerate(log)
                  if op["cmd"] == "classify" and takes(op["item"])}
        values[name] = tracer.calls_in_ops(spans, names, ops_in) / len(ops_in) if ops_in else 0.0
    values["trace.overhead_ratio"] = pass_s[1] / pass_s[0]
    values["check.fail_ratio"] = (tally["fail"] + tally["known_defect"]) / len(log)
    values["check.known_defects"] = tally["known_defect"]
    values = {name: values.get(name, 0) for name, _ in per_layer_names()}
    for name, unit in per_layer_names():
        print(f"{args.workload} {name} {values[name]:.6g} {unit}")
    return values, per_layer_names(), tally, len(log)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trivec", "__init__.py")):
        sys.exit(f"error: no trivec package under {SRC}")
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    speed.pin_to_one_cpu()
    os.makedirs(WORK, exist_ok=True)
    clock = speed.Clock(run_dir + ".speed")
    try:
        values, names, tally, attempted = (traced if args.trace else end_to_end)(
            args, run_dir, clock)
    finally:
        clock.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.exists(clock.log_path):
            os.remove(clock.log_path)
    wrong = tally["fail"] + tally["known_defect"]
    print(f"{args.workload} fail_ratio {wrong / attempted:.6g} ratio  ({wrong} wrong of "
          f"{attempted}: {tally['known_defect']} known seed defects, {tally['fail']} failed)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    if any(isinstance(v, float) and not math.isfinite(v) for v in values.values()):
        sys.exit("error: non-finite metric")
    print(json.dumps({"correct": tally["fail"] == 0, "attempted": attempted,
                      "failed": tally["fail"], "metrics": metrics}))


if __name__ == "__main__":
    main()
