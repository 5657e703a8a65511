"""Benchmark worker: one fresh interpreter that runs CLI commands on request.

Usage: python3 worker.py SRC_DIR TRACE_FILE|-

Imports ``trivec`` from SRC_DIR, prints one ready line, then answers one JSON
line per request on stdin: ``{"argv": [...]}`` runs ``trivec.cli.main(argv)``
in-process with stdout and stderr captured, and reports the CPU time it took;
``{"stats": true}`` reports the peak resident memory and, when tracing,
writes the spans to TRACE_FILE.  The ready line gives the CPU time the
interpreter took to start and import ``trivec``.
"""

import contextlib
import io
import json
import os
import resource
import sys
import traceback


def cpu_s():
    """CPU time of this process and of the children it waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main(argv):
    src, trace_file = argv[1], argv[2]
    proto = sys.stdout
    sys.path.insert(0, src)
    import trivec
    import trivec.cli
    if not os.path.abspath(trivec.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"trivec imported from {trivec.__file__}, not {src}")
    tracer = None
    if trace_file != "-":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    proto.write(json.dumps({"ready": True, "cpu_s": cpu_s()}) + "\n")
    proto.flush()
    for line in sys.stdin:
        req = json.loads(line)
        if "argv" in req:
            out, err = io.StringIO(), io.StringIO()
            rc, tb = None, None
            if tracer:
                tracer.op = req["op"]
            cpu0 = cpu_s()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = trivec.cli.main(req["argv"])
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                tb = traceback.format_exc()
            reply = {"rc": rc, "out": out.getvalue(), "err": err.getvalue(),
                     "tb": tb, "cpu_s": cpu_s() - cpu0}
        else:
            if tracer:
                tracer.dump(trace_file)
            reply = {"peak_rss_mb":
                     resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


if __name__ == "__main__":
    main(sys.argv)
