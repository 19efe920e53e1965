"""One benchmark pass in a fresh interpreter.

Reads {"argvs": [[...], ...], "trace": bool} as JSON on stdin, runs
``specgap.cli.main(argv)`` for each argv in order, in this process, and
writes one JSON object to stdout: per-command exit status, latency,
host-speed probe (``probe.py``, taken just before the command) and report
text, the pass wall time without the probes, the process's peak RSS, the
``time.monotonic()`` reading at which ``import specgap.cli`` finished
(CLOCK_MONOTONIC is shared by every process, so the parent can time the
cold start from spawn), a probe taken right after that import and, when
tracing, the spans and counters.
``src`` must be on PYTHONPATH.
"""

import contextlib
import io
import json
import resource
import sys
import time

from probe import probe


def run_pass(argvs, tracer=None):
    import specgap.cli as cli

    main = cli.main
    if tracer is not None:
        tracer.install(dict(sys.modules))
        main = tracer.spanned("cli.main", cli.main)
    results = []
    probing = 0.0
    t_pass = time.perf_counter()
    for argv in argvs:
        before = time.perf_counter()
        speed = probe()
        buf = io.StringIO()
        start = time.perf_counter()
        probing += start - before
        with contextlib.redirect_stdout(buf):
            rc = main(list(argv))
        seconds = time.perf_counter() - start
        results.append({"argv": argv, "rc": rc, "seconds": seconds,
                        "probe_s": speed, "report": buf.getvalue()})
    wall = time.perf_counter() - t_pass - probing
    if tracer is not None:
        tracer.uninstall()
    return results, wall


def main():
    import specgap.cli  # noqa: F401  (the CLI's cold start, timed)

    imported_at = time.monotonic()
    import_probe = probe(5)
    job = json.load(sys.stdin)
    tracer = None
    if job.get("trace"):
        from spans import Tracer
        tracer = Tracer()
    results, wall = run_pass(job["argvs"], tracer)
    out = {"commands": results, "wall_s": wall, "imported_at": imported_at,
           "import_probe_s": import_probe,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out.update(tracer.dump())
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
