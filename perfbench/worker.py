"""One round of one workload, in the fresh interpreter run.py starts.

A round is what one CLI command costs: import, set-up, every item of the
workload in a closed loop (one caller, one thread: the next item is sent
when the previous one returns), the reports, then the output checks, which
are not timed.  The result is printed as one JSON line.

    python3 perfbench/worker.py --workload diagram --seed 1 [--trace FILE]
                                [--setup-only]
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback

import checks
import workloads

RAISED = object()  # the output of an item that raised


def run_round(name: str, seed: int, trace_path: str | None,
              setup_only: bool = False) -> dict:
    t0 = time.perf_counter()
    import fuzzideal  # noqa: F401  (import cost is part of set-up)
    import numpy
    import sympy
    import_s = time.perf_counter() - t0

    tracer = None
    wrap_s = 0.0
    if trace_path is not None:
        import tracing
        t_wrap = time.perf_counter()
        tracer = tracing.Tracer()
        tracer.install()
        wrap_s = time.perf_counter() - t_wrap

    gc.collect()
    t_setup = time.perf_counter()
    groups = workloads.WORKLOADS[name](seed)
    setup_s = import_s + time.perf_counter() - t_setup
    if setup_only:
        return {"setup_s": setup_s, "import_s": import_s}

    gc.collect()
    latencies, raised, reports = [], [], []
    item_s = 0.0
    index = 0
    for group in groups:
        outputs = []
        t_group = time.perf_counter()
        for call in group.calls:
            if tracer is not None:
                tracer.item = index
            t = time.perf_counter()
            try:
                out = call()
            except Exception:  # an item that raises counts as failed
                out = RAISED
                raised.append(traceback.format_exc(limit=3))
            latencies.append(time.perf_counter() - t)
            outputs.append(out)
            index += 1
        item_s += time.perf_counter() - t_group
        if tracer is not None:
            tracer.item = -1
        report = None
        if group.report is not None:
            try:
                report = group.report(outputs)
            except Exception:  # e.g. a theorem check refuted by the items
                raised.append(traceback.format_exc(limit=3))
        reports.append((group, outputs, report))
    wall_s = time.perf_counter() - t0 - wrap_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layer = None
    if tracer is not None:
        layer = tracer.metrics()
        layer["setup.import_s"] = import_s
        tracer.save(trace_path)

    # -- output checks (after timing and after peak RSS is read) ----------
    failed = 0
    reports_ok = True
    problems = []
    for group, outputs, report in reports:
        for i, out in enumerate(outputs):
            if out is RAISED:
                failed += 1
                continue
            try:
                group.check(i, out)
            except Exception as exc:  # CheckFailure, or a malformed output
                failed += 1
                problems.append(f"{group.name} item {i}: {exc!r}")
        if group.check_report is not None:
            try:
                if report is None:
                    raise checks.CheckFailure("no report")
                group.check_report(report, outputs)
            except Exception as exc:
                reports_ok = False
                problems.append(f"{group.name} report: {exc!r}")
    problems.extend(raised[:5])

    return {
        "workload": name, "seed": seed, "traced": tracer is not None,
        "attempted": len(latencies), "failed": failed,
        "reports_ok": reports_ok,
        "problems": problems[:20],
        "latencies_s": latencies, "item_s": item_s, "wall_s": wall_s,
        "setup_s": setup_s, "import_s": import_s, "wrap_s": wrap_s,
        "peak_rss_mb": peak_rss_mb,
        "layer": layer,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "sympy": sympy.__version__},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", metavar="FILE",
                    help="trace the round and write its spans to FILE (.npz)")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up (an extra set-up time sample)")
    args = ap.parse_args(argv)
    result = run_round(args.workload, args.seed, args.trace, args.setup_only)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
