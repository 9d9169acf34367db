"""fuzzideal benchmark: one command, four workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload diagram --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  Each round of a workload runs in a fresh
interpreter (worker.py) with a fixed PYTHONHASHSEED and numpy's thread pool
at one thread.  Rounds repeat until ``--seconds`` is used up (a round is
not started when it would end more than half a round late); every round
sends the same items, so ``failed`` is the same share of ``attempted``
however many rounds fit.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
untraced round between two traced ones, checks that every count repeats
exactly between the traced rounds, and reports the per-layer metrics; the
traced against the untraced wall time is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw per-round
records go to perfbench/results/.  ``--workload all`` runs every workload
in turn and prints one such line for each.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("diagram", "frad_table", "frad_z", "lattice")
DEADLINE_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 3  # set-up-only interpreters per run, besides the rounds

END_TO_END = {  # name -> unit
    "wall_s": "s", "setup_s": "s", "items_per_s": "1/s",
    "item_p50_ms": "ms", "item_tail_ms": "ms", "peak_rss_mb": "MB",
}


class RunError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload, seed, trace_file, deadline, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    if setup_only:
        cmd.append("--setup-only")
    t = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - t))
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        raise RunError(f"{workload} round exceeded the {DEADLINE_S} s limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"{workload} round exited {proc.returncode}:\n"
                       + proc.stderr[-2000:])
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["process_s"] = time.monotonic() - t
    return record


def another_round(started, rounds, seconds) -> bool:
    per_round = statistics.median(r["process_s"] for r in rounds)
    return time.monotonic() - started + per_round / 2 < seconds


def tail_percentile(items_per_round: int) -> int:
    """Highest whole percentile with at least ten of a round's items beyond it."""
    if items_per_round < 40:
        raise RunError("a tail needs at least 40 items per round")
    return math.floor(100 * (1 - 10 / items_per_round))


def end_to_end(rounds, setups) -> dict:
    latencies = [x for r in rounds for x in r["latencies_s"]]
    q = tail_percentile(rounds[0]["attempted"])
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] for r in rounds + setups),
        "items_per_s": (sum(r["attempted"] for r in rounds)
                        / sum(r["item_s"] for r in rounds)),
        "item_p50_ms": 1000 * statistics.median(latencies),
        "item_tail_ms": 1000 * statistics.quantiles(latencies, n=100)[q - 1],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(traced) -> tuple[dict, list]:
    """Counts and ratios from the first traced round (they must repeat
    exactly in the others); times as the median over traced rounds."""
    import tracing
    first = traced[0]["layer"]
    problems = [f"{name} differs between traced rounds"
                for name, v in first.items()
                if not name.endswith("_s")
                and any(r["layer"][name] != v for r in traced[1:])]
    metrics = {}
    for name, v in first.items():
        if name.endswith("_s"):
            metrics[name] = {"value": statistics.median(r["layer"][name]
                                                        for r in traced),
                             "unit": "s"}
        elif name.endswith("_ratio"):
            metrics[name] = {"value": v, "unit": "ratio"}
        else:
            metrics[name] = {"value": v, "unit": "count"}
    missing = [n for n in tracing.EXACT_COUNTS if n not in metrics]
    problems += [f"{n} not measured" for n in missing]
    return metrics, problems


def run_workload(workload, seed, seconds, trace) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    rounds = []
    if not trace:
        setups = [run_child(workload, seed, None, deadline, setup_only=True)
                  for _ in range(SETUP_SAMPLES)]
        rounds.append(run_child(workload, seed, None, deadline))
        while another_round(started, rounds, seconds):
            rounds.append(run_child(workload, seed, None, deadline))
        metrics, layer_problems = end_to_end(rounds, setups), []
    else:
        plan = [True, False, True]
        while plan or another_round(started, rounds, seconds):
            traced = plan.pop(0) if plan else not rounds[-1]["traced"]
            spans = (RESULTS / f"{workload}-seed{seed}-round{len(rounds)}"
                     ".spans.npz") if traced else None
            rounds.append(run_child(workload, seed, spans, deadline))
        metrics, layer_problems = per_layer([r for r in rounds if r["traced"]])

    problems = layer_problems + [p for r in rounds for p in r["problems"]]
    correct = all(r["reports_ok"] for r in rounds) and not layer_problems
    walls = {t: statistics.median(r["wall_s"] for r in rounds
                                  if r["traced"] == t)
             for t in (False, True) if any(r["traced"] == t for r in rounds)}
    result = {"correct": correct,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    info = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "rounds": len(rounds), "wall_by_traced": walls,
            "cpus": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            **rounds[0]["env"], "problems": problems[:20]}
    raw = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    raw.write_text(json.dumps({"info": info, "result": result,
                               "rounds": rounds}) + "\n")
    return {"info": info, "result": result}


def summary(out) -> str:
    info, result = out["info"], out["result"]
    lines = [f"{info['workload']}: seed {info['seed']}, {info['rounds']} rounds,"
             f" attempted {result['attempted']}, failed {result['failed']},"
             f" correct {str(result['correct']).lower()}"]
    if info["trace"]:
        u, t = info["wall_by_traced"][False], info["wall_by_traced"][True]
        lines.append(f"  tracing overhead: wall {t:.3f} s traced vs "
                     f"{u:.3f} s untraced ({t / u - 1:+.1%})")
    for name, m in result["metrics"].items():
        lines.append(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  env: {info['cpus_usable']}/{info['cpus']} CPUs, python "
                 f"{info['python']}, numpy {info['numpy']}, sympy {info['sympy']}")
    lines.extend(f"  problem: {p}" for p in info["problems"][:5])
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fuzzideal" / "__init__.py").is_file():
        print(f"no fuzzideal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(summary(out), flush=True)
            print(json.dumps(out["result"]), flush=True)
    except RunError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
