"""Reference figures: the ROADMAP Baseline ladder, re-measured.

    python3 perfbench/ladder.py

Each entry is one CLI command in a fresh interpreter, with the same
isolation as the benchmark's rounds (fixed PYTHONHASHSEED, one numpy
thread).  The wall time includes interpreter start.  An entry is run three
times, once if its first run takes over 20 s; one that runs past 120 s is
killed and recorded as such.  The median of the runs goes to
perfbench/results/ladder.json and to standard output.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from run import RESULTS, ROOT, child_env

LADDER = (
    ("diagram", "Zn(12)"), ("diagram", "Mat(2,Zn(2))"),
    ("diagram", "Tri(2,Zn(3))"), ("diagram", "Zn(64)"), ("diagram", "Zn(360)"),
    ("diagram", "Z", "--bound", "64"),
    ("check-frad", "Zn(12)"), ("check-frad", "Mat(2,Zn(2))"),
    ("check-frad", "Tri(2,Zn(3))"), ("check-frad", "Z", "--bound", "64"),
    ("check-charprime", "Tri(2,Zn(3))"), ("check-inter", "Tri(2,Zn(3))"),
    ("ideals", "Zn(64)"), ("ideals", "Mat(2,Zn(3))"),
    ("ideals", "Prod(Zn(4),Zn(9),Zn(5))"), ("ideals", "Zn(360)"),
    ("ideals", "Mat(2,Zn(4))"),
)
IMPORT = ("import fuzzideal",)
REPEATS = 3
TIMEOUT_S = 120


def timed(argv, timeout):
    t = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        return None
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited {proc.returncode}: {proc.stderr[-500:]}")
    return time.monotonic() - t


def main():
    entries = [IMPORT] + list(LADDER)
    out = []
    for entry in entries:
        if entry is IMPORT:
            cmd = [sys.executable, "-c", "import fuzzideal"]
        else:
            command, ring, *extra = entry
            cmd = [sys.executable, "-m", "fuzzideal.cli", command,
                   "--ring", ring, *extra]
        runs = []
        while len(runs) < REPEATS:
            wall = timed(cmd, TIMEOUT_S)
            runs.append(wall)
            if wall is None or wall > 20:
                break
        done = [w for w in runs if w is not None]
        row = {"entry": " ".join(entry), "runs": runs,
               "median_s": statistics.median(done) if done else None,
               "timed_out": len(done) < len(runs)}
        out.append(row)
        shown = (f"> {TIMEOUT_S} s" if row["timed_out"]
                 else f"{row['median_s']:.2f} s")
        print(f"{row['entry']:45s} {shown}  ({len(runs)} run(s))", flush=True)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "ladder.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
