"""The benchmark harness still runs and traces against the package."""
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_diagram_round(tmp_path):
    """One traced ``diagram`` round: every item passes its output checks,
    the report checks hold, and the tracer installed on every traced name
    (the SD1 wrapper reads the ``(witness, exhausted)`` pair)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", "diagram", "--seed", "0",
         "--trace", str(tmp_path / "t.npz")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["failed"] == 0, result["problems"]
    assert result["reports_ok"], result["problems"]
    assert result["layer"]["primeness.SD1_witness.exhausted"] == 0
    assert result["layer"]["primeness.SD1_witness.calls"] > 0
