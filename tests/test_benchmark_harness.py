"""The benchmark harness still runs and traces against the package."""
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _round(workload, *extra):
    """One ``perfbench/worker.py`` round at seed 0: every item passes its
    output checks and the report checks hold.  Returns the result."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "0", *extra],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["failed"] == 0, result["problems"]
    assert result["reports_ok"], result["problems"]
    return result


def test_traced_diagram_round(tmp_path):
    """One traced ``diagram`` round; the tracer installed on every traced
    name (the SD1 wrapper reads the ``(witness, exhausted)`` pair)."""
    result = _round("diagram", "--trace", str(tmp_path / "t.npz"))
    assert result["layer"]["primeness.SD1_witness.exhausted"] == 0
    assert result["layer"]["primeness.SD1_witness.calls"] > 0


def test_traced_frad_z_round(tmp_path):
    """One traced ``frad_z`` round: the tracer finds check-frad's grid,
    probes, order and radical by name, and every item passes."""
    result = _round("frad_z", "--trace", str(tmp_path / "t.npz"))
    for name in ("primeness.value_grid", "fuzzy.probe_elements",
                 "fuzzy.FuzzyIdeal.le", "radical.frad"):
        assert result["layer"][f"{name}.calls"] > 0, name


def test_traced_frad_table_round(tmp_path):
    """One traced ``frad_table`` round: the tracer finds check-frad's
    table-ring radical and intersection check by name, and every item
    passes."""
    result = _round("frad_table", "--trace", str(tmp_path / "t.npz"))
    for name in ("crisp.crisp_radical", "radical.frad_intersection_check"):
        assert result["layer"][f"{name}.calls"] > 0, name


def test_lattice_round():
    """One untraced ``lattice`` round: the checks rebuild every ring's
    tables through the checked ``Ring.add``/``mul``/``neg``."""
    _round("lattice")


def test_frad_table_round():
    """One untraced ``frad_table`` round: the prime-avoiding witnesses,
    the order of fuzzy ideals and the shared rank views pass the
    benchmark's own checks."""
    _round("frad_table")


def test_frad_z_round():
    """One untraced ``frad_z`` round: the check's integer-backend path
    (rank-form families over Z, exact generators in the meets) passes
    the benchmark's own FRad checks."""
    _round("frad_z")
