"""The benchmark's output checks catch deliberately corrupted answers.

    python3 -m pytest perfbench/test_checks.py

Each test runs one real round of a workload on a small ring, with one
public function of the program replaced by a version that corrupts its
answer, and asserts that the round counts the item as failed.
"""
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from fuzzideal import crisp, primeness, radical  # noqa: E402


def corrupt_once(monkeypatch, module, name, corrupt):
    """Replace module.name so that its first call returns a corrupted answer."""
    original = getattr(module, name)
    calls = []

    def patched(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(1)
        return corrupt(out, *args) if len(calls) == 1 else out

    monkeypatch.setattr(module, name, patched)


def round_of(name):
    result = worker.run_round(name, seed=0, trace_path=None)
    assert result["attempted"] > 0
    return result


@pytest.fixture
def small_rings(monkeypatch):
    monkeypatch.setattr(workloads, "DIAGRAM_RINGS", ("Zn(6)", "Tri(2,Zn(2))"))
    monkeypatch.setattr(workloads, "FRAD_TABLE_RINGS", ("Zn(4)",))
    monkeypatch.setattr(workloads, "FRAD_Z_BOUND", 4)
    monkeypatch.setattr(workloads, "LATTICE_LADDER",
                        (("Zn", 12), ("Prod", ("Zn", 2), ("Zn", 3)),
                         ("Mat", 2, ("Zn", 2)), ("Tri", 2, ("Zn", 2))))


@pytest.mark.parametrize("name", ["diagram", "frad_table", "frad_z", "lattice"])
def test_uncorrupted_rounds_pass(small_rings, name):
    result = round_of(name)
    assert result["failed"] == 0 and result["reports_ok"], result["problems"]


@pytest.mark.parametrize("notion", ["PRIME_NEW", "SEMIPRIME_NEW", "D4", "SD2"])
def test_flipped_notion_fails(small_rings, monkeypatch, notion):
    def flip(out, P):
        notions, witnesses = out
        return {**notions, notion: not notions[notion]}, witnesses
    corrupt_once(monkeypatch, primeness, "classify", flip)
    assert round_of("diagram")["failed"] == 1


def test_false_witness_fails(small_rings, monkeypatch):
    # the first D4 witness is moved to y = 0; P(x*0) = P(0) = P(y), so it
    # refutes nothing
    original = primeness.classify
    moved = []

    def patched(P, *args, **kwargs):
        notions, witnesses = original(P, *args, **kwargs)
        if not moved and "D4" in witnesses:
            moved.append(P)
            witnesses = {**witnesses, "D4": {**witnesses["D4"], "y": "0"}}
        return notions, witnesses

    monkeypatch.setattr(primeness, "classify", patched)
    assert round_of("diagram")["failed"] == 1 and moved


def test_item_that_raises_fails(small_rings, monkeypatch):
    def boom(out, *args):
        raise RuntimeError("deliberate")
    corrupt_once(monkeypatch, radical, "radical_properties_check", boom)
    result = round_of("frad_table")
    assert result["failed"] == 1


def test_wrong_radical_fails(small_rings, monkeypatch):
    # FRad(I) replaced by I itself on the first item where they differ
    original = radical.frad
    replaced = []

    def patched(I):
        F = original(I)
        if not replaced and F.chain != I.chain:
            replaced.append(I)
            return I
        return F

    monkeypatch.setattr(radical, "frad", patched)
    assert round_of("frad_z")["failed"] == 1 and replaced


def test_wrong_prime_flag_fails(small_rings, monkeypatch):
    corrupt_once(monkeypatch, crisp, "is_prime_ideal",
                 lambda out, R, P: not out)
    assert round_of("lattice")["failed"] == 1


def test_counts_from_ring_theory():
    assert checks.expected_counts(("Zn", 360)) == (24, 3)
    assert checks.expected_counts(
        ("Prod", ("Zn", 4), ("Zn", 9), ("Zn", 5))) == (18, 3)
    assert checks.expected_counts(("Mat", 2, ("Zn", 12))) == (6, 2)
    assert checks.expected_counts(("Tri", 3, ("Zn", 2))) == (14, 3)
    with pytest.raises(checks.CheckFailure):
        checks.expected_counts(("Tri", 2, ("Zn", 4)))


def test_split_generators():
    assert checks.split_generators("<(1, 2), (0, 3)>") == ["(1, 2)", "(0, 3)"]
    assert checks.split_generators("<[[0,1],[0,0]]>") == ["[[0,1],[0,0]]"]
