"""CLI behavior: reports, exit codes, determinism, witness re-validation."""
import json
import pathlib

import pytest

from fuzzideal import parse_element, parse_fuzzy_spec, parse_ring
from fuzzideal.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_ideals_zn6(capsys):
    rep = run_json(capsys, "ideals", "--ring", "Zn(6)")
    assert rep["count"] == 4
    primes = [row["ideal"] for row in rep["ideals"] if row["prime"]]
    assert primes == ["<3>", "<2>"]


def test_primes_filter(capsys):
    rep = run_json(capsys, "primes", "--ring", "Zn(6)")
    assert rep["count"] == 2


def test_ideals_matrix_ring(capsys):
    rep = run_json(capsys, "ideals", "--ring", "Mat(2,Zn(2))")
    assert rep["count"] == 2
    zero_row = rep["ideals"][0]
    assert zero_row["prime"] and not zero_row["completely_prime"]


def test_ideals_dot_output(capsys):
    code, out, _ = run(capsys, "ideals", "--ring", "Zn(6)", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and "->" in out


def test_classify_examples(capsys):
    rep = run_json(capsys, "classify", "--ring", "Z",
                   "--fuzzy", "{1:<0>, 4/5:<2>, 3/5:<*>}")
    assert rep["notions"]["D2"] and not rep["notions"]["D1"]
    rep = run_json(capsys, "classify", "--ring", "Z",
                   "--fuzzy", "{1:<0>, 4/5:<4>, 3/5:<*>}")
    assert rep["notions"]["D3"] and not rep["notions"]["D2"]
    rep = run_json(capsys, "classify", "--ring", "Mat(2,Zn(2))",
                   "--fuzzy", "{1:<[[0,0],[0,0]]>, 0:<*>}")
    assert rep["notions"]["PRIME_NEW"] and not rep["notions"]["D4"]


def test_classify_deterministic(capsys):
    args = ("classify", "--ring", "Zn(12)", "--fuzzy", "{1:<4>, 0:<*>}")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_radical_command(capsys):
    rep = run_json(capsys, "radical", "--ring", "Z",
                   "--fuzzy", "{1:<0>, 4/5:<4>, 3/5:<*>}")
    assert rep["frad"] == "{1: <0>, 4/5: <2>, 3/5: <*>}"
    assert rep["fixed_point"] is False
    rep = run_json(capsys, "radical", "--ring", "Zn(12)",
                   "--fuzzy", "{1:<4>, 0:<*>}")
    assert rep["frad"] == "{1: <2>, 0: <*>}"
    rep = run_json(capsys, "radical", "--ring", "Zn(6)",
                   "--fuzzy", "{1:<0>, 0:<*>}")
    assert rep["fixed_point"] is True


def test_radical_experimental_flag(capsys):
    rep = run_json(capsys, "radical", "--ring", "Zn(12)",
                   "--fuzzy", "{1:<0>, 0:<*>}", "--experimental")
    assert rep["experimental_ring_radical"]["rad_of_quotient_is_zero"] is True


def test_diagram_matrix_ring(capsys):
    rep = run_json(capsys, "diagram", "--ring", "Mat(2,Zn(2))",
                   "--corpus", "exhaustive")
    cex = {e["edge"] for e in rep["diagram"] if e["status"] == "counterexample"}
    assert "D2=>D4" in cex and "D2=>D1" in cex


def test_diagram_commutative_no_d4_gap(capsys):
    rep = run_json(capsys, "diagram", "--ring", "Zn(6)")
    edges = {e["edge"]: e["status"] for e in rep["diagram"]}
    assert edges["D2=>D4"] == "implied"  # commutative: no counterexample


def test_diagram_z_finds_d3_not_d2(capsys):
    rep = run_json(capsys, "diagram", "--ring", "Z", "--bound", "32")
    edges = {e["edge"]: e for e in rep["diagram"]}
    assert edges["D3=>D2"]["status"] == "counterexample"
    witness = edges["D3=>D2"]["witness"]["fuzzy"]
    # the reported witness re-validates through classify
    Z = parse_ring("Z")
    from fuzzideal import classify
    notions, _ = classify(parse_fuzzy_spec(Z, witness))
    assert notions["D3"] and not notions["D2"]


def test_diagram_jobs_deterministic(capsys):
    base = ("diagram", "--ring", "Mat(2,Zn(2))")
    _, out1, _ = run(capsys, *base, "--jobs", "1")
    _, out2, _ = run(capsys, *base, "--jobs", "2")
    assert out1 == out2


def test_check_commands(capsys):
    code, _, err = run(capsys, "check-charprime", "--ring", "Zn(6)")
    assert code == 0, err
    code, _, err = run(capsys, "check-inter", "--ring", "Mat(2,Zn(2))")
    assert code == 0, err
    code, _, err = run(capsys, "check-frad", "--ring", "Zn(6)")
    assert code == 0, err


def test_exit_codes(capsys, tmp_path):
    assert run(capsys, "classify", "--ring", "Zn(0)",
               "--fuzzy", "{1:<0>,0:<*>}")[0] == 2
    assert run(capsys, "classify", "--ring", "Zn(6)",
               "--fuzzy", "{1:<0>,1:<2>,0:<*>}")[0] == 4
    assert run(capsys, "classify", "--ring", "Zn(6)",
               "--fuzzy", "{1:<*>}")[0] == 5
    assert run(capsys, "diagram", "--ring", "Zn(12)", "--cap", "10")[0] == 3


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("FUZZIDEAL_CAP", "5")
    assert run(capsys, "diagram", "--ring", "Zn(6)")[0] == 3


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "ideals", "--ring", "Zn(6)",
                       "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["count"] == 4


def test_witness_revalidation(capsys):
    rep = run_json(capsys, "classify", "--ring", "Mat(2,Zn(2))",
                   "--fuzzy", "{1:<[[0,0],[0,0]]>, 0:<*>}")
    R = parse_ring("Mat(2,Zn(2))")
    P = parse_fuzzy_spec(R, rep["fuzzy"])
    w = rep["witnesses"]["D4"]
    x, y = parse_element(R, w["x"]), parse_element(R, w["y"])
    assert P(R.mul(x, y)) not in (P(x), P(y))
    w0 = rep["witnesses"]["D0"]
    from fuzzideal.dsl import parse_value
    t, s = parse_value(w0["t"]), parse_value(w0["s"])
    x, y = parse_element(R, w0["x"]), parse_element(R, w0["y"])
    assert P(x) < t and P(y) < s and min(t, s) <= P(R.mul(x, y))


def test_random_corpus_requires_seed_and_is_reproducible(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "diagram", "--ring", "Zn(6)", "--corpus", "random")
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    base = ("diagram", "--ring", "Zn(6)", "--corpus", "random",
            "--seed", "7", "--cap", "20")
    _, out1, _ = run(capsys, *base)
    _, out2, _ = run(capsys, *base)
    assert out1 == out2


@pytest.mark.parametrize("extra", [
    ("--cap", "0"), ("--cap", "-1"), ("--jobs", "0"),
    ("--corpus", "random", "--seed", "1", "--cap", "0"),
])
def test_bad_counts_exit_2(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "diagram", "--ring", "Zn(6)", *extra)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "radical"])
def test_grid_option_is_gone(capsys, command):
    """Quantifiers always range over value_grid(P): a grid that lacks P's
    values made D0, D0' and SD0' incomplete, so --grid is an unknown
    argument."""
    with pytest.raises(SystemExit) as exc:
        run(capsys, command, "--ring", "Zn(6)",
            "--fuzzy", "{1:<0>, 1/2:<2>, 0:<*>}", "--grid", "1/2,1/2")
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid" in capsys.readouterr().err


def test_env_cap_read_on_every_call(capsys, monkeypatch):
    """The parser is built once; FUZZIDEAL_CAP still counts per call."""
    monkeypatch.setenv("FUZZIDEAL_CAP", "5")
    assert run(capsys, "diagram", "--ring", "Zn(6)")[0] == 3
    monkeypatch.delenv("FUZZIDEAL_CAP")
    assert run(capsys, "diagram", "--ring", "Zn(6)")[0] == 0


def test_env_cap_validated(capsys, monkeypatch):
    monkeypatch.setenv("FUZZIDEAL_CAP", "0")
    with pytest.raises(SystemExit) as exc:
        run(capsys, "diagram", "--ring", "Zn(6)")
    assert exc.value.code == 2


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_bound_below_one_exits_2(capsys, bound):
    """A generator bound below 1 is a bad argument, not a theorem failure."""
    with pytest.raises(SystemExit) as exc:
        run(capsys, "check-frad", "--ring", "Z", "--bound", bound)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


GOLDEN_IDEALS = {
    "zn12": "Zn(12)",
    "prod_zn2_zn2_zn2": "Prod(Zn(2), Zn(2), Zn(2))",
    "mat2_zn2": "Mat(2, Zn(2))",
    "tri3_zn2": "Tri(3, Zn(2))",
    "quot_tri2_zn3": "Quot(Tri(2, Zn(3)), <[[0,1],[0,0]]>)",
}


@pytest.mark.parametrize("fmt", ["json", "dot", "text"])
@pytest.mark.parametrize("name", sorted(GOLDEN_IDEALS))
def test_ideals_reports_match_golden_files(capsys, name, fmt):
    """`ideals` stdout is byte-identical to the recorded reports in
    tests/data/ideals/ (captured before the table kernels were vectorized)."""
    path = pathlib.Path(__file__).parent / "data" / "ideals" / f"{name}.{fmt}"
    code, out, err = run(capsys, "ideals", "--ring", GOLDEN_IDEALS[name],
                         "--format", fmt)
    assert code == 0, err
    assert out.encode() == path.read_bytes()


def test_lattice_dot_only_built_for_dot(capsys, monkeypatch):
    import fuzzideal.cli as cli

    def fail(*args):
        raise AssertionError("DOT text built for a non-dot format")
    monkeypatch.setattr(cli, "_lattice_dot", fail)
    for fmt in ("json", "text"):
        code, _, err = run(capsys, "ideals", "--ring", "Zn(12)", "--format", fmt)
        assert code == 0, err
