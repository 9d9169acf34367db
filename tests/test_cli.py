"""CLI behavior: reports, exit codes, determinism, witness re-validation."""
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from conftest import TABLE_SPECS
from fuzzideal import (enumerate_ideals, parse_element, parse_fuzzy_spec,
                       parse_ring)
from fuzzideal import cli
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


@pytest.mark.parametrize("spec, primes", [
    ("Zn(6)", ["<3>", "<2>"]),
    ("Tri(3,Zn(2))", [
        "<[[0,0,0],[0,0,0],[0,0,1]], [[0,0,0],[0,1,0],[0,0,0]]>",
        "<[[0,0,0],[0,0,0],[0,0,1]], [[0,1,0],[0,0,0],[0,0,0]], "
        "[[1,0,0],[0,0,0],[0,0,0]]>",
        "<[[0,0,0],[0,0,1],[0,0,0]], [[0,0,0],[0,1,0],[0,0,0]], "
        "[[1,0,0],[0,0,0],[0,0,0]]>"])])
def test_primes_dot_draws_only_the_primes(capsys, spec, primes):
    """`primes --format dot` draws the prime rows of the JSON report and
    no edge: the primes of a finite ring are pairwise incomparable."""
    rows = run_json(capsys, "primes", "--ring", spec)["ideals"]
    assert [row["ideal"] for row in rows] == primes
    code, out, err = run(capsys, "primes", "--ring", spec, "--format", "dot")
    assert code == 0, err
    assert out == "".join(['digraph lattice {\n  rankdir="BT";\n',
                           *(f'  "{name}";\n' for name in primes), "}\n"])


@pytest.mark.parametrize("argv", [
    ("ideals", "--ring", "Z", "--bound", "3"),
    ("primes", "--ring", "Z", "--bound", "3"),
    ("classify", "--ring", "Zn(6)", "--fuzzy", "{1: <2>, 0: <*>}"),
    ("radical", "--ring", "Zn(6)", "--fuzzy", "{1: <2>, 0: <*>}"),
    ("diagram", "--ring", "Zn(6)"),
    ("check-charprime", "--ring", "Zn(6)"),
    ("check-inter", "--ring", "Zn(6)"),
    ("check-frad", "--ring", "Zn(6)")], ids=lambda argv: " ".join(argv[:3]))
def test_dot_without_a_dot_form_exits_2(capsys, tmp_path, argv):
    """--format dot for a report that has no DOT form is a bad argument:
    exit 2, one line on stderr, nothing on stdout and no --out file."""
    code, out, err = run(capsys, *argv, "--format", "dot")
    assert (code, out) == (2, "")
    assert err.startswith("--format dot: ") and err.count("\n") == 1
    path = tmp_path / "report.dot"
    assert run(capsys, *argv, "--format", "dot", "--out", str(path))[0] == 2
    assert not path.exists()


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


@pytest.mark.parametrize("ring", [("Tri(2,Zn(2))",), ("Z", "--bound", "8")])
def test_diagram_reports_sd1_sd2_equivalence(capsys, ring):
    """SD1 and SD2 are decided from the same cuts: the diagram reports
    them equivalent, keeps the asserted SD1=>SD2 and probes no SD2=>SD1."""
    rep = run_json(capsys, "diagram", "--ring", *ring)
    edges = {e["edge"]: e["status"] for e in rep["diagram"]}
    assert edges["SD1<=>SD2"] == "implied"
    assert edges["SD1=>SD2"] == "implied"
    assert "SD2=>SD1" not in edges


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


@pytest.mark.parametrize("mode, message", [
    ([], "the 1000000 length-2 chain items at bound 100000 exceed cap "
         "100000"),
    (["--corpus", "random", "--seed", "1"],
     "the ideal lattice at bound 100000 has 100001 ideals, above the size "
     "limit 4096")])
def test_huge_z_bound_exits_3_before_the_walk(capsys, mode, message):
    """A Z corpus at bound 100,000 would build 100,001 subset rows of
    100,001 entries before its first item; it ends in exit 3 within a
    second instead."""
    start = time.perf_counter()
    code, out, err = run(capsys, "check-frad", "--ring", "Z", "--bound",
                         "100000", *mode)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith(f"resource limit: {message}")


def test_radical_factors_a_product_of_two_large_primes(capsys):
    """1000036000099 = 1000003 * 1000033 has no divisor up to 10**6: its
    radical is itself, split by Pollard-Brent rho."""
    rep = run_json(capsys, "radical", "--ring", "Z",
                   "--fuzzy", "{1: <1000036000099>, 0: <*>}")
    assert rep["frad"] == "{1: <1000036000099>, 0: <*>}"
    assert rep["fixed_point"] is True


def test_unsupported_ring_exits_2(capsys):
    """The four-way equivalence of check-charprime needs a table ring: on
    Z it ends in one line on stderr and exit 2, not a traceback."""
    code, out, err = run(capsys, "check-charprime", "--ring", "Z",
                         "--bound", "4")
    assert (code, out) == (2, "")
    assert err == ("unsupported ring: the equivalence check requires a "
                   "table ring\n")


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("FUZZIDEAL_CAP", "5")
    assert run(capsys, "diagram", "--ring", "Zn(6)")[0] == 3


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "ideals", "--ring", "Zn(6)",
                       "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["count"] == 4


def test_out_unwritable_exits_2(capsys, tmp_path):
    """An --out path that cannot be written is a bad argument: exit 2, one
    line on stderr, nothing on stdout."""
    code, out, err = run(capsys, "ideals", "--ring", "Zn(6)",
                         "--out", str(tmp_path / "missing" / "x"))
    assert (code, out) == (2, "")
    assert err.startswith("cannot write --out: ") and err.count("\n") == 1


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
    ("--cap", "0"), ("--cap", "-1"), ("--bound", "0"),
    ("--corpus", "random", "--seed", "1", "--cap", "0"),
])
def test_bad_counts_exit_2(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "diagram", "--ring", "Zn(6)", *extra)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("palette", ["1", "1/2,1/2", "1,1.0"])
@pytest.mark.parametrize("command", ["diagram", "check-charprime",
                                     "check-inter", "check-frad"])
def test_palette_needs_two_distinct_values(capsys, command, palette):
    """No non-constant fuzzy ideal takes one value, so such a palette is
    a bad argument, not an empty or vacuous corpus."""
    code, out, err = run(capsys, command, "--ring", "Zn(4)",
                         "--palette", palette)
    assert (code, out) == (2, "")
    assert "a palette needs at least two distinct values" in err


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


@pytest.mark.parametrize("command", ["diagram", "check-charprime",
                                     "check-inter", "check-frad"])
def test_jobs_option_is_gone(capsys, command):
    """Corpus commands run in one process, so --jobs is an unknown
    argument."""
    with pytest.raises(SystemExit) as exc:
        run(capsys, command, "--ring", "Zn(6)", "--jobs", "2")
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


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


@pytest.mark.parametrize("name, spec", [
    ("zn1024", "Zn(1024)"), ("prod_zn32_zn32", "Prod(Zn(32),Zn(32))")])
def test_ideals_on_1024_element_rings_match_golden_files(capsys, name, spec):
    """`ideals` on two 1024-element rings is byte-identical to the json
    reports recorded while the crisp searches still ran element by
    element."""
    path = pathlib.Path(__file__).parent / "data" / "ideals" / f"{name}.json"
    code, out, err = run(capsys, "ideals", "--ring", spec)
    assert code == 0, err
    assert out.encode() == path.read_bytes()


# sha1 of the `ideals` JSON report on every ring of the benchmark's
# lattice ladder, recorded before the principal ideals were built from
# the additive generators and the crisp flags in one pass per ring
LADDER_SHA1 = (
    ('Zn(8)', '4b925b68c22deaeefd675412b607352e1f8bb777'),
    ('Zn(9)', '33ca9a39dad0f303dcc942c87be78cc3935c1ef3'),
    ('Zn(10)', '0fc5f86fb88885601bbc2e2671f961f687cbadbc'),
    ('Zn(12)', '3de5b4941e0e0d121dd67c42c2bc354908169ce8'),
    ('Zn(14)', 'f9e2b6f514c86a13dd8b0961a15e4e53407fa076'),
    ('Zn(15)', 'cecc1419fb02198b5d7edb9709ffae17fb117f79'),
    ('Zn(16)', 'a155b5d508e6e81163eebd09faa2af5fa45c5084'),
    ('Zn(18)', '53ddf401d5b51212d78f48109896586f90e4cca0'),
    ('Zn(20)', '71e3a6375c9ec2b19c83b32547e3af6ffd33665e'),
    ('Zn(21)', '8ba2c51e0c3aa2dcd76294dafff5b917f3df18cc'),
    ('Zn(22)', '6e66086956800e8f21bc3adc9a04207a3da1de07'),
    ('Zn(24)', '2de2c34856e09a60a5cb55a0fdeb4bdefa5c21ac'),
    ('Zn(25)', '2e256db7653925a44f4d70d5ac2e6bd36a86f04f'),
    ('Zn(26)', '1c7ee9cdbf71f947c78bd943569f24cd4cfd2931'),
    ('Zn(27)', '15777da587106331aea2e12930a5df6003fff498'),
    ('Zn(28)', 'e801f15f6232207db6061bc2d2715cda2dc5dd4c'),
    ('Zn(30)', '99720f9bbac2901fe3437f62a8188308eb684c20'),
    ('Zn(32)', '0c269734ad5af34405a3d129cb45a6dd88958f28'),
    ('Zn(33)', '1a67f00dfe5927c287201ec93b76aef5ea7937cd'),
    ('Zn(36)', '7620d4af42c08e91cd786d4b26ecffceddc5830d'),
    ('Zn(40)', 'f09bd58d06073b1ceeeae10e77146103d2df4203'),
    ('Zn(48)', 'ba1a5d2f3dee43b55867b71d60ff4de2b5179edd'),
    ('Zn(64)', '82ba9724590fffb1bf44fc4ceb0c05ecbac67688'),
    ('Prod(Zn(2), Zn(3))', '3adad20117c9f9989243cd866758d3c5ed164e75'),
    ('Prod(Zn(2), Zn(2), Zn(2))', '0f28020059ac71f480663184191cbb1e93a17c62'),
    ('Prod(Zn(4), Zn(4))', '6ee624e9216a1ef4124a941d140872790290909b'),
    ('Prod(Zn(2), Zn(9))', 'ddece71f9504b55fdb025c33b9f8abcb5c495b25'),
    ('Prod(Zn(3), Zn(3), Zn(3))', 'd8228a6e625abdab62ca059c18a338ca74172e4d'),
    ('Prod(Zn(4), Zn(9))', '3ada065208fbcc2846dafffb70c37b13c72c3cc4'),
    ('Prod(Zn(2), Zn(3), Zn(5))', 'b2407fe4a9ca04dae28c6c85ac5a6b78f92c51ca'),
    ('Prod(Zn(6), Zn(6))', '2de57b25ba17d9b09241c1ae216dd28bfbd3c51b'),
    ('Prod(Zn(4), Zn(3), Zn(5))', 'd38d54d7ffed09c4eebb0beea7a2cb68970edb5c'),
    ('Prod(Zn(5), Zn(7))', '49b518c4bfe8c6bda6b23840aae309eac6c8819b'),
    ('Prod(Mat(2, Zn(2)), Zn(2))', '8eada29afd90ad4961c209bedd9dec44d37e68dc'),
    ('Prod(Tri(2, Zn(2)), Zn(3))', '36591331e866f07307bfa2f080599282865a16cb'),
    ('Mat(2, Zn(2))', 'c2a97ed29139f3ee1fe2342866aea8c99b23b2a5'),
    ('Mat(2, Zn(3))', '95c6aa6fa36c11d43dcc8706d79da6bde57c5463'),
    ('Tri(2, Zn(2))', 'f9c4a4d25830313ad8ef6484290702fa207f59fb'),
    ('Tri(2, Zn(3))', 'e25cd97d711a53d52a4fec4f16fce0a9b154ab36'),
    ('Tri(3, Zn(2))', 'a5bd93961b24b8856b60f33f8391e873094a7a6a'),
)


def test_ideals_on_the_lattice_ladder_are_byte_stable(capsys):
    got = []
    for spec, _ in LADDER_SHA1:
        code, out, err = run(capsys, "ideals", "--ring", spec)
        assert code == 0, err
        got.append((spec, hashlib.sha1(out.encode()).hexdigest()))
    assert got == list(LADDER_SHA1)


def _lattice_dot_triple_scan(ideals, names):
    """The DOT text that _lattice_dot replaced: a cover edge I -> J for
    every I < J with no K strictly between, by a scan over all triples."""
    lines = ["digraph lattice {", '  rankdir="BT";']
    for I in ideals:
        lines.append(f'  "{names[I]}";')
    for I in ideals:
        for J in ideals:
            if I == J or not I.subset(J):
                continue
            if any(K != I and K != J and I.subset(K) and K.subset(J)
                   for K in ideals):
                continue
            lines.append(f'  "{names[I]}" -> "{names[J]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_lattice_dot_matches_the_triple_scan(rings, spec):
    R = rings[spec]
    ideals = enumerate_ideals(R)
    names = {I: cli._ideal_name(R, I) for I in ideals}
    assert cli._lattice_dot(R, ideals, names) == \
        _lattice_dot_triple_scan(ideals, names)


def test_lattice_dot_only_built_for_dot(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("DOT text built for a non-dot format")
    monkeypatch.setattr(cli, "_lattice_dot", fail)
    for fmt in ("json", "text"):
        code, _, err = run(capsys, "ideals", "--ring", "Zn(12)", "--format", fmt)
        assert code == 0, err


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def test_table_ring_commands_never_import_sympy():
    """sympy is a test dependency only: ``ideals`` and ``classify`` on a
    table ring, and the Z commands, which factor with
    ``crisp.factorize``, leave it unimported."""
    proc = _run_fresh(
        "import sys\n"
        "from fuzzideal.cli import main\n"
        "assert main(['ideals', '--ring', 'Zn(6)']) == 0\n"
        "assert main(['classify', '--ring', 'Zn(6)',\n"
        "             '--fuzzy', '{1: <2>, 1/2: <*>}']) == 0\n"
        "z = ['--ring', 'Z', '--bound', '8']\n"
        "for cmd in ('ideals', 'primes', 'diagram', 'check-inter',\n"
        "            'check-frad'):\n"
        "    assert main([cmd, *z]) == 0, cmd\n"
        "for cmd in ('classify', 'radical'):\n"
        "    assert main([cmd, *z, '--fuzzy', '{1: <12>, 1/2: <2>, 0: <*>}'])"
        " == 0, cmd\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n")
    assert proc.returncode == 0, proc.stderr


def test_commands_never_import_numpy_ma():
    """numpy.ma costs about 20 ms and 1.3 MB of peak RSS to import, and
    ``np.unique`` imports it: ``ideals``, ``diagram`` and ``check-frad``
    on table rings and on Z leave it unimported."""
    proc = _run_fresh(
        "import sys\n"
        "from fuzzideal.cli import main\n"
        "for ring in (['Zn(12)'], ['Tri(2, Zn(2))'], ['Z', '--bound', '8']):\n"
        "    for cmd in ('ideals', 'diagram', 'check-frad'):\n"
        "        assert main([cmd, '--ring', *ring]) == 0, (cmd, ring)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    assert proc.returncode == 0, proc.stderr
