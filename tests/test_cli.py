import json
import subprocess
import sys

import pytest

from fiberlab import cli
from fiberlab.corpus import (CORPUS_BY_ID, compare_with_golden, compute_entry,
                             load_golden, read_entry_text, strip_objects)


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "fiberlab.cli", *args],
                          capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def simple_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("in") / "m4.ideal"
    p.write_text("ring x, y, z over 32003;\nideal x^2, x*y, x*z, y*z;\n")
    return str(p)


def test_invariants_json(simple_file):
    out = run_cli(["invariants", simple_file])
    assert out.returncode == 0
    tree = json.loads(out.stdout)
    inv = tree["invariants"]
    assert inv["reduction_number"] == 1
    assert inv["rees_cm"] == "CM"
    assert inv["analytic_spread"] == 3


def test_invariants_deterministic_bytes(simple_file):
    a = run_cli(["invariants", simple_file])
    b = run_cli(["invariants", simple_file])
    assert a.stdout == b.stdout
    assert a.returncode == 0


def test_check_exit_codes(simple_file):
    assert run_cli(["check", "gs", simple_file, "--s", "2"]).returncode == 0
    assert run_cli(["check", "perfect", simple_file]).returncode == 1
    assert run_cli(["check", "adjusted", simple_file, "--l", "1"]).returncode == 0
    # unknown verdict: indeg of a complete intersection never appears
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".ideal", delete=False) as fh:
        fh.write("ring x, y, z over 32003; ideal x, y;")
        name = fh.name
    try:
        assert run_cli(["check", "indeg", name]).returncode == 4
    finally:
        os.unlink(name)
    # an empty seed list is an input error, not a false verdict
    for args in (["check", "tight", simple_file], ["invariants", simple_file],
                 ["reproduce", "ex-3-monomial4"]):
        out = run_cli([*args, "--seed", ""])
        assert out.returncode == 2 and "input error" in out.stderr
        assert "Traceback" not in out.stderr


@pytest.mark.parametrize("args", [
    ["check", "tight", "FILE", "--n", "-1"],
    ["check", "gs", "FILE", "--s", "-2"],
    ["check", "vv", "FILE", "--nmax", "-2"],
    ["check", "vv", "FILE", "--nmax", "0"],
    ["check", "adjusted", "FILE", "--l", "0"],
    ["invariants", "FILE", "--rmax", "-1"],
    ["invariants", "FILE", "--cutoff", "0"],
    ["reproduce", "ex-3-monomial4", "--jobs", "0"],
])
def test_out_of_range_flags_exit_two(simple_file, capsys, args):
    """An integer flag outside its range is an input error, before any
    computation, not a verdict or an exceeded bound."""
    with pytest.raises(SystemExit) as exc:
        cli.main([simple_file if a == "FILE" else a for a in args])
    assert exc.value.code == cli.EXIT_INPUT
    assert "must be >=" in capsys.readouterr().err


def test_reduction_search_past_rmax_exits_three(tmp_path):
    """A reduction number not found within --rmax is a skipped item, so
    ``invariants`` exits with the bound code."""
    entry = CORPUS_BY_ID["ex-3-binomial4"]      # reduction number two
    p = tmp_path / entry.filename
    p.write_text(read_entry_text(entry))
    out = run_cli(["invariants", str(p), "--rmax", "1"])
    assert out.returncode == cli.EXIT_BOUND
    tree = json.loads(out.stdout)
    assert tree["invariants"]["reduction_numbers"] == [None, None, None]
    assert set(tree["skipped"]) == {"reduction_number"}
    assert run_cli(["invariants", str(p), "--rmax", "2"]).returncode == cli.EXIT_OK


def test_check_passes_cutoff(simple_file, monkeypatch):
    """``check`` builds its context with the --cutoff given."""
    seen, build = [], cli.IdealContext

    def recorded(*args, **kw):
        ctx = build(*args, **kw)
        seen.append(ctx.cutoff)
        return ctx

    monkeypatch.setattr(cli, "IdealContext", recorded)
    argv = ["check", "gs", simple_file, "--s", "2", "--cutoff", "7"]
    assert cli.main(argv) == cli.EXIT_OK
    assert seen == [7]


@pytest.mark.parametrize("flag", ["--rmax", "--timings"])
def test_check_has_no_unread_flags(simple_file, capsys, flag):
    """No ``check`` predicate reads --rmax or --timings, so they are
    input errors there."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "gs", simple_file, flag, *(["2"] if flag == "--rmax" else [])])
    assert exc.value.code == cli.EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,entry_id,message", [
    (["check", "gs", "FILE", "--cutoff", "1"], "ex-3-monomial4", "presentation not certified"),
    (["invariants", "FILE", "--field", "3"], "ex-3-monomial4",
     "depth descent cm:ex-3-monomial4:rees:depth"),
    (["reproduce", "ex-3-monomial4", "--field", "3"], "ex-3-monomial4",
     "depth descent cm:ex-3-monomial4:rees:depth"),
    (["reproduce", "ex-3-matrix5x4", "--field", "7"], "ex-3-matrix5x4",
     "is not a regular sequence (height drop"),
], ids=["check", "invariants", "reproduce", "vv-height-drop"])
def test_exhausted_bound_exits_three(tmp_path, capsys, argv, entry_id, message):
    """A bounded search that runs out exits with the bound code under
    every command: a resolution past --cutoff; the Rees descent of
    monomial4 over GF(3), whose few linear forms hold too few regular
    ones for its schedule, and which then finds no socle witness either,
    so it certifies no CM verdict; and a Valabrega-Valla prefix drawn
    over GF(7) for matrix5x4 whose ideal has too small a height, a seeded
    draw that missed general position, not an input error."""
    entry = CORPUS_BY_ID[entry_id]
    p = tmp_path / entry.filename
    p.write_text(read_entry_text(entry))
    assert cli.main([str(p) if a == "FILE" else a for a in argv]) == cli.EXIT_BOUND
    err = capsys.readouterr().err
    assert err.startswith("bound exceeded:") and message in err


def test_inexact_rees_descent_exits_three(simple_file, capsys, monkeypatch):
    """A Rees descent that ends with neither a regular form nor a socle
    witness bounds the depth from below only, so it decides no CM
    verdict: ``invariants`` exits with the bound code and prints no
    report."""
    from fiberlab import blowup
    from fiberlab.depth import DepthReport
    real = blowup.graded_depth

    def inexact_rees(ideal, *, seed):
        if ":rees:" in seed:
            return DepthReport(0, ideal.krull_dimension(), False, seed=seed)
        return real(ideal, seed=seed)

    monkeypatch.setattr(blowup, "graded_depth", inexact_rees)
    assert cli.main(["invariants", simple_file]) == cli.EXIT_BOUND
    out = capsys.readouterr()
    assert out.err.startswith("bound exceeded: depth descent cm:m4:rees:depth")
    assert not out.out


def test_adjusted_more_forms_than_generators_exit_two(simple_file):
    """``--l`` above mu asks for more independent forms than the
    generators span: an input error, before any coefficient is drawn."""
    out = run_cli(["check", "adjusted", simple_file, "--l", "9"])
    assert out.returncode == 2
    assert "cannot draw 9 independent forms from mu = 4" in out.stderr


@pytest.mark.parametrize("predicate", cli.CHECK_NAMES + ("invariants",))
def test_unit_ideal_is_an_input_error(tmp_path, capsys, predicate):
    """The unit ideal is equigenerated in degree 0 but has no blow-up
    algebras: every command refuses it the same way, as an input error,
    before any predicate runs."""
    p = tmp_path / "unit.ideal"
    p.write_text("ring x, y, z over 32003; ideal 1;")
    argv = [predicate, str(p)] if predicate == "invariants" else ["check", predicate, str(p)]
    assert cli.main(argv) == cli.EXIT_INPUT
    out = capsys.readouterr()
    assert out.err == "input error: the unit ideal has no blow-up algebras\n"
    assert not out.out


def test_invariants_non_equigenerated_exits_zero(tmp_path):
    """No blow-up block for mixed degrees is a fact about the input, not
    an exceeded bound."""
    p = tmp_path / "mixed.ideal"
    p.write_text("ring x, y, z over 32003;\nideal x^2, y^2, z^2, x*y*z;\n")
    out = run_cli(["invariants", str(p)])
    assert out.returncode == 0
    assert set(json.loads(out.stdout)["skipped"]) == {"blowup"}


def test_invariants_agrees_with_corpus_report(tmp_path):
    """``invariants`` and ``reproduce`` run one pipeline: on a copy of a
    corpus file with the same stem, every invariant the command reports
    equals the corpus report's value."""
    entry = CORPUS_BY_ID["ex-3-monomial4"]
    p = tmp_path / entry.filename
    p.write_text(read_entry_text(entry))
    out = run_cli(["invariants", str(p)])
    assert out.returncode == 0
    inv = json.loads(out.stdout)["invariants"]
    expected = json.loads(json.dumps(compute_entry(entry.id)["invariants"]))
    assert inv and set(inv) <= set(expected)
    assert {k: expected[k] for k in inv} == inv


def test_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.ideal"
    bad.write_text("ring x,y over 0; ideal x+;")
    out = run_cli(["invariants", str(bad)])
    assert out.returncode == 2
    assert "line 1" in out.stderr


@pytest.mark.parametrize("exc", [AssertionError("self-check failed"),
                                 RuntimeError("no independent rows")])
def test_internal_error_exit_five(simple_file, monkeypatch, capsys, exc):
    """An internal fault exits 5, apart from the false verdict's 1."""
    def fail(ctx):
        raise exc
    monkeypatch.setattr(cli, "is_perfect", fail)
    assert cli.main(["check", "perfect", simple_file]) == cli.EXIT_INTERNAL == 5
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and str(exc) in err


def test_invariants_rejects_nmax(simple_file):
    """The basic plan has no per-power check, so --nmax is an input error."""
    out = run_cli(["invariants", simple_file, "--nmax", "2"])
    assert out.returncode == 2
    assert "--nmax" in out.stderr
    assert run_cli(["check", "tight", simple_file, "--nmax", "2"]).returncode != 2


def test_bad_predicate_name(simple_file):
    out = run_cli(["check", "nonsense", simple_file])
    assert out.returncode == 2


def test_markdown_rendering(simple_file):
    out = run_cli(["check", "gs", simple_file, "--s", "2", "--markdown"])
    assert out.returncode == 0
    assert out.stdout.startswith("| key | value |")


def test_reproduce_single_entry():
    report = strip_objects(compute_entry("ex-3-monomial4"))
    golden = load_golden(CORPUS_BY_ID["ex-3-monomial4"])
    assert compare_with_golden(report, golden) == []


def test_reproduce_detects_corruption():
    report = strip_objects(compute_entry("ex-3-monomial4"))
    golden = load_golden(CORPUS_BY_ID["ex-3-monomial4"])
    corrupted = [dict(g) for g in golden]
    corrupted[0] = dict(corrupted[0], value="wrong")
    diffs = compare_with_golden(report, corrupted)
    assert len(diffs) == 1
    assert diffs[0]["problem"] == "mismatch"
    missing = [{"path": "invariants.not_there", "value": 1}]
    diffs2 = compare_with_golden(report, missing)
    assert diffs2[0]["problem"] == "missing"


def test_reproduce_one_returns_only_the_diffs():
    """A worker hands back the golden differences, not its report."""
    assert cli._reproduce_one("ex-3-monomial4", None, (1, 2, 3), None, 12, 60) == []


def test_reproduce_cli_roundtrip():
    out = run_cli(["reproduce", "ex-3-binomial4"])
    assert out.returncode == 0
    tree = json.loads(out.stdout)
    assert tree["ex-3-binomial4"]["ok"] is True


def test_reproduce_unknown_id():
    out = run_cli(["reproduce", "no-such-entry"])
    assert out.returncode == 2


def test_field_flag_rationals():
    out = run_cli(["reproduce", "ex-3-monomial4", "--field", "0"])
    assert out.returncode == 0
