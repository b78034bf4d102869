import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bosonfermion
from bosonfermion.boson import oscillator, parse_boson
from bosonfermion.cli import build_parser, main
from bosonfermion.fermion import alpha, chevalley_e, chevalley_f, parse_fermion, psi, psi_star
from bosonfermion.geometry import LocalizedClass, geometric_boson, hecke_e, hecke_f, parse_quiver

# `python -m bosonfermion.cli` children import the package from where this
# process found it; pytest's pythonpath setting does not reach a subprocess.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(bosonfermion.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_schur_command(capsys):
    code, out, _ = run_cli(capsys, "schur", "[2,1]")
    assert code == 0
    assert out == "(1/3)*p1^3 + (-1/3)*p3\n"
    code, out, _ = run_cli(capsys, "schur", "[]")
    assert out == "1\n"
    code, out, _ = run_cli(capsys, "schur", "[1,1]")
    assert out == "(1/2)*p1^2 + (-1/2)*p2\n"


def test_apply_fermionic(capsys):
    code, out, _ = run_cli(capsys, "apply", "alpha(-1) alpha(-1)", "vac(0)")
    assert code == 0
    assert out == "phi[2] + phi[1,1]\n"
    code, out, _ = run_cli(capsys, "apply", "psi*(1)", "vac(0)")
    assert out == "0\n"
    code, out, _ = run_cli(capsys, "apply", "psi(2)", "vac(0)")
    assert out == "phi[1]@1\n"


def test_apply_geometric(capsys):
    code, out, _ = run_cli(capsys, "apply", "f(0)", "1@[]")
    assert code == 0
    assert out == "t*1@[1]\n"
    code, out, _ = run_cli(capsys, "apply", "F(1) F(0)", "1@[]")
    assert out == "t^2*1@[2]\n"
    code, out, _ = run_cli(capsys, "apply", "f(0)", "1 @ []")  # spaced as the grammar allows
    assert (code, out) == (0, "t*1@[1]\n")


def test_apply_bosonic(capsys):
    code, out, _ = run_cli(capsys, "apply", "p(1)", "p1^2")
    assert code == 0
    assert out == "(2)*p1\n"
    code, out, _ = run_cli(capsys, "apply", "p(-2)", "1")
    assert out == "p2\n"


def test_apply_localized(capsys):
    _, class_json, _ = run_cli(capsys, "localize", "class", "[]")
    code, out, _ = run_cli(capsys, "apply", "p(-1)", class_json.strip())
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 1 and data["restrictions"]["[1]"] == "t"


def test_apply_domain_mismatch(capsys):
    code, _, err = run_cli(capsys, "apply", "psi(1)", "1@[]")
    assert code == 2
    assert "error:" in err


# noun in the error → (literal, its parser, {token: the operator it names})
_DOMAINS = {
    "fermionic states": ("vac(0)", parse_fermion, {
        "psi": psi, "psi*": psi_star, "alpha": alpha, "e": chevalley_e, "f": chevalley_f,
    }),
    "fixed-point classes": ("1@[]", parse_quiver, {
        "E": hecke_e, "F": hecke_f, "e": hecke_e, "f": hecke_f,
    }),
    "bosonic polynomials": ("p1", parse_boson, {"p": oscillator}),
    "localized classes": (
        '{"n": 1, "restrictions": {"[1]": "t"}}',
        lambda text: LocalizedClass.from_json(json.loads(text)),
        {"p": geometric_boson},
    ),
}


@pytest.mark.parametrize("noun", list(_DOMAINS))
def test_every_operator_token_on_every_domain(capsys, noun):
    literal, parse, acting = _DOMAINS[noun]
    for token in ["psi", "psi*", "alpha", "e", "f", "E", "F", "p"]:
        for k in (1, -1):
            code, out, err = run_cli(capsys, "apply", f"{token}({k})", literal)
            op = acting.get(token)
            if op is None:
                assert (code, out, err) == (2, "", f"error: operator {token}({k}) does not act on {noun}\n")
                continue
            value = op(k, parse(literal))
            shown = json.dumps(value.to_json()) if isinstance(value, LocalizedClass) else str(value)
            assert (code, out, err) == (0, shown + "\n", "")


def test_apply_divisibility_error(capsys):
    code, _, err = run_cli(capsys, "apply", "E(0)", "1@[1]")
    assert code == 2
    assert "divisible" in err


def test_correspond_commands(capsys):
    code, out, _ = run_cli(capsys, "correspond", "sigma", "phi[2,1]")
    assert out == "(1/3)*p1^3 + (-1/3)*p3\n"
    code, out, _ = run_cli(capsys, "correspond", "sigma-inverse", "p1^2")
    assert out == "phi[2] + phi[1,1]\n"
    code, out, _ = run_cli(capsys, "correspond", "tau", "phi[2,1]")
    assert out == "t^3*1@[2,1]\n"
    code, out, _ = run_cli(capsys, "correspond", "chain", "phi[2,1]", "--json")
    data = json.loads(out)
    assert data["equal"] is True
    assert data["chain"] == data["sigma"] == "(1/3)*p1^3 + (-1/3)*p3"


def test_correspond_eta_phi_pipeline(capsys):
    _, quiver_text, _ = run_cli(capsys, "correspond", "tau", "phi[2,1]")
    _, localized_json, _ = run_cli(capsys, "correspond", "eta", quiver_text.strip())
    _, poly_text, _ = run_cli(capsys, "correspond", "phi", localized_json.strip())
    assert poly_text == "(1/3)*p1^3 + (-1/3)*p3\n"
    _, back, _ = run_cli(capsys, "correspond", "eta-inverse", localized_json.strip())
    assert back == quiver_text


def test_inner_commands(capsys):
    code, out, _ = run_cli(capsys, "inner", "fermion", "2*phi[1] + 3*phi[2]", "phi[2]")
    assert out == "3\n"
    code, out, _ = run_cli(capsys, "inner", "boson", "p2 p1", "p2 p1")
    assert out == "2\n"
    _, a, _ = run_cli(capsys, "localize", "class", "[2,1]")
    code, out, _ = run_cli(capsys, "inner", "geometric", a.strip(), a.strip())
    assert out == "1\n"


def test_localize_commands(capsys):
    code, out, _ = run_cli(capsys, "localize", "euler", "[2,1]")
    assert out == "-9*t^6\n"
    code, out, _ = run_cli(capsys, "localize", "fundamental", "[1]")
    assert json.loads(out)["restrictions"]["[1]"] == "-t^2"
    _, class_json, _ = run_cli(capsys, "localize", "class", "[2]")
    code, out, _ = run_cli(capsys, "localize", "integrate", class_json.strip())
    assert out == "1/2*t^-2\n"
    code, out, _ = run_cli(capsys, "localize", "weight", "[1]")
    assert json.loads(out) == {"-1": 1, "0": -1, "1": 1}


@pytest.mark.parametrize("command, dest, choices, positionals", [
    ("correspond", "map",
     ["sigma", "sigma-inverse", "tau", "eta", "eta-inverse", "phi", "phi-inverse", "chain"], ["state"]),
    ("inner", "side", ["fermion", "boson", "geometric"], ["left", "right"]),
    ("localize", "action", ["euler", "class", "fundamental", "integrate", "weight"], ["argument"]),
])
def test_subcommand_surface(capsys, monkeypatch, command, dest, choices, positionals):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "bogus", *positionals])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {dest}: invalid choice: " in err
    assert re.findall(r"[\w-]+", err.split("choose from", 1)[1]) == choices
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "\n  {" + ",".join(choices) + "}\n" in out
    for name in positionals:
        assert "\n  " + name in out


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "c2-toy")
    assert code == 0
    assert "PASS c2-toy" in out
    code, out, _ = run_cli(capsys, "verify", "commuting-square", "--max-size", "4", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("argv, message", [
    (["clifford", "--max-size", "-1"], "max_size must be at least 0, got -1"),
    (["orthonormality", "--max-size", "-5"], "max_size must be at least 0, got -5"),
    (["correspondence", "--max-size", "3", "--charge", "-1"], "charge_bound must be at least 0, got -1"),
    (["serre", "--max-index", "-2", "--json"], "max_index must be at least 0, got -2"),
])
def test_verify_rejects_negative_grid_arguments(capsys, argv, message):
    assert run_cli(capsys, "verify", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["clifford", "--max-size", "30"], "max_size must be at most 20, got 30"),
    (["serre", "--max-index", "100000000"], "max_index must be at most 20, got 100000000"),
    (["all", "--max-size", "4", "--charge", "21"], "charge_bound must be at most 20, got 21"),
])
def test_verify_rejects_a_grid_above_the_limit(capsys, argv, message):
    assert run_cli(capsys, "verify", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, empty", [
    (["all", "--max-size", "0", "--max-index", "0", "--charge", "0"],
     "psi-adjointness, alpha-adjointness, geometric-boson-adjointness, ef-commutators, distant-commutation"),
    (["heisenberg-fermion", "--max-index", "0"], "alpha-adjointness"),
])
def test_verify_rejects_a_grid_that_leaves_a_check_empty(capsys, argv, empty):
    assert run_cli(capsys, "verify", *argv) == (2, "", f"error: the grid is too small: {empty} checked nothing\n")


def test_verify_help_states_the_grid_bound_and_its_cost(capsys):
    from bosonfermion.verify import MAX_GRID

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert f"Each bound is an integer from 0 to {MAX_GRID};" in out
    assert "The run time roughly doubles with each step of --max-size" in out
    for option in ("--max-size MAX_SIZE largest", "--max-index MAX_INDEX largest", "--charge CHARGE largest"):
        assert option in out


def test_verify_json_reports_the_rational_backend(capsys):
    from bosonfermion.scalars import Rational

    code, out, _ = run_cli(capsys, "verify", "c2-toy", "--json")
    assert code == 0
    assert json.loads(out)["backend"] == Rational.__module__ in ("fractions", "gmpy2")


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "schur", "[1,2]")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "apply", "frob(1)", "vac(0)")
    assert code == 2
    code, _, err = run_cli(capsys, "inner", "geometric", "{bad json", "{}")
    assert code == 2


def test_malformed_localized_json_exits_2(capsys):
    for text in ["{}", "[]"]:
        code, out, err = run_cli(capsys, "localize", "integrate", text)
        assert code == 2 and out == "" and err.startswith("error:")
    code, out, err = run_cli(capsys, "apply", "p(1)", '{"n":1,"restrictions":{"[1]":7}}')
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["localize", "integrate", '{"n":-1,"restrictions":{}}'],
    ["apply", "p(-1)", '{"n":-1,"restrictions":{}}'],
])
def test_localized_json_of_negative_degree_exits_2(capsys, argv):
    assert run_cli(capsys, *argv) == (2, "", "error: n must be at least 0, got -1\n")


def test_rational_fixed_point_coefficients_reparse(capsys):
    code, out, _ = run_cli(capsys, "correspond", "tau", "1/2*phi[1]")
    assert code == 0
    assert out == "1/2*t*1@[1]\n"
    assert str(parse_quiver(out.strip())) == out.strip()


def test_outputs_reparse(capsys):
    _, out, _ = run_cli(capsys, "schur", "[3,1]")
    reparsed = parse_boson(out.strip())
    from bosonfermion.boson import schur
    from bosonfermion.partitions import Partition

    assert reparsed == schur(Partition((3, 1)))
    _, out, _ = run_cli(capsys, "apply", "alpha(-2)", "vac(0)")
    assert str(parse_fermion(out.strip())) == out.strip()
    _, out, _ = run_cli(capsys, "apply", "F(1) F(0)", "1@[]")
    assert str(parse_quiver(out.strip())) == out.strip()


def test_determinism(capsys):
    first = run_cli(capsys, "apply", "alpha(-1) alpha(-1) alpha(-1)", "vac(0)")
    second = run_cli(capsys, "apply", "alpha(-1) alpha(-1) alpha(-1)", "vac(0)")
    assert first == second


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bosonfermion.cli", "verify", "c2-toy"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_hostile_exponent_on_a_monomial_returns_fast():
    proc = subprocess.run(
        [sys.executable, "-m", "bosonfermion.cli", "localize", "integrate",
         '{"n":0,"restrictions":{"[]":"t^3000000"}}'],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=10,
    )
    assert proc.returncode == 0
    assert proc.stdout == "t^3000000\n"


def test_a_hall_pairing_of_the_longest_monomials_returns_fast():
    # z of p1^100000 is 100000!, whose 456,574 digits exceed the printed bound
    for exponent, message in [(100000, "a printed coefficient has at most 4300 digits"),
                              (200000, "a p-monomial may have at most 100000 factors")]:
        proc = subprocess.run(
            [sys.executable, "-m", "bosonfermion.cli", "inner", "boson", f"p1^{exponent}", f"p1^{exponent}"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
            timeout=10,
        )
        assert proc.returncode == 2 and proc.stderr.startswith(f"error: {message}")


def test_operator_index_is_bounded(capsys):
    for word in ["alpha(-20000)", "psi*(-100000000)"]:
        proc = subprocess.run(
            [sys.executable, "-m", "bosonfermion.cli", "apply", word, "vac(0)"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
            timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.startswith("error:")
        assert word in proc.stderr
    code, out, _ = run_cli(capsys, "apply", "alpha(-1000)", "vac(0)")  # the bound itself answers
    assert code == 0 and out.count("phi[") == 1000


def test_charge_of_a_fermionic_state_under_apply_is_bounded(capsys):
    # contracting deep in the vacuum tail of charge 10^12 would build ~10^12 parts
    literal = "phi[3,2]@1000000000000"
    code, out, err = run_cli(capsys, "apply", "e(5)", literal)
    assert (code, out) == (2, "") and literal in err
    assert run_cli(capsys, "apply", "psi(0)", "vac(-1001) + phi[1]")[0] == 2
    assert run_cli(capsys, "apply", "e(5)", "phi[3,2]@1000") == (0, "0\n", "")  # the bound itself answers
    code, out, _ = run_cli(capsys, "correspond", "sigma", literal)  # only apply is bounded
    assert code == 0 and out.startswith("q^1000000000000 * (")


def test_localized_result_of_large_degree_fails_fast():
    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "bosonfermion.cli", *argv],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
            timeout=10,
        )

    # p(60) = 966,467 restrictions would be printed
    proc = cli("apply", "p(-60)", '{"n":0,"restrictions":{"[]":"1"}}')
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: a localized class prints up to degree 20, got 60\n"
    assert cli("localize", "class", "[21]").returncode == 2
    assert cli("localize", "class", "[20]").returncode == 0
    # a sparse class of large degree is still read, integrated and paired
    sparse = '{"n":30,"restrictions":{"[30]":"1"}}'
    proc = cli("localize", "integrate", sparse)
    assert proc.returncode == 0 and proc.stdout.endswith("*t^-60\n")
    assert cli("inner", "geometric", sparse, sparse).returncode == 0


def test_partition_literal_of_many_boxes_fails_fast():
    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "bosonfermion.cli", *argv],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
            timeout=10,
        )

    message = "error: a partition literal has at most 1000 boxes, got 100000000\n"
    for action in ("euler", "weight", "class"):
        proc = cli("localize", action, "[100000000]")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)
    assert cli("schur", "[1001]").returncode == 2
    assert cli("apply", "p(1)", '{"n":1001,"restrictions":{"[1001]":"1"}}').returncode == 2
    assert cli("localize", "weight", "[1000]").returncode == 0
    # a sparse class of degree 30 is still integrated and paired
    sparse = '{"n":30,"restrictions":{"[30]":"1"}}'
    proc = cli("localize", "integrate", sparse)
    assert proc.returncode == 0 and proc.stdout.endswith("*t^-60\n")
    assert cli("inner", "geometric", sparse, sparse).returncode == 0


def test_coefficient_above_the_printing_bound_exits_2_naming_it(capsys):
    message = "error: a printed coefficient has at most 4300 digits in its numerator and in its denominator\n"
    # (1000!)^2 has about 5,100 digits; 2000! about 5,700
    for argv in (("localize", "euler", "[1000]"), ("inner", "boson", "p1^2000", "p1^2000")):
        assert run_cli(capsys, *argv) == (2, "", message)
    code, out, _ = run_cli(capsys, "localize", "euler", "[700]")
    assert code == 0 and len(out) > 3000 and out.endswith("*t^1400\n")


def test_word_of_two_large_alpha_operators_returns_fast():
    proc = subprocess.run(
        [sys.executable, "-m", "bosonfermion.cli", "apply", "alpha(1000) alpha(-1000)", "vac(0)"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1000*phi[]\n", "")


def _request(argv):
    """(exit code, stdout, stderr) of one cli.main call, a usage error's
    SystemExit read as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh_parser_request(argv):
    """What a parser built for this one request prints for a usage error or --help."""
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def test_parser_is_built_once_and_requests_share_no_state(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    _request(["schur", "[1]"])  # the first request builds the parser
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in [["schur", "[2,1]"], ["inner", "boson", "p1", "p1"], ["apply", "alpha(-1)", "vac(0)"],
                 ["correspond", "sigma", "phi[1]", "--json"]] * 5:
        assert _request(argv)[0] == 0
    assert built == []
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)

    schur_json = '[{"q": 0, "p": [[1, 3]], "coeff": "1/3"}, {"q": 0, "p": [[3, 1]], "coeff": "-1/3"}]\n'
    assert _request(["schur", "[2,1]", "--json"]) == (0, schur_json, "")
    assert _request(["schur", "[2,1]"]) == (0, "(1/3)*p1^3 + (-1/3)*p3\n", "")  # --json does not stick
    small = "PASS euler-closed-form (checked=7)\nPASS pullback-of-pushforward (checked=7)\n"
    assert _request(["verify", "euler", "--max-size", "3"]) == (0, small, "")
    default = "PASS euler-closed-form (checked=139)\nPASS pullback-of-pushforward (checked=67)\n"
    assert _request(["verify", "euler"]) == (0, default, "")  # the default size comes back
    assert _request(["verify", "c2-toy", "--max-size", "3"]) == (0, "PASS c2-toy (checked=3)\n", "")
    assert _request(["verify", "c2-toy"]) == (0, "PASS c2-toy (checked=3)\n", "")
    parse_error = "error: partition parts must be weakly decreasing, got (1, 2)\n"
    assert _request(["schur", "[1,2]"]) == (2, "", parse_error)
    usage = _request(["verify", "bogus"])
    assert usage[:2] == (2, "") and "argument suite: invalid choice: 'bogus'" in usage[2]
    help_page = _request(["correspond", "--help"])
    assert help_page[0] == 0 and help_page[1].startswith("usage: bosonfermion correspond")
    assert usage == _fresh_parser_request(["verify", "bogus"])
    assert help_page == _fresh_parser_request(["correspond", "--help"])


def test_schur_data_of_high_degree_returns_or_fails_fast():
    def correspond(literal):
        return subprocess.run(
            [sys.executable, "-m", "bosonfermion.cli", "correspond", "sigma-inverse", literal],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
            timeout=10,
        )

    proc = correspond("p6^3")  # degree 18
    assert proc.returncode == 0
    assert str(parse_fermion(proc.stdout.strip())) == proc.stdout.strip()
    proc = correspond("p7^3")  # degree 21, above the limit
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("error:")


def test_closed_stdout_exits_without_a_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "bosonfermion.cli", "schur", "[12]"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
    )
    proc.stdout.close()  # the reader goes away before anything is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=30) == 141
    assert err == ""
