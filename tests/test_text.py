"""The literal grammar: printed forms, rejected inputs, and the README examples."""

import re
import shlex
from pathlib import Path

import pytest

from bosonfermion.boson import parse_boson
from bosonfermion.cli import main
from bosonfermion.fermion import parse_fermion
from bosonfermion.geometry import parse_quiver
from bosonfermion.scalars import parse_tlaurent, parse_tscalar

# (literal, printed form of the parsed value); most literals print as themselves
SCALARS = [
    ("(t^2 - 1) / (t^2 + 2*t + 1)", "(t - 1) / (t + 1)"),
    ("(t^2 + 1) / t", "t + t^-1"),
    ("-9*t^6", "-9*t^6"),
    ("0", "0"),
    ("1/2*t^-2", "1/2*t^-2"),
    ("-t^-1", "-t^-1"),
    ("1 / (2*t^3 + 2*t)", "1/2*t^-1 / (t^2 + 1)"),
    ("(t - 1) / (t + 1)", "(t - 1) / (t + 1)"),
    ("2^-1", "1/2"),
    ("-(t - 1)^2", "-t^2 + 2*t - 1"),
    ("+t", "t"),
    ("- -t", "t"),
    ("t^0", "1"),
    ("(1/2)*t", "1/2*t"),
    ("3/4 - t", "-t + 3/4"),
    ("t*t/t", "t"),
    ("t - t", "0"),
    ("  7  ", "7"),
    ("10/4", "5/2"),
    ("-2/3*t^2 + 1/3", "-2/3*t^2 + 1/3"),
]

BOSONS = [
    ("(1/3)*p1^3 + (-1/3)*p3", "(1/3)*p1^3 + (-1/3)*p3"),
    ("q^2 * (p1)", "q^2 * (p1)"),
    ("p2 p1", "p1 p2"),
    ("0", "0"),
    ("q", "q"),
    ("q^-1", "q^-1"),
    ("q^-2 * p1", "q^-2 * (p1)"),
    ("p1/2", "(1/2)*p1"),
    ("2 p1 p1", "(2)*p1^2"),
    ("(p1 + p2)^2", "p2^2 + (2)*p1 p2 + p1^2"),
    ("-p3 + 1/2", "(-1)*p3 + 1/2"),
    ("p1 - p1", "0"),
    ("q^0", "1"),
    ("p10", "p10"),
    ("(1/2)*p1^2 + (-1/2)*p2", "(1/2)*p1^2 + (-1/2)*p2"),
    ("2*q*p1 + q", "q * ((2)*p1 + 1)"),
    ("p1 / -2", "(-1/2)*p1"),
    ("p1^0", "1"),
    ("+p2", "p2"),
]

FERMIONS = [
    ("phi[2] - 1/2*phi[1,1]", "phi[2] - 1/2*phi[1,1]"),
    ("phi[1]@-1", "phi[1]@-1"),
    ("vac(-2)", "phi[]@-2"),
    ("0", "0"),
    ("vac(0)", "phi[]"),
    ("phi[2,1]@1", "phi[2,1]@1"),
    ("phi[2] + 2*phi[1,1]", "phi[2] + 2*phi[1,1]"),
    ("2 phi[1]", "2*phi[1]"),
    ("1/2 phi[1]", "1/2*phi[1]"),
    ("+phi[1]", "phi[1]"),
    ("-phi[1] + phi[1]", "0"),
    ("phi [2]", "phi[2]"),
    ("phi[ 2 , 1 ]", "phi[2,1]"),
    ("phi[1]@ - 1", "phi[1]@-1"),
    ("phi[1]@+2", "phi[1]@2"),
    ("vac( -2 )", "phi[]@-2"),
    ("phi[1] - phi[2]@1 + vac(3)", "phi[1] - phi[2]@1 + phi[]@3"),
    ("-3*phi[]", "-3*phi[]"),
    ("0*phi[1]", "0"),
    ("4/6*phi[3]", "2/3*phi[3]"),
]

QUIVERS = [
    ("1/2*t*1@[1]", "1/2*t*1@[1]"),
    ("(t^2 - 1)*1@[2]", "(t^2 - 1)*1@[2]"),
    ("-3*1@[1,1]", "-3*1@[1,1]"),
    ("0", "0"),
    ("t^3*1@[2,1]", "t^3*1@[2,1]"),
    ("t*1@[1] + t^2*1@[2]", "t*1@[1] + t^2*1@[2]"),
    ("2 t*1@[1]", "2*t*1@[1]"),
    ("1@[1]*t", "t*1@[1]"),
    ("1@[1]*2*t", "2*t*1@[1]"),
    ("t^2/3*1@[1]", "1/3*t^2*1@[1]"),
    ("(t + 1)/2*1@[1]", "(1/2*t + 1/2)*1@[1]"),
    ("1 @ [1]", "1@[1]"),
    ("1@[]", "1@[]"),
    ("-1@[1] - 2*1@[2]", "-1@[1] - 2*1@[2]"),
    ("(t - t)*1@[1]", "0"),
    ("1*1@[1]", "1@[1]"),
    ("(2*t^2 + t)*1@[2] + 1@[1,1]", "(2*t^2 + t)*1@[2] + 1@[1,1]"),
    ("1@[2]*t^2/2", "1/2*t^2*1@[2]"),
    ("01@[2]", "1@[2]"),
]

CORPUS = [
    *[(parse_tscalar, literal, printed) for literal, printed in SCALARS],
    *[(parse_boson, literal, printed) for literal, printed in BOSONS],
    *[(parse_fermion, literal, printed) for literal, printed in FERMIONS],
    *[(parse_quiver, literal, printed) for literal, printed in QUIVERS],
]


@pytest.mark.parametrize("parse, literal, printed", CORPUS)
def test_literal_prints_as_pinned(parse, literal, printed):
    assert str(parse(literal)) == printed
    assert str(parse(printed)) == printed


def test_laurent_literals():
    assert str(parse_tlaurent("(t^2 + 1) / t")) == "t + t^-1"
    assert str(parse_tlaurent("-9*t^6")) == "-9*t^6"
    with pytest.raises(ValueError):
        parse_tlaurent("(t - 1) / (t + 1)")


REJECTED = [
    (parse_boson, "p1 +"),
    (parse_tscalar, "t^"),
    (parse_fermion, "phi[2]@"),
    (parse_fermion, "phi[2,1"),
    (parse_fermion, "3"),
    (parse_boson, "p1^-1"),
    (parse_boson, "p1/p2"),
    (parse_quiver, "t^-1*1@[1]"),
    (parse_fermion, "phi[1]*phi[1]"),
    (parse_fermion, "phi[1]*2"),
    (parse_fermion, "phi[1] + 2"),
    (parse_fermion, "vac(1)@1"),
    (parse_fermion, "p1"),
    (parse_boson, "p"),
    (parse_boson, "t"),
    (parse_boson, "(p1"),
    (parse_boson, "p1)"),
    (parse_boson, "p1^p2"),
    (parse_boson, "p1/0"),
    (parse_boson, "2^-1"),
    (parse_tscalar, "t +"),
    (parse_tscalar, "x"),
    (parse_tscalar, ""),
    (parse_tscalar, "2 t"),
    (parse_tscalar, "t^2^2"),
    (parse_tscalar, "t^+2"),
    (parse_tscalar, "1@[1]"),
    (parse_quiver, "2@[1]"),
    (parse_quiver, "t"),
    (parse_quiver, "1@[1] + t"),
    (parse_quiver, "t/t*1@[1]"),
    (parse_quiver, "1/0*1@[1]"),
    (parse_quiver, "1@[1"),
    (parse_quiver, "t^-1*t*1@[1]"),
    (parse_quiver, "1@[1]@[2]"),
]


@pytest.mark.parametrize("parse, literal", REJECTED)
def test_literal_is_rejected(parse, literal):
    with pytest.raises(ValueError):
        parse(literal)


# One atom of each grammar; every grammar reads ^, and a fermionic state has no powers.
POWER_BASES = [(parse_tscalar, "t"), (parse_boson, "p1"), (parse_boson, "q"), (parse_quiver, "t"),
               (parse_fermion, "phi[1]")]


def _outcome(parse, literal):
    try:
        return str(parse(literal))
    except ValueError as error:
        return str(error).replace(repr(literal), "LITERAL")


@pytest.mark.parametrize("parse, base", POWER_BASES)
@pytest.mark.parametrize("bracketed, bare", [("^(2)", "^2"), ("^(-2)", "^-2"), ("^(+2)", "^2"), ("^( 0 )", "^0")])
def test_a_parenthesised_exponent_reads_as_the_bare_one(parse, base, bracketed, bare):
    """An exponent in parentheses is the same integer: its literal parses to
    the same value, or fails with the same message."""
    suffix = "*1@[1,1]" if parse is parse_quiver else ""
    assert _outcome(parse, base + bracketed + suffix) == _outcome(parse, base + bare + suffix)


@pytest.mark.parametrize("parse, base", POWER_BASES)
@pytest.mark.parametrize("exponent, message", [
    ("^(1/2)", "non-integer exponent"),
    ("^(x)", "unexpected character 'x'"),
    ("^(2", "non-integer exponent"),
    ("^((2))", "non-integer exponent"),
    ("^(-)", "non-integer exponent"),
])
def test_an_exponent_that_is_not_one_integer_in_parentheses_is_refused(parse, base, exponent, message):
    literal = base + exponent
    with pytest.raises(ValueError, match=re.escape(f"{message} in ")):
        parse(literal)


@pytest.mark.parametrize("argv, out", [
    (["inner", "boson", "p1^(2)", "p1^2"], "2\n"),
    (["correspond", "eta", "t^(2)*1@[1,1]"], '{"n": 2, "restrictions": {"[2]": "0", "[1,1]": "2*t^2"}}\n'),
    (["localize", "integrate", '{"n": 1, "restrictions": {"[1]": "t^(-2)"}}'], "-t^-4\n"),
])
def test_a_parenthesised_exponent_is_served(capsys, argv, out):
    assert main(argv) == 0
    assert capsys.readouterr() == (out, "")


def _readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text.splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ bosonfermion ") and not re.match(r"\$ bosonfermion verify all\b", line):
            examples.append((shlex.split(line[2:])[1:], lines[i + 1]))
    return examples


def test_readme_examples_print_as_documented(capsys):
    examples = _readme_examples()
    assert len(examples) >= 6
    for argv, expected in examples:
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert (out, err) == (expected + "\n", ""), argv


# The shared grammar lets every literal use parentheses, unary signs and
# products wherever the value type defines them.
WIDENED = [
    (parse_fermion, "2*(phi[1] + phi[2]@1)", "2*phi[1] + 2*phi[2]@1"),
    (parse_fermion, "phi[1] + -phi[2]", "phi[1] - phi[2]"),
    (parse_quiver, "2*-1@[1]", "-2*1@[1]"),
    (parse_quiver, "t*(1@[1] + 1@[2])", "t*1@[1] + t*1@[2]"),
]


@pytest.mark.parametrize("parse, literal, printed", WIDENED)
def test_shared_grammar_forms(parse, literal, printed):
    assert str(parse(literal)) == printed


@pytest.mark.parametrize("parse, literal", [
    (parse_quiver, "1@[1]*1@[2]"),
    (parse_quiver, "1@[1]*"),
    (parse_boson, "(2*q)^-1"),
    (parse_fermion, "phi[1]^2"),
])
def test_malformed_products_are_rejected(parse, literal):
    with pytest.raises(ValueError):
        parse(literal)


@pytest.mark.parametrize("parse, literal", [
    (parse_tscalar, "1/0"),
    (parse_fermion, "1/0*phi[1]"),
    (parse_boson, "p1/0"),
    (parse_quiver, "1/0*1@[1]"),
])
def test_zero_divisor_is_a_value_error(parse, literal):
    with pytest.raises(ValueError):
        parse(literal)


def test_zero_divisor_message_names_the_literal():
    with pytest.raises(ValueError, match=r"division by zero in state literal '1/0\*phi\[1\]'"):
        parse_fermion("1/0*phi[1]")


def test_zero_divisor_exits_2_with_a_message(capsys):
    assert main(["correspond", "tau", "1/0*phi[1]"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: division by zero in state literal")
