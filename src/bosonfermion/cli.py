"""Command-line front end.

Subcommands
-----------
schur       print the Schur polynomial of a partition in the p-variables
apply       apply a whitespace-separated operator word to a state literal
correspond  map a state through sigma, tau, eta, phi, their inverses, or the
            full chain phi.eta.tau
inner       pair two states (fermion | boson | geometric)
localize    Euler classes, point classes and integration on the localized side
verify      run an exact verification suite; exit 1 when a check fails

State literals: "vac(m)", "phi[2,1]", "phi[2,1]@m" and sums such as
"phi[2] + 2*phi[1,1]" (fermionic); "(1/2)*p1^2 + (-1/2)*p2" or "q^2" (bosonic);
"t*1@[1]" (fixed-point classes); '{"n": 1, "restrictions": {...}}' (localized
classes, JSON).  Operator tokens: psi(j), psi*(j), alpha(n), e(k), f(k) on
fermionic states; E(k), F(k) (or e/f) on fixed-point classes; p(k) on bosonic
polynomials and localized classes.  Operator words act right-to-left.  An
operator index, and the charge of a fermionic state under apply, is at most
1000 in absolute value; a localized class prints up to degree 20, and a
printed coefficient has at most 4300 digits in its numerator and denominator.
Exit codes: 0 success, 1 verification failure, 2 usage or parse error, 141 stdout closed early.
"""

import argparse
import functools
import json
import os
import re
import sys
from typing import NamedTuple

from . import boson, fermion, geometry
from . import verify as verify_mod
from .correspondence import sigma, sigma_inverse
from .partitions import parse_partition
from .scalars import Rational, format_rational

# alpha(-n) on a vacuum alone has n terms of up to n parts.  It also bounds the
# charge of a fermionic state under apply: contracting index j of charge m
# builds m - j parts, so at most 2 * MAX_OPERATOR_INDEX.
MAX_OPERATOR_INDEX = 1000


def _localized(text: str) -> geometry.LocalizedClass:
    return geometry.LocalizedClass.from_json(json.loads(text))


def _weights(shape) -> dict[str, int]:
    weights = geometry.weight_of(shape)
    return {str(k): weights[k] for k in sorted(weights)}


class _Chain(NamedTuple):
    """phi . eta . tau of a fermionic state; its JSON form sets sigma of the state beside it."""

    state: fermion.FermionState
    value: boson.BosonPolynomial

    def __str__(self) -> str:
        return str(self.value)

    def to_json(self) -> dict:
        expected = sigma(self.state)
        return {"chain": str(self.value), "sigma": str(expected), "equal": self.value == expected}


def _chain(state: fermion.FermionState) -> _Chain:
    """phi . eta . tau, applied per energy component."""
    by_size: dict[int, dict] = {}
    for shape, coeff in geometry.tau(state).terms.items():
        by_size.setdefault(shape.size(), {})[shape] = coeff
    parts = (geometry.phi(geometry.eta(geometry.QuiverClass(terms))) for terms in by_size.values())
    return _Chain(state, sum(parts, boson.BosonPolynomial.zero()))


# apply: domain → (noun used in errors, {operator token: operator})
_DOMAINS = {
    "fermion": ("fermionic states", {
        "psi": fermion.psi, "psi*": fermion.psi_star, "alpha": fermion.alpha,
        "e": fermion.chevalley_e, "f": fermion.chevalley_f,
    }),
    "quiver": ("fixed-point classes", {
        "E": geometry.hecke_e, "F": geometry.hecke_f, "e": geometry.hecke_e, "f": geometry.hecke_f,
    }),
    "boson": ("bosonic polynomials", {"p": boson.oscillator}),
    "localized": ("localized classes", {"p": geometry.geometric_boson}),
}
# correspond: map → (reader of the state, map)
_MAPS = {
    "sigma": (fermion.parse_fermion, sigma),
    "sigma-inverse": (boson.parse_boson, sigma_inverse),
    "tau": (fermion.parse_fermion, geometry.tau),
    "eta": (geometry.parse_quiver, geometry.eta),
    "eta-inverse": (_localized, geometry.eta_inverse),
    "phi": (_localized, geometry.phi),
    "phi-inverse": (boson.parse_boson, geometry.phi_inverse),
    "chain": (fermion.parse_fermion, _chain),
}
# inner: side → (reader of both states, pairing)
_FORMS = {
    "fermion": (fermion.parse_fermion, fermion.hermitian_form),
    "boson": (boson.parse_boson, boson.hall_form),
    "geometric": (_localized, geometry.bilinear_form),
}
# localize: action → (reader of the argument, function)
_LOCALIZE = {
    "euler": (parse_partition, geometry.euler_class),
    "class": (parse_partition, geometry.normalized_class),
    "fundamental": (parse_partition, geometry.fundamental_class),
    "integrate": (_localized, geometry.integrate),
    "weight": (parse_partition, _weights),
}
# subcommand → (help, dest of its table key, table, {text argument: help})
_TABLE_COMMANDS = {
    "correspond": ("map a state across the correspondence", "map", _MAPS, {"state": None}),
    "inner": ("pair two states", "side", _FORMS, {"left": None, "right": None}),
    "localize": ("localized-model computations", "action", _LOCALIZE,
                 {"argument": "partition literal, or localized-class JSON for integrate"}),
}

_TOKENS = dict.fromkeys(token for _, ops in _DOMAINS.values() for token in ops)
_OP_TOKEN = re.compile(rf"^({'|'.join(map(re.escape, _TOKENS))})\((-?\d+)\)$")
_FIXED_POINT = re.compile(r"1\s*@")  # the point-class atom, as the fixed-point grammar reads it


def _parse_ops(text: str) -> list[tuple[str, int]]:
    ops = []
    for token in text.split():
        match = _OP_TOKEN.match(token)
        if not match:
            raise ValueError(f"malformed operator token {token!r}; expected name(integer)")
        index = int(match.group(2))
        if abs(index) > MAX_OPERATOR_INDEX:
            raise ValueError(f"operator index in {token!r} exceeds {MAX_OPERATOR_INDEX} in absolute value")
        ops.append((match.group(1), index))
    if not ops:
        raise ValueError("empty operator word")
    return ops


def _detect_state(text: str, ops: list[tuple[str, int]]):
    stripped = text.strip()
    if stripped.startswith("{"):
        return "localized", _localized(stripped)
    if _FIXED_POINT.search(stripped):
        return "quiver", geometry.parse_quiver(stripped)
    if "phi" in stripped or "vac" in stripped:
        return "fermion", fermion.parse_fermion(stripped)
    if stripped == "0":  # a class under a fixed-point-only token, a polynomial under bosonic ones
        names = {name for name, _ in ops}
        fermion_ops, quiver_ops, boson_ops = (_DOMAINS[d][1].keys() for d in ("fermion", "quiver", "boson"))
        if (names - fermion_ops) & quiver_ops:
            return "quiver", geometry.QuiverClass.zero()
        if names <= boson_ops:
            return "boson", boson.BosonPolynomial.zero()
        return "fermion", fermion.FermionState.zero()
    return "boson", boson.parse_boson(stripped)


def _print(value, as_json: bool) -> None:
    """Print a value as its text, which for a localized class is already its
    JSON form, and a dict as JSON; under --json every value prints as JSON,
    one without a JSON form as {"value": its text}."""
    if isinstance(value, (int, Rational)):
        value = format_rational(value)
    if as_json and hasattr(value, "to_json"):
        value = value.to_json()
    elif as_json and not isinstance(value, dict):
        value = {"value": str(value)}
    print(json.dumps(value) if isinstance(value, (dict, list)) else value)


def _cmd_schur(args) -> int:
    _print(boson.schur(parse_partition(args.partition)), args.json)
    return 0


def _cmd_apply(args) -> int:
    ops = _parse_ops(args.ops)
    domain, state = _detect_state(args.state, ops)
    if domain == "fermion" and any(abs(mono.charge) > MAX_OPERATOR_INDEX for mono in state.terms):
        raise ValueError(f"charge in {args.state!r} exceeds {MAX_OPERATOR_INDEX} in absolute value")
    noun, table = _DOMAINS[domain]
    for name, index in reversed(ops):
        if name not in table:
            raise ValueError(f"operator {name}({index}) does not act on {noun}")
        state = table[name](index, state)
    _print(state, args.json)
    return 0


def _cmd_table(args) -> int:
    """correspond, inner and localize: read each text argument, then apply
    the entry of the command's table that the first argument names."""
    reader, function = args.table[getattr(args, args.key)]
    # a list, not a generator: see scalars.integer_numerators on CPython's tuple free lists
    _print(function(*[reader(getattr(args, name)) for name in args.texts]), args.json)
    return 0


def _cmd_verify(args) -> int:
    results = verify_mod.run_suite(args.suite, args.max_size, args.max_index, args.charge)
    if args.json:
        print(json.dumps(verify_mod.report_json(results)))
    else:
        for check in results:
            print(check)
    return 0 if all(check.passed for check in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonfermion",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_schur = sub.add_parser("schur", help="Schur polynomial of a partition")
    p_schur.add_argument("partition", help='partition literal, e.g. "[2,1]"')
    p_schur.add_argument("--json", action="store_true")
    p_schur.set_defaults(func=_cmd_schur)

    p_apply = sub.add_parser("apply", help="apply an operator word to a state")
    p_apply.add_argument("ops", help='operator word, e.g. "alpha(-1) alpha(-1)"')
    p_apply.add_argument("state", help='state literal, e.g. "vac(0)" or "1@[]"')
    p_apply.add_argument("--json", action="store_true")
    p_apply.set_defaults(func=_cmd_apply)

    for command, (help_text, key, table, texts) in _TABLE_COMMANDS.items():
        p_table = sub.add_parser(command, help=help_text)
        p_table.add_argument(key, choices=list(table))
        for name, text_help in texts.items():
            p_table.add_argument(name, help=text_help)
        p_table.add_argument("--json", action="store_true")
        p_table.set_defaults(func=_cmd_table, table=table, key=key, texts=list(texts))

    p_verify = sub.add_parser("verify", help="run an exact verification suite", description=(
        f"Each bound is an integer from 0 to {verify_mod.MAX_GRID}; one left out takes each suite's default. "
        "The run time roughly doubles with each step of --max-size."))
    p_verify.add_argument("suite", choices=[*verify_mod.SUITES, "all"])
    p_verify.add_argument("--max-size", type=int, default=None, help="largest partition size in the grids")
    p_verify.add_argument("--max-index", type=int, default=None, help="largest |index| of the operators swept")
    p_verify.add_argument("--charge", type=int, default=None, help="largest |charge| of the fermionic sweeps")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


# The subcommands whose positionals are text; their only options are --json and -h/--help.
_TEXT_COMMANDS = ("schur", "apply", *_TABLE_COMMANDS)


def _values_after_options(argv: list[str]) -> list[str]:
    """argv with each text that starts with "-", such as a printed "-phi[]@2",
    read as a value: in a subcommand whose positionals are text, the options
    (each token that starts with "--", and -h) go first and the rest after
    "--".  argv that holds "--" already, or no such text, is returned as it is."""
    if not argv or argv[0] not in _TEXT_COMMANDS or "--" in argv:
        return argv
    command, *rest = argv
    options, values = [], []
    for token in rest:
        (options if token.startswith("--") or token == "-h" else values).append(token)
    if not any(value.startswith("-") for value in values):
        return argv
    return [command, *options, "--", *values]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first request and reused by every later one;
    each parse_args call returns a fresh Namespace."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_values_after_options(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe makes this raise here, not at exit
        return code
    except (ValueError, ZeroDivisionError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `| head`; stdout goes to devnull so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the status a shell reports for a writer killed by a closed pipe


if __name__ == "__main__":
    sys.exit(main())
