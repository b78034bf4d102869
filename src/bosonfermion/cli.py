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
polynomials and localized classes.  Operator words act right-to-left.
Exit codes: 0 success, 1 verification failure, 2 usage or parse error, 141 stdout closed early.
"""

import argparse
import json
import os
import re
import sys

from . import verify as verify_mod
from .boson import BosonPolynomial, hall_form, oscillator, parse_boson, schur
from .correspondence import sigma, sigma_inverse
from .fermion import (
    FermionState,
    alpha,
    chevalley_e,
    chevalley_f,
    hermitian_form,
    parse_fermion,
    psi,
    psi_star,
)
from .geometry import (
    LocalizedClass,
    QuiverClass,
    bilinear_form,
    eta,
    eta_inverse,
    euler_class,
    fundamental_class,
    geometric_boson,
    hecke_e,
    hecke_f,
    integrate,
    normalized_class,
    parse_quiver,
    phi,
    phi_inverse,
    tau,
    weight_of,
)
from .partitions import parse_partition

_OP_TOKEN = re.compile(r"^(psi\*|psi|alpha|[efEFp])\((-?\d+)\)$")

_FERMION_OPS = {
    "psi": psi,
    "psi*": psi_star,
    "alpha": alpha,
    "e": chevalley_e,
    "f": chevalley_f,
}
_QUIVER_OPS = {
    "E": hecke_e,
    "F": hecke_f,
    "e": hecke_e,
    "f": hecke_f,
}


def _parse_ops(text: str) -> list[tuple[str, int]]:
    ops = []
    for token in text.split():
        match = _OP_TOKEN.match(token)
        if not match:
            raise ValueError(
                f"malformed operator token {token!r}; expected name(integer)"
            )
        ops.append((match.group(1), int(match.group(2))))
    if not ops:
        raise ValueError("empty operator word")
    return ops


def _detect_state(text: str, ops: list[tuple[str, int]]):
    stripped = text.strip()
    if stripped.startswith("{"):
        return "localized", LocalizedClass.from_json(json.loads(stripped))
    if "1@" in stripped:
        return "quiver", parse_quiver(stripped)
    if "phi" in stripped or "vac" in stripped:
        return "fermion", parse_fermion(stripped)
    if stripped == "0":
        names = {name for name, _ in ops}
        if names & {"E", "F"}:
            return "quiver", QuiverClass.zero()
        if names == {"p"}:
            return "boson", BosonPolynomial.zero()
        return "fermion", FermionState.zero()
    return "boson", parse_boson(stripped)


def _apply_word(ops: list[tuple[str, int]], domain: str, state):
    for name, arg in reversed(ops):
        if domain == "fermion":
            op = _FERMION_OPS.get(name)
            if op is None:
                raise ValueError(f"operator {name}({arg}) does not act on fermionic states")
            state = op(arg, state)
        elif domain == "quiver":
            op = _QUIVER_OPS.get(name)
            if op is None:
                raise ValueError(f"operator {name}({arg}) does not act on fixed-point classes")
            state = op(arg, state)
        elif domain == "boson":
            if name != "p":
                raise ValueError(f"operator {name}({arg}) does not act on bosonic polynomials")
            state = oscillator(arg, state)
        else:
            if name != "p":
                raise ValueError(f"operator {name}({arg}) does not act on localized classes")
            state = geometric_boson(arg, state)
    return state


def _print_result(value, as_json: bool) -> None:
    if isinstance(value, LocalizedClass):
        print(json.dumps(value.to_json()))
    elif as_json and hasattr(value, "to_json"):
        print(json.dumps(value.to_json()))
    else:
        print(str(value))


def _chain(state: FermionState) -> BosonPolynomial:
    """phi . eta . tau, applied per energy component."""
    fixed = tau(state)
    by_size: dict[int, dict] = {}
    for shape, coeff in fixed.terms.items():
        by_size.setdefault(shape.size(), {})[shape] = coeff
    result = BosonPolynomial.zero()
    for terms in by_size.values():
        result = result + phi(eta(QuiverClass(terms)))
    return result


def _cmd_schur(args) -> int:
    poly = schur(parse_partition(args.partition))
    _print_result(poly, args.json)
    return 0


def _cmd_apply(args) -> int:
    ops = _parse_ops(args.ops)
    domain, state = _detect_state(args.state, ops)
    result = _apply_word(ops, domain, state)
    _print_result(result, args.json)
    return 0


def _cmd_correspond(args) -> int:
    name = args.map
    if name == "sigma":
        result = sigma(parse_fermion(args.state))
    elif name == "sigma-inverse":
        result = sigma_inverse(parse_boson(args.state))
    elif name == "tau":
        result = tau(parse_fermion(args.state))
    elif name == "eta":
        result = eta(parse_quiver(args.state))
    elif name == "eta-inverse":
        result = eta_inverse(LocalizedClass.from_json(json.loads(args.state)))
    elif name == "phi":
        result = phi(LocalizedClass.from_json(json.loads(args.state)))
    elif name == "phi-inverse":
        result = phi_inverse(parse_boson(args.state))
    else:  # chain
        state = parse_fermion(args.state)
        result = _chain(state)
        if args.json:
            print(json.dumps({
                "chain": str(result),
                "sigma": str(sigma(state)),
                "equal": result == sigma(state),
            }))
            return 0
    _print_result(result, args.json)
    return 0


def _cmd_inner(args) -> int:
    if args.side == "fermion":
        value = hermitian_form(parse_fermion(args.left), parse_fermion(args.right))
    elif args.side == "boson":
        value = hall_form(parse_boson(args.left), parse_boson(args.right))
    else:
        left = LocalizedClass.from_json(json.loads(args.left))
        right = LocalizedClass.from_json(json.loads(args.right))
        value = bilinear_form(left, right)
    if args.json:
        print(json.dumps({"value": str(value)}))
    else:
        print(str(value))
    return 0


def _cmd_localize(args) -> int:
    action = args.action
    if action == "integrate":
        value = integrate(LocalizedClass.from_json(json.loads(args.argument)))
        print(json.dumps({"value": str(value)}) if args.json else str(value))
        return 0
    shape = parse_partition(args.argument)
    if action == "euler":
        value = euler_class(shape)
        print(json.dumps({"value": str(value)}) if args.json else str(value))
    elif action == "class":
        print(json.dumps(normalized_class(shape).to_json()))
    elif action == "fundamental":
        print(json.dumps(fundamental_class(shape).to_json()))
    else:  # weight
        weights = weight_of(shape)
        print(json.dumps({str(k): weights[k] for k in sorted(weights)}))
    return 0


def _cmd_verify(args) -> int:
    results = verify_mod.run_suite(args.suite, args.max_size, args.max_index, args.charge)
    report = verify_mod.report_json(results)
    if args.json:
        print(json.dumps(report))
    else:
        for check in results:
            status = "PASS" if check.passed else "FAIL"
            line = f"{status} {check.name} (checked={check.checked})"
            if check.counterexample:
                line += f" counterexample: {check.counterexample}"
            print(line)
    return 0 if report["passed"] else 1


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

    p_corr = sub.add_parser("correspond", help="map a state across the correspondence")
    p_corr.add_argument(
        "map",
        choices=["sigma", "sigma-inverse", "tau", "eta", "eta-inverse", "phi", "phi-inverse", "chain"],
    )
    p_corr.add_argument("state")
    p_corr.add_argument("--json", action="store_true")
    p_corr.set_defaults(func=_cmd_correspond)

    p_inner = sub.add_parser("inner", help="pair two states")
    p_inner.add_argument("side", choices=["fermion", "boson", "geometric"])
    p_inner.add_argument("left")
    p_inner.add_argument("right")
    p_inner.add_argument("--json", action="store_true")
    p_inner.set_defaults(func=_cmd_inner)

    p_loc = sub.add_parser("localize", help="localized-model computations")
    p_loc.add_argument("action", choices=["euler", "class", "fundamental", "integrate", "weight"])
    p_loc.add_argument("argument", help="partition literal, or localized-class JSON for integrate")
    p_loc.add_argument("--json", action="store_true")
    p_loc.set_defaults(func=_cmd_localize)

    p_verify = sub.add_parser("verify", help="run an exact verification suite")
    p_verify.add_argument("suite", choices=[*verify_mod.SUITES, "all"])
    p_verify.add_argument("--max-size", type=int, default=None)
    p_verify.add_argument("--max-index", type=int, default=None)
    p_verify.add_argument("--charge", type=int, default=None, help="charge bound for the fermionic sweeps")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
