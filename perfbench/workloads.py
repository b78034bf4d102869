"""Workload inputs and the correctness gate.

``GRIDS`` holds the two cold ``verify`` grids; ``request_stream`` makes the
seeded ``cli-session`` stream; ``check_response`` is the gate applied to every
CLI response.  The generator uses only the standard library, with its own
partition enumeration and hook lengths, so the program under test receives
nothing but the generated argument lists.
"""

import json
import random
from fractions import Fraction
from functools import cache

# suite, max_size, max_index, charge_bound.  Index 4 and charge bound 2 are
# the defaults ``run_suite`` applies to every suite other than clifford.
GRIDS = {
    "verify-geometric": [
        ("heisenberg-geometric", 5, 4, 2),
        ("orthonormality", 8, 4, 2),
        ("correspondence", 8, 4, 2),
        ("commuting-square", 8, 4, 2),
    ],
    "verify-algebraic": [
        ("clifford", 8, 4, 2),
        ("heisenberg-fermion", 8, 4, 2),
        ("heisenberg-boson", 8, 4, 2),
        ("serre", 8, 4, 2),
        ("euler", 8, 4, 2),
        ("c2-toy", 8, 4, 2),
    ],
}

SESSION_REQUESTS = 1500
MAX_SIZE = 12  # largest partition size, and largest Schur degree, in the stream
# Geometric bosons on X_n transport every basis class through phi at degree n;
# capping n keeps the set of transported classes small enough that every
# session builds nearly all of it, so seeds differ little in cold work.
LOCALIZED_MAX_SIZE = 8

# Requests that break the CLI contract at the seed commit.  The first three
# raise KeyError, TypeError and TypeError instead of exiting 2; the last prints
# "1/2*t*1@[1]", which the fixed-point class parser rejects.  They are sent
# after the measured stream in every cli-session run, and each one still
# broken counts in ``cli.contract_violations``.
KNOWN_DEFECTS = [
    {"argv": ["localize", "integrate", "{}"], "expect": "usage"},
    {"argv": ["localize", "integrate", "[]"], "expect": "usage"},
    {"argv": ["apply", "p(1)", '{"n":1,"restrictions":{"[1]":7}}'], "expect": "usage"},
    {"argv": ["correspond", "tau", "1/2*phi[1]"], "expect": "quiver"},
]

# (error class, argv).  Each must exit 2 with "error:" on stderr.
MALFORMED = [
    ("partition-syntax", ["schur", "[2,x]"]),
    ("partition-syntax", ["localize", "euler", "2,1"]),
    ("partition-order", ["schur", "[1,3]"]),
    ("partition-order", ["localize", "weight", "[2,0]"]),
    ("operator-token", ["apply", "alpha(x)", "vac(0)"]),
    ("operator-token", ["apply", "psi[1]", "phi[1]"]),
    ("operator-domain", ["apply", "E(0)", "vac(0)"]),
    ("operator-domain", ["apply", "psi(1)", "t*1@[1]"]),
    ("operator-domain", ["apply", "alpha(1)", "p1"]),
    ("state-syntax", ["apply", "psi(1)", "phi[2,1"]),
    ("state-syntax", ["correspond", "sigma", "phi[2]@"]),
    ("state-syntax", ["correspond", "phi-inverse", "p1 +"]),
    ("json", ["localize", "integrate", "{n: 1"]),
    ("json", ["correspond", "phi", '{"n": 1, "restrictions": ']),
    ("usage", ["correspond", "bogus", "x"]),
    ("usage", ["frobnicate"]),
    ("usage", ["inner", "fermion", "vac(0)"]),
    ("scalar-syntax", ["localize", "integrate", '{"n": 1, "restrictions": {"[1]": "t^"}}']),
    ("charge", ["correspond", "tau", "phi[1]@1"]),
    ("degree-underflow", ["apply", "p(3)", '{"n": 1, "restrictions": {"[1]": "t"}}']),
    ("division-by-zero", ["localize", "integrate", '{"n": 1, "restrictions": {"[1]": "1/(t-t)"}}']),
    ("size-mismatch", ["inner", "geometric", '{"n": 2, "restrictions": {"[1]": "t"}}',
                       '{"n": 2, "restrictions": {"[2]": "t"}}']),
    ("inhomogeneous", ["correspond", "phi-inverse", "p1 + p2"]),
    ("q-power", ["inner", "boson", "q * (p1)", "p1"]),
    ("non-divisible", ["apply", "E(0)", "1@[1]"]),
]
ERROR_CLASSES = sorted({cls for cls, _ in MALFORMED})

# The request kinds of the stream.  Nothing records how the library is used,
# so the stream is synthetic: every kind has an equal share, and malformed
# requests take MALFORMED_SHARE of the stream.
KINDS = [
    "schur", "apply-fermion", "apply-quiver", "apply-boson", "apply-localized",
    "correspond-sigma", "correspond-sigma-inverse", "correspond-tau", "correspond-eta",
    "correspond-eta-inverse", "correspond-phi", "correspond-phi-inverse", "correspond-chain",
    "inner-fermion", "inner-boson", "inner-geometric", "localize-euler", "localize-class",
    "localize-fundamental", "localize-integrate", "localize-weight",
]
MALFORMED_SHARE = 0.05


# --- combinatorics of the generator (independent of the package) -------------

@cache
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    def gen(rest, top):
        if rest == 0:
            yield ()
        for first in range(min(rest, top), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail
    return tuple(gen(n, n))


def hook_product(shape: tuple[int, ...]) -> int:
    conjugate = [sum(1 for part in shape if part > col) for col in range(shape[0])] if shape else []
    result = 1
    for row, part in enumerate(shape):
        for col in range(part):
            result *= (part - col - 1) + (conjugate[col] - row - 1) + 1
    return result


def z_factor(shape: tuple[int, ...]) -> int:
    result = 1
    for value in set(shape):
        m = shape.count(value)
        result *= value**m
        for j in range(2, m + 1):
            result *= j
    return result


def shape_text(shape) -> str:
    return "[" + ",".join(map(str, shape)) + "]"


def monomial_text(coeff: Fraction, exponent: int) -> str:
    """A Q(t) monomial in the printed form, e.g. "-9*t^6", "t", "3/2"."""
    if coeff == 0:
        return "0"
    sign = "-" if coeff < 0 else ""
    mag = abs(coeff)
    if exponent == 0:
        return sign + str(mag)
    tpow = "t" if exponent == 1 else f"t^{exponent}"
    return sign + (tpow if mag == 1 else f"{mag}*{tpow}")


# --- literal generators ------------------------------------------------------

_COEFFS = [Fraction(1), Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2),
           Fraction(-3, 4), Fraction(5), Fraction(2, 3)]
# Fixed-point classes print rational coefficients as "1/2*t*1@[1]", which the
# class parser rejects (probed by KNOWN_DEFECTS), so the inputs of requests
# that read or print a fixed-point class use integer coefficients.
_INT_COEFFS = [Fraction(1), Fraction(1), Fraction(2), Fraction(-1), Fraction(-3), Fraction(5)]


class _Gen:
    """Seeded literal generator.  Sizes, term and operator counts and
    malformed requests are drawn in shuffled rounds per request kind, so every
    size, count and error class occurs equally often and seeds differ little
    in how much work their stream asks."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.kind = ""
        self._rounds: dict = {}

    def _next(self, key, values):
        pending = self._rounds.setdefault((self.kind, key), [])
        if not pending:
            pending.extend(values)
            self.rng.shuffle(pending)
        return pending.pop()

    def malformed(self):
        return self._next("malformed", MALFORMED)

    def size(self, lo=0, hi=MAX_SIZE) -> int:
        return self._next((lo, hi), range(lo, hi + 1))

    def count(self, lo: int, hi: int) -> int:
        """Number of terms of a literal or operators of a word."""
        return self._next(("count", lo, hi), range(lo, hi + 1))

    def shape(self, lo=0, hi=MAX_SIZE):
        return self.rng.choice(partitions(self.size(lo, hi)))

    def coeff(self, integral=False) -> Fraction:
        return self.rng.choice(_INT_COEFFS if integral else _COEFFS)

    @staticmethod
    def join(terms: list[tuple[Fraction, str]], style: str = "") -> str:
        """Sum of coefficient * basis text in the printed style; the boson
        style parenthesises coefficients, as format_boson does."""
        out = []
        for coeff, basis in terms:
            mag = abs(coeff)
            if not basis:
                body = str(mag)
            elif mag == 1:
                body = basis
            else:
                body = f"({mag})*{basis}" if style == "boson" else f"{mag}*{basis}"
            if out:
                out.append(f" {'-' if coeff < 0 else '+'} {body}")
            else:
                out.append(("-" if coeff < 0 else "") + body)
        return "".join(out)

    def fermion(self, charge0=False, hi=MAX_SIZE, integral=False):
        """(literal, {(charge, shape): coeff}); monomials may repeat."""
        values: dict = {}
        terms = []
        for _ in range(self.count(1, 3)):
            charge = 0 if charge0 else self.rng.randint(-2, 2)
            shape = self.shape(0, hi)
            coeff = self.coeff(integral)
            if not shape and self.rng.random() < 0.5:
                basis = f"vac({charge})"
            else:
                basis = f"phi{shape_text(shape)}" + (f"@{charge}" if charge or self.rng.random() < 0.2 else "")
            terms.append((coeff, basis))
            values[(charge, shape)] = values.get((charge, shape), 0) + coeff
        return self.join(terms), values

    def boson(self, q=True, degree=None, hi=8):
        """(literal, {shape: coeff} of the q^0 part)."""
        values: dict = {}
        pieces = []
        for _ in range(self.count(1, 3)):
            mu = self.rng.choice(partitions(degree)) if degree is not None else self.shape(0, hi)
            coeff = self.coeff()
            mono = " ".join(f"p{i}" if mu.count(i) == 1 else f"p{i}^{mu.count(i)}"
                            for i in sorted(set(mu)))
            power = self.rng.choice([-1, 1, 2]) if q and self.rng.random() < 0.3 else 0
            if power:
                pieces.append((Fraction(1), f"q^{power} * ({self.join([(coeff, mono)], 'boson')})"))
            else:
                pieces.append((coeff, mono))
                values[mu] = values.get(mu, 0) + coeff
        return self.join(pieces, "boson"), values

    def quiver(self, size=None, graded=False):
        """Fixed-point class; "graded" coefficients are divisible by t^|shape|,
        so every box-removing operator keeps them in Q[t]."""
        terms = []
        for _ in range(self.count(1, 2)):
            shape = self.rng.choice(partitions(size)) if size is not None else self.shape(0, 8)
            exponent = sum(shape) + self.rng.randint(0, 2) if graded else self.rng.randint(0, 3)
            tpow = "" if exponent == 0 else ("t*" if exponent == 1 else f"t^{exponent}*")
            terms.append((self.coeff(integral=True), f"{tpow}1@{shape_text(shape)}"))
        return self.join(terms)

    def localized(self, n: int, kind: str) -> str:
        """JSON class on X_n: "span" lies in the Q-span of normalized classes,
        "poly" has restrictions in h * Z[t], "any" has Laurent restrictions."""
        restrictions = {}
        for shape in self.rng.sample(partitions(n), min(len(partitions(n)), self.count(1, 3))):
            if kind == "span":
                text = monomial_text(self.coeff() * hook_product(shape), n)
            elif kind == "poly":
                text = monomial_text(self.coeff(integral=True) * hook_product(shape), self.rng.randint(0, n + 2))
            else:
                terms = [(self.coeff(), monomial_text(Fraction(1), self.rng.randint(-2, 4)))
                         for _ in range(self.rng.randint(1, 2))]
                text = self.join(terms)
            restrictions[shape_text(shape)] = text
        return json.dumps({"n": n, "restrictions": restrictions})

    def word(self, tokens: list[str], lo: int, hi: int) -> str:
        return " ".join(
            f"{self.rng.choice(tokens)}({self.rng.randint(lo, hi)})"
            for _ in range(self.count(1, 4))
        )

    def cli(self, positionals: list[str], plain: str, as_json: str | None = None):
        """argv and expected output kind; adds --json to a fifth of the
        requests that accept it, and "--" before positionals starting with "-"."""
        options = []
        expect = plain
        if as_json is not None and self.rng.random() < 0.2:
            options, expect = ["--json"], as_json
        command, *rest = positionals
        if any(arg.startswith("-") for arg in rest):
            options.append("--")
        return [command, *options, *rest], expect


def _localized_word(gen: _Gen) -> tuple[str, int]:
    """A p(k) word whose degrees stay within 0..LOCALIZED_MAX_SIZE, and its
    start size."""
    start = gen.size(0, LOCALIZED_MAX_SIZE - 2)
    ops = []
    degree = start
    for _ in range(gen.count(1, 4)):  # generated in application order
        k = gen.rng.randint(-min(3, LOCALIZED_MAX_SIZE - degree), min(3, degree))
        ops.append(k)
        degree -= k
    return " ".join(f"p({k})" for k in reversed(ops)), start


def make_request(gen: _Gen, kind: str) -> dict:
    """One request: argv, the expected output kind, and an optional oracle."""
    rng = gen.rng
    gen.kind = kind
    if kind == "malformed":
        cls, argv = gen.malformed()
        return {"kind": kind, "argv": list(argv), "expect": "usage", "error_class": cls}
    request: dict = {"kind": kind}
    if kind == "schur":
        argv, expect = gen.cli(["schur", shape_text(gen.shape())], "boson", "boson-json")
    elif kind == "apply-fermion":
        word = gen.word(["psi", "psi*", "alpha", "e", "f"], -4, 4)
        argv, expect = gen.cli(["apply", word, gen.fermion(hi=8)[0]], "fermion", "fermion-json")
    elif kind == "apply-quiver":
        word = gen.word(["E", "F", "e", "f"], -4, 4)
        argv, expect = gen.cli(["apply", word, gen.quiver(graded=True)], "quiver", "quiver-json")
    elif kind == "apply-boson":
        argv, expect = gen.cli(["apply", gen.word(["p"], -4, 4), gen.boson()[0]], "boson", "boson-json")
    elif kind == "apply-localized":
        word, start = _localized_word(gen)
        argv, expect = gen.cli(["apply", word, gen.localized(start, "span")], "localized")
    elif kind == "correspond-sigma":
        argv, expect = gen.cli(["correspond", "sigma", gen.fermion()[0]], "boson", "boson-json")
    elif kind == "correspond-sigma-inverse":
        poly = gen.boson(hi=MAX_SIZE)[0]
        argv, expect = gen.cli(["correspond", "sigma-inverse", poly], "fermion", "fermion-json")
    elif kind == "correspond-tau":
        state = gen.fermion(charge0=True, integral=True)[0]
        argv, expect = gen.cli(["correspond", "tau", state], "quiver", "quiver-json")
    elif kind == "correspond-eta":
        argv, expect = gen.cli(["correspond", "eta", gen.quiver(size=gen.size())], "localized")
    elif kind == "correspond-eta-inverse":
        cls = gen.localized(gen.size(), "poly")
        argv, expect = gen.cli(["correspond", "eta-inverse", cls], "quiver", "quiver-json")
    elif kind == "correspond-phi":
        cls = gen.localized(gen.size(), "span")
        argv, expect = gen.cli(["correspond", "phi", cls], "boson", "boson-json")
    elif kind == "correspond-phi-inverse":
        poly = gen.boson(q=False, degree=gen.size(1, MAX_SIZE))[0]
        argv, expect = gen.cli(["correspond", "phi-inverse", poly], "localized")
    elif kind == "correspond-chain":
        argv, expect = gen.cli(["correspond", "chain", gen.fermion(charge0=True)[0]], "boson", "chain")
    elif kind == "inner-fermion":
        (left, lv), (right, rv) = gen.fermion(hi=4), gen.fermion(hi=4)
        argv, expect = gen.cli(["inner", "fermion", left, right], "rational", "value-json")
        request["oracle"] = str(sum((c * rv[m] for m, c in lv.items() if m in rv), Fraction(0)))
    elif kind == "inner-boson":
        (left, lv), (right, rv) = gen.boson(q=False, hi=4), gen.boson(q=False, hi=4)
        argv, expect = gen.cli(["inner", "boson", left, right], "rational", "value-json")
        request["oracle"] = str(sum((c * rv[m] * z_factor(m) for m, c in lv.items() if m in rv), Fraction(0)))
    elif kind == "inner-geometric":
        n = gen.size(0, 8)
        pair = [gen.localized(n, "any"), gen.localized(n, "any")]
        argv, expect = gen.cli(["inner", "geometric", *pair], "scalar", "value-json")
    elif kind == "localize-euler":
        shape = gen.shape()
        n = sum(shape)
        argv, expect = gen.cli(["localize", "euler", shape_text(shape)], "scalar", "value-json")
        request["oracle"] = monomial_text(Fraction((-1) ** n * hook_product(shape) ** 2), 2 * n)
    elif kind in ("localize-class", "localize-fundamental"):
        argv, expect = gen.cli(["localize", kind.split("-")[1], shape_text(gen.shape())], "localized")
    elif kind == "localize-integrate":
        cls = gen.localized(gen.size(0, 8), "any")
        argv, expect = gen.cli(["localize", "integrate", cls], "scalar", "value-json")
    elif kind == "localize-weight":
        argv, expect = gen.cli(["localize", "weight", shape_text(gen.shape())], "json")
    else:
        raise ValueError(f"unknown request kind {kind!r}")
    request.update(argv=argv, expect=expect)
    return request


def request_stream(seed: int, part: int) -> list[dict]:
    """Stream ``part`` of the cli-session run with ``seed``: the same seed and
    part give the same stream.  Each kind has its fixed number of requests,
    in seeded order, so streams differ in order and arguments but not in mix."""
    gen = _Gen(random.Random(f"{seed}/{part}"))
    malformed = round(SESSION_REQUESTS * MALFORMED_SHARE)
    share, extra = divmod(SESSION_REQUESTS - malformed, len(KINDS))
    kinds = ["malformed"] * malformed + KINDS * share + KINDS[:extra]
    gen.rng.shuffle(kinds)
    return [make_request(gen, kind) for kind in kinds]


# --- the gate ----------------------------------------------------------------

def _reprints(text: str, parse, show=str) -> bool:
    return show(parse(text)) == text


def check_response(request: dict, code, out: str, err: str, raised: str | None) -> str | None:
    """None when the response meets the contract, else the reason it fails.

    ``code`` is the return value of ``cli.main`` or the code of the
    ``SystemExit`` it raised; ``raised`` names any other exception."""
    try:
        return _check(request, code, out, err, raised)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:  # JSONDecodeError too
        return f"output does not re-parse: {type(exc).__name__}: {exc}"


def _check(request: dict, code, out: str, err: str, raised: str | None) -> str | None:
    from bosonfermion import boson, fermion, geometry, scalars

    if raised is not None:
        return f"raised {raised}"
    if request["expect"] == "usage":
        if code != 2 or "error:" not in err or out:
            return f"malformed request answered with exit {code}"
        return None
    if code != 0 or err:
        return f"exit {code}: {err.strip()[:200]}"
    if not out.endswith("\n") or out.count("\n") != 1:
        return "output is not one line"
    text = out[:-1]

    def localized_json(s):
        return json.dumps(geometry.LocalizedClass.from_json(json.loads(s)).to_json())

    def via_json(cls):
        return lambda s: json.dumps(cls.from_json(json.loads(s)).to_json())

    def scalar(s):
        return str(scalars.parse_tscalar(s))

    def rational(s):
        return str(scalars.Rational(s))

    expect = request["expect"]
    if expect == "chain":
        data = json.loads(text)
        if data.get("equal") is not True:
            return "chain differs from sigma"
        if data["chain"] != data["sigma"] or str(boson.parse_boson(data["chain"])) != data["chain"]:
            return "chain does not re-print"
        return None
    if expect == "value-json":
        data = json.loads(text)
        value = data.get("value") if isinstance(data, dict) and len(data) == 1 else None
        kind = "rational" if request["argv"][:2] in (["inner", "fermion"], ["inner", "boson"]) else "scalar"
        if not isinstance(value, str) or (rational if kind == "rational" else scalar)(value) != value:
            return "value does not re-print"
        text = value
    else:
        reprint = {
            "boson": lambda s: str(boson.parse_boson(s)),
            "fermion": lambda s: str(fermion.parse_fermion(s)),
            "quiver": lambda s: str(geometry.parse_quiver(s)),
            "boson-json": via_json(boson.BosonPolynomial),
            "fermion-json": via_json(fermion.FermionState),
            "quiver-json": via_json(geometry.QuiverClass),
            "localized": localized_json,
            "scalar": scalar,
            "rational": rational,
            "json": lambda s: json.dumps(json.loads(s)),
        }[expect]
        if reprint(text) != text:
            return f"{expect} output does not re-print byte-identically"
    oracle = request.get("oracle")
    if oracle is not None and text != oracle:
        return f"value {text} differs from the independent value {oracle}"
    return None
