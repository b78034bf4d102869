"""Exact coefficient arithmetic: rationals, Laurent polynomials in t, and Q(t).

The rational backend is gmpy2's mpq when available (much faster), otherwise
the standard library Fraction; both print as "p/q" with the "/q" omitted for
integers.
"""

from math import gcd, lcm
from typing import Union

from .linear import LinearCombination, accumulate, power
from .text import Grammar, join_terms, parse

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rational

RationalLike = Union[int, "Rational"]

ZERO = Rational(0)
ONE = Rational(1)


def rat(numerator: RationalLike, denominator: RationalLike = 1) -> Rational:
    return Rational(numerator, denominator)


def parse_rational(text: str) -> Rational:
    try:
        return Rational(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid rational literal {text!r}") from None


# The most decimal digits a printed numerator or denominator may have: the
# default limit of Python's int-to-string conversion.  The Euler class of
# [700] (about 3,400 digits) prints; that of [1000] (about 5,100) does not.
MAX_PRINTED_DIGITS = 4300
_PRINT_LIMIT = 10**MAX_PRINTED_DIGITS


def format_rational(value: RationalLike) -> str:
    """The text of a rational; ValueError when its numerator or denominator
    has more than MAX_PRINTED_DIGITS digits."""
    if abs(value.numerator) >= _PRINT_LIMIT or value.denominator >= _PRINT_LIMIT:
        raise ValueError(
            f"a printed coefficient has at most {MAX_PRINTED_DIGITS} digits in its numerator "
            "and in its denominator"
        )
    return str(value)


def is_integer(value) -> bool:
    """Is a decoded JSON value an integer (and not a boolean)?"""
    return isinstance(value, int) and not isinstance(value, bool)


def read_terms(data, read_key) -> dict:
    """Sum the JSON terms [{..., "coeff": rational string}, ...] of a
    rational linear combination; read_key reads the basis key of one term."""
    if not isinstance(data, list) or not all(
        isinstance(item, dict) and isinstance(item.get("coeff"), str) for item in data
    ):
        raise ValueError("expected a JSON list of terms, each with a string coeff")
    return accumulate((read_key(item), parse_rational(item["coeff"])) for item in data)


def _over_common(fractions: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """(D, [p * D / q, ...]): integer fractions p/q over the lcm D of the q."""
    # lcm(*list), not lcm(*generator): on CPython 3.11 each call with a
    # generator left about 90 bytes on the tuple free lists (up to 2,000
    # blocks per size), which raised the peak memory of the verify grids
    common = lcm(*[q for _, q in fractions])
    return common, [p * (common // q) for p, q in fractions]


def integer_numerators(coeffs) -> tuple[int, list[int]]:
    """(D, [c * D, ...]): the rationals over their least common denominator D.
    Numerators and denominators go through int(), so mpq serves as Fraction does."""
    return _over_common([(int(c.numerator), int(c.denominator)) for c in coeffs])


def pairing(f: dict, g: dict, weight) -> Rational:
    """The sum of weight(key) * f[key] * g[key] over the keys f and g share,
    for an integer weight; it walks the smaller dict.  Two or more shared
    keys are summed as integer numerators and divided once by the two common
    denominators; a single product is cheaper than clearing them."""
    if len(f) > len(g):
        f, g = g, f
    shared = [(key, c, g[key]) for key, c in f.items() if key in g]
    if len(shared) < 2:
        total = ZERO
        for key, c, other in shared:
            total += c * other * weight(key)
        return total
    common_f, a = integer_numerators(c for _, c, _ in shared)
    common_g, b = integer_numerators(other for _, _, other in shared)
    total = sum(weight(key) * x * y for (key, _, _), x, y in zip(shared, a, b))
    return Rational(total, common_f * common_g)


# --- integer vectors: a sparse rational vector as (D, {key: c * D}) ----------

def integer_vector(terms: dict) -> tuple[int, dict]:
    """A sparse {key: rational} over its least common denominator D."""
    common, numerators = integer_numerators(terms.values())
    return common, dict(zip(terms, numerators))


def rational_terms(vector: tuple[int, dict]) -> dict:
    """The {key: rational} of an integer vector: one division per nonzero key."""
    common, numerators = vector
    return {key: Rational(a, common) for key, a in numerators.items() if a}


def integer_product(f: tuple[int, dict], g: tuple[int, dict], combine) -> tuple[int, dict]:
    """Product of two integer vectors: the numerators of each pair of keys
    multiply into combine(key_f, key_g), over the product of the denominators."""
    (common_f, a), (common_g, b) = f, g
    out: dict = {}
    get = out.get
    for key_f, x in a.items():
        for key_g, y in b.items():
            key = combine(key_f, key_g)
            out[key] = get(key, 0) + x * y
    return common_f * common_g, {key: v for key, v in out.items() if v}


def integer_combination(pairs) -> tuple[int, dict]:
    """The sum of s * v over (integer s, integer vector v) pairs, over the lcm
    of their denominators."""
    pairs = list(pairs)
    common = lcm(*[v[0] for _, v in pairs])
    out: dict = {}
    get = out.get
    for s, (d, numerators) in pairs:
        factor = s * (common // d)
        for key, a in numerators.items():
            out[key] = get(key, 0) + factor * a
    return common, {key: v for key, v in out.items() if v}


class TLaurent(LinearCombination):
    """Laurent polynomial in t with rational coefficients, stored sparsely
    as {exponent: coefficient}."""

    __slots__ = ()
    _coerce = staticmethod(Rational)

    @classmethod
    def one(cls) -> "TLaurent":
        return cls._make({0: ONE})

    @classmethod
    def term(cls, coeff: RationalLike, exponent: int = 0) -> "TLaurent":
        coeff = Rational(coeff)
        return cls._make({exponent: coeff} if coeff else {})

    @classmethod
    def t(cls, exponent: int = 1) -> "TLaurent":
        return cls._make({exponent: ONE})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero Laurent polynomial has no exponents")
        return min(self.terms)

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero Laurent polynomial has no exponents")
        return max(self.terms)

    def is_polynomial(self) -> bool:
        return all(e >= 0 for e in self.terms)

    def constant_value(self) -> Rational:
        """The rational value of a constant; error when t appears."""
        if not self.terms:
            return ZERO
        if set(self.terms) != {0}:
            raise ValueError(f"{self} is not a constant")
        return self.terms[0]

    def shift(self, k: int) -> "TLaurent":
        return TLaurent._make({e + k: c for e, c in self.terms.items()})

    def __mul__(self, other: "TLaurent") -> "TLaurent":
        if type(other) is not TLaurent:
            return NotImplemented
        return TLaurent._make(accumulate(
            (e1 + e2, c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        ))

    def __truediv__(self, other: "TLaurent") -> "TLaurent":
        """Division by a nonzero rational constant; Q(t) lives in TScalar."""
        if type(other) is not TLaurent:
            return NotImplemented
        if list(other.terms) != [0]:
            raise ValueError(f"a Laurent polynomial divides only by a nonzero rational, not {other}")
        return self.scale(ONE / other.terms[0])

    def __pow__(self, n: int) -> "TLaurent":
        if n < 0:
            raise ValueError("negative powers live in TScalar")
        return power(self, n)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = TLaurent.term(other)
        return super().__eq__(other)

    __hash__ = LinearCombination.__hash__

    def __str__(self) -> str:
        return format_tlaurent(self)

    def __repr__(self) -> str:
        return f"TLaurent({self.terms!r})"


_LAURENT_ONE = TLaurent.one()


def t_power(exponent: int) -> str:
    return "t" if exponent == 1 else f"t^{exponent}"


def format_tlaurent(value: TLaurent) -> str:
    return join_terms(
        ((value.terms[e], t_power(e) if e else "") for e in sorted(value.terms, reverse=True)),
        format_rational,
    )


def _dense(poly: TLaurent) -> list[Rational]:
    """Coefficient list of a polynomial with nonzero constant term."""
    deg = poly.max_exp()
    out = [ZERO] * (deg + 1)
    for e, c in poly.terms.items():
        out[e] = c
    return out


def _from_dense(coeffs: list[Rational]) -> TLaurent:
    return TLaurent._make({e: c for e, c in enumerate(coeffs) if c})


def _dense_divmod(num: list[Rational], den: list[Rational]):
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [ZERO] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q = c / lead
        quot[i - dd] = q
        for j, dc in enumerate(den):
            num[i - dd + j] -= q * dc
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _int_primitive(coeffs: list[Rational]) -> list[int]:
    """Clear denominators and divide out the integer content."""
    _, ints = integer_numerators(coeffs)
    content = gcd(*ints)
    return [v // content for v in ints]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    r = list(a)
    deg_b = len(b) - 1
    lead_b = b[-1]
    while len(r) - 1 >= deg_b:
        top = r[-1]
        if top == 0:
            r.pop()
            if not r:
                return [0]
            continue
        shift = len(r) - 1 - deg_b
        r = [lead_b * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= top * bc
        r.pop()
        if not r:
            return [0]
        content = gcd(*r)
        if content > 1:
            r = [v // content for v in r]
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return r


_GCD_PRIME = (1 << 31) - 1


def _modp_gcd_is_trivial(x: list[int], y: list[int]) -> bool:
    """True when the gcd is provably constant, by a single-prime modular image.

    Sound filter: if neither leading coefficient vanishes mod p, the modular
    gcd degree bounds the rational one from above, so a constant image means
    the inputs are coprime.  Inconclusive cases return False and fall through
    to the exact computation.
    """
    p = _GCD_PRIME
    a = [v % p for v in x]
    b = [v % p for v in y]
    if a[-1] == 0 or b[-1] == 0:
        return False
    while True:
        deg_b = len(b) - 1
        inv = pow(b[-1], -1, p)
        r = list(a)
        while len(r) - 1 >= deg_b:
            top = r[-1]
            if top:
                factor = top * inv % p
                shift = len(r) - 1 - deg_b
                for i, bc in enumerate(b):
                    r[shift + i] = (r[shift + i] - factor * bc) % p
            r.pop()
        while len(r) > 1 and r[-1] == 0:
            r.pop()
        if len(r) == 1:
            return r[0] != 0
        a, b = b, r


def _dense_gcd(a: list[Rational], b: list[Rational]) -> list[Rational]:
    """Monic gcd by a primitive pseudo-remainder sequence over the integers."""
    x = _int_primitive(a)
    y = _int_primitive(b)
    if x == y:
        return [Rational(v, x[-1]) for v in x]
    if _modp_gcd_is_trivial(x, y):
        return [Rational(1)]
    while len(y) > 1 or y[0] != 0:
        r = _pseudo_remainder(x, y)
        x, y = y, (_int_primitive(r) if any(r) else [0])
    lead = x[-1]
    return [Rational(v, lead) for v in x]


class TScalar:
    """Element of Q(t) in canonical form.

    The denominator is a monic polynomial with nonzero constant term and is
    coprime to the numerator; Laurent shifts (powers of t) stay in the
    numerator, so the value is a Laurent polynomial exactly when den == 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: TLaurent, den: TLaurent | None = None):
        if den is None or den.terms == _LAURENT_ONE.terms:
            # over a denominator of exactly 1 every numerator is canonical
            self.num, self.den = num, _LAURENT_ONE
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = _canonical(num, den)

    @classmethod
    def zero(cls) -> "TScalar":
        return cls(TLaurent.zero())

    @classmethod
    def one(cls) -> "TScalar":
        return cls(TLaurent.one())

    @classmethod
    def monomial(cls, coeff: RationalLike, exponent: int = 0) -> "TScalar":
        return cls(TLaurent.term(coeff, exponent))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def is_polynomial(self) -> bool:
        """True when the value lies in Q[t]."""
        if self.is_zero():
            return True
        return self.den == _LAURENT_ONE and self.num.min_exp() >= 0

    def is_laurent(self) -> bool:
        return self.den == _LAURENT_ONE

    def as_laurent(self) -> TLaurent:
        if not self.is_laurent():
            raise ValueError(f"{self} is not a Laurent polynomial")
        return self.num

    def constant_value(self) -> Rational:
        return self.as_laurent().constant_value()

    def t_degree(self):
        """Top t-exponent of the value; None for zero."""
        if self.is_zero():
            return None
        return self.num.max_exp() - self.den.max_exp()

    def __add__(self, other: "TScalar") -> "TScalar":
        if self.den is _LAURENT_ONE and other.den is _LAURENT_ONE:
            return TScalar(self.num + other.num)
        return TScalar(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "TScalar":
        out = TScalar.__new__(TScalar)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other: "TScalar") -> "TScalar":
        return self + (-other)

    def __mul__(self, other: "TScalar") -> "TScalar":
        if self.den is _LAURENT_ONE and other.den is _LAURENT_ONE:
            return TScalar(self.num * other.num)
        return TScalar(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "TScalar") -> "TScalar":
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(t)")
        if self.den is _LAURENT_ONE and other.den is _LAURENT_ONE and len(other.num.terms) == 1:
            # by a monomial c*t^e: the value _canonical gives, without the products
            ((e, c),) = other.num.terms.items()
            return TScalar(self.num.shift(-e).scale(ONE / c))
        return TScalar(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "TScalar":
        if n < 0:
            return power(TScalar.one() / self, -n)
        return power(self, n)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TScalar):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (TLaurent, int)):
            return self == TScalar(other if isinstance(other, TLaurent) else TLaurent.term(other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den == _LAURENT_ONE:
            return str(self.num)
        num_s = str(self.num)
        den_s = str(self.den)
        if len(self.num.terms) > 1:
            num_s = f"({num_s})"
        if len(self.den.terms) > 1:
            den_s = f"({den_s})"
        return f"{num_s} / {den_s}"

    def __repr__(self) -> str:
        return f"TScalar({self})"


def _canonical(num: TLaurent, den: TLaurent) -> tuple[TLaurent, TLaurent]:
    if num.is_zero():
        return TLaurent.zero(), _LAURENT_ONE
    if len(den.terms) == 1:
        ((e, c),) = den.terms.items()
        return num.shift(-e).scale(Rational(1) / c), _LAURENT_ONE
    shift_n = num.min_exp()
    shift_d = den.min_exp()
    f = _dense(num.shift(-shift_n))
    g = _dense(den.shift(-shift_d))
    d = _dense_gcd(f, g)
    if len(d) > 1:
        f, _ = _dense_divmod(f, d)
        g, _ = _dense_divmod(g, d)
    lead = g[-1]
    f = [c / lead for c in f]
    g = [c / lead for c in g]
    return _from_dense(f).shift(shift_n - shift_d), (_from_dense(g) if len(g) > 1 else _LAURENT_ONE)


def monomial_quotient_sum(rows) -> TScalar:
    """The sum of a * b / d over the rows (a, b, d) of TScalars, each d a
    nonzero monomial c * t^e: the fixed-point sum of localization.

    Where a and b are Laurent polynomials, the products are collected per t
    exponent as integer fractions and summed over one common denominator,
    with a single division per exponent; any other row is added as a TScalar.
    """
    by_exponent: dict[int, list[tuple[int, int]]] = {}
    rest = TScalar.zero()
    for a, b, d in rows:
        if a.den is not _LAURENT_ONE or b.den is not _LAURENT_ONE:
            rest = rest + a * b / d
            continue
        ((e, c),) = d.num.terms.items()
        c_num, c_den = int(c.numerator), int(c.denominator)
        if c_num < 0:
            c_num, c_den = -c_num, -c_den
        for e1, c1 in a.num.terms.items():
            p1, q1 = int(c1.numerator) * c_den, int(c1.denominator) * c_num
            for e2, c2 in b.num.terms.items():
                by_exponent.setdefault(e1 + e2 - e, []).append(
                    (p1 * int(c2.numerator), q1 * int(c2.denominator))
                )
    laurent = {}
    for exponent, fractions in by_exponent.items():
        common, numerators = _over_common(fractions)
        total = sum(numerators)
        if total:
            laurent[exponent] = Rational(total, common)
    total = TScalar(TLaurent._make(laurent))
    return rest + total if rest else total


# --- parsing ---------------------------------------------------------------

_T = TScalar.monomial(1, 1)
_GRAMMAR = Grammar("scalar", TScalar, TScalar.monomial, {"t": ("t", lambda m: _T)}, juxtapose=False)


def parse_tscalar(text: str) -> TScalar:
    """Parse any printed TScalar/TLaurent form, e.g. "-9*t^6" or "(t^2 + 1) / t"."""
    return parse(_GRAMMAR, text)


def parse_tlaurent(text: str) -> TLaurent:
    return parse_tscalar(text).as_laurent()
