"""Exact coefficient arithmetic: rationals, Laurent polynomials in t, and Q(t).

A coefficient is a Python int or a rational of the backend: gmpy2's mpq when
available (much faster), otherwise the standard library Fraction (Knuth,
TAOCP vol. 2, 4.5.1: a rational in lowest terms with denominator 1 is an
integer).  `rat` is the one exact constructor, and it returns an int for an
integral value.  Sums, differences and `scale` can leave an integral value a
backend rational; such a rational compares, hashes and prints as that int,
since both kinds print as "p/q" with the "/q" omitted for integers.  Every
division of a coefficient goes through `rat` or has a backend rational
operand, so no coefficient is ever a float.
"""

from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Union

from .linear import LinearCombination, accumulate, power
from .text import Grammar, join_terms, parse

try:
    from gmpy2 import mpq as Rational

    _coprime = Rational
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rational

    def _coprime(numerator: int, denominator: int) -> Rational:
        """The Fraction of coprime ints over a denominator above 1, built
        without the gcd its constructor would repeat (as CPython 3.12's
        Fraction._from_coprime_ints does)."""
        value = object.__new__(Rational)
        value._numerator, value._denominator = numerator, denominator
        return value

RationalLike = Union[int, "Rational"]


def rat(numerator: RationalLike, denominator: RationalLike = 1) -> RationalLike:
    """numerator / denominator exactly: an int when the denominator divides
    the numerator, else a backend Rational in lowest terms."""
    if type(numerator) is int and type(denominator) is int:
        common = gcd(numerator, denominator)
        if common == denominator:  # the one divisibility test; 0 // 0 raises
            return numerator // common
        if denominator > 0:
            return _coprime(numerator // common, denominator // common)
        if denominator:
            return rat(-numerator, -denominator)
        raise ZeroDivisionError(f"rat({numerator}, 0)")
    if type(numerator) is Rational:
        if denominator == 1:
            return numerator if numerator.denominator != 1 else int(numerator.numerator)
        if type(denominator) is int:
            return rat(int(numerator.numerator), int(numerator.denominator) * denominator)
    if type(numerator) is float or type(denominator) is float:
        raise TypeError(f"a float is not an exact coefficient: rat({numerator!r}, {denominator!r})")
    value = Rational(numerator) if denominator == 1 else Rational(numerator, denominator)
    return value if value.denominator != 1 else int(value.numerator)


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


def integer_numerators(coeffs) -> tuple[int, list[int]]:
    """(D, [c * D, ...]): the rationals over their least common denominator D.
    Ints are their own numerators over D = 1, and a list of them comes back
    as it is, so no caller writes to the list it gets.  Numerators and
    denominators go through int(), so mpq serves as Fraction does."""
    if type(coeffs) is not list:
        coeffs = list(coeffs)
    if all(type(c) is int for c in coeffs):
        return 1, coeffs
    fractions = [(int(c.numerator), int(c.denominator)) for c in coeffs]
    # lcm(*list), not lcm(*generator): on CPython 3.11 each call with a
    # generator left about 90 bytes on the tuple free lists (up to 2,000
    # blocks per size), which raised the peak memory of the verify grids
    common = lcm(*[q for _, q in fractions])
    return common, [p * (common // q) for p, q in fractions]


# --- integer vectors: a sparse rational vector as (D, {key: c * D}) ----------

def integer_vector(terms: dict) -> tuple[int, dict]:
    """A sparse {key: rational} over its least common denominator D."""
    common, numerators = integer_numerators(terms.values())
    return common, dict(zip(terms, numerators))


def integer_form(value: LinearCombination) -> tuple[int, dict] | None:
    """The integer vector of a combination's rational terms, or None when it
    has none, computed on first use and kept on the value, which never
    changes after it is built."""
    try:
        return value._integer_form
    except AttributeError:
        terms = value._rational_terms()
        form = value._integer_form = None if terms is None else integer_vector(terms)
        return form


def integer_row(common: int, numerators: list[int] | dict) -> tuple[int, list[int] | dict]:
    """The rationals a / common of a dense row, or of a sparse dict of
    integer numerators, over their least common denominator: common and the
    numerators divided by their gcd."""
    sparse = type(numerators) is dict
    reduced = gcd(common, *(numerators.values() if sparse else numerators))
    if reduced == 1:
        return common, numerators
    if sparse:
        return common // reduced, {key: a // reduced for key, a in numerators.items()}
    return common // reduced, [a // reduced for a in numerators]


def pairing(f: tuple[int, dict | list], g: tuple[int, dict | list], weight) -> Rational:
    """The sum of weight(key) * f[key] * g[key] over the keys two integer
    vectors share, for an integer weight read only at those keys: the integer
    numerators are summed and divided once.  The numerators are two sparse
    dicts, walked from the smaller, or two dense rows over one index, whose
    keys are the positions."""
    (common_f, a), (common_g, b) = f, g
    if type(a) is list:
        total = sum(map(mul, map(weight, range(len(a))), map(mul, a, b)))
    else:
        if len(a) > len(b):
            a, b = b, a
        total = sum([weight(key) * x * b[key] for key, x in a.items() if key in b])
    return rat(total, common_f * common_g) if total else 0


def rational_terms(vector: tuple[int, dict]) -> dict:
    """The {key: rational} of an integer vector: one division per nonzero key."""
    common, numerators = vector
    return {key: rat(a, common) for key, a in numerators.items() if a}


def integer_combination(pairs) -> tuple[int, dict]:
    """The sum of s * v over (integer s, integer vector v) pairs, over the lcm
    of their denominators."""
    pairs = list(pairs)
    common = lcm(*[v[0] for _, v in pairs])
    scaled = [(s * (common // d), numerators) for s, (d, numerators) in pairs]
    return common, accumulate(
        (key, factor * a) for factor, numerators in scaled for key, a in numerators.items()
    )


class TLaurent(LinearCombination):
    """Laurent polynomial in t with rational coefficients, stored sparsely
    as {exponent: coefficient}."""

    __slots__ = ()
    _coerce = staticmethod(rat)

    @classmethod
    def one(cls) -> "TLaurent":
        return cls._make({0: 1})

    @classmethod
    def term(cls, coeff: RationalLike, exponent: int = 0) -> "TLaurent":
        coeff = rat(coeff)
        return cls._make({exponent: coeff} if coeff else {})

    @classmethod
    def t(cls, exponent: int = 1) -> "TLaurent":
        return cls._make({exponent: 1})

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
        return self.scale(Rational(1) / other.terms[0])

    def __pow__(self, n: int) -> "TLaurent":
        if n < 0:
            return power(TLaurent.one() / self, -n)
        return power(self, n)

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


# --- the gcd in Z[t]: Brown's modular algorithm ------------------------------
# W. S. Brown, J. ACM 18 (1971); Knuth, TAOCP vol. 2, 4.6.1.

# The gcd walks the primes below 2^31, largest first, by one pure step per
# prime.  The first MAX_CACHED_PRIMES steps are memoised (each adds about 31
# bits to the lift); later ones are tested afresh, so that a long walk cannot
# evict the steps every gcd takes.  Concurrent walks share only the memo.
MAX_CACHED_PRIMES = 64


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 61: the bases 2, 7 and 61 decide every n
    below 4,759,123,141 (Jaeschke, Math. Comp. 61, 1993)."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for base in (2, 7, 61):
        x = pow(base, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


@lru_cache(maxsize=MAX_CACHED_PRIMES)
def _prime_below(n: int) -> int | None:
    """The largest prime below the odd number n, or None when none exceeds 61."""
    return next((m for m in range(n - 2, 61, -2) if _is_prime(m)), None)


def _primes():
    """The primes below 2^31 in decreasing order, 2^31 - 1 first."""
    p, taken = (1 << 31) - 1, 0
    while p is not None:
        yield p
        taken += 1
        p = _prime_below(p) if taken <= MAX_CACHED_PRIMES else _prime_below.__wrapped__(p)


def _monic_gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd modulo p of two integer coefficient lists (lowest degree
    first), neither zero modulo p, by Euclid's algorithm."""
    a, b = [c % p for c in a], [c % p for c in b]
    while True:
        while b and b[-1] == 0:
            b.pop()
        if not b:
            inv = pow(a[-1], -1, p)
            return [c * inv % p for c in a]
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):  # a becomes a mod b
            top = a.pop() * inv % p
            shift = len(a) + 1 - len(b)
            for i in range(len(b) - 1):
                a[shift + i] = (a[shift + i] - top * b[i]) % p
        a, b = b, a


def _exact_quotient(a: list[int], g: list[int]) -> list[int] | None:
    """a / g for integer coefficient lists, or None when g does not divide a in Z[t]."""
    r = list(a)
    lead, n = g[-1], len(g) - 1
    quotient = [0] * (len(r) - n)
    for i in range(len(quotient) - 1, -1, -1):
        q, rest = divmod(r[i + n], lead)
        if rest:
            return None
        quotient[i] = q
        for j in range(n):
            r[i + j] -= q * g[j]
    return None if any(r[:n]) else quotient


def _cofactors(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(a / g, b / g) for g = gcd(a, b) with lc(g) > 0, on primitive integer
    coefficient lists (lowest degree first) with nonzero constant and top terms.

    Monic images of g modulo primes are scaled by gcd(lc a, lc b) and combined
    by the Chinese remainder theorem until one more prime leaves their
    symmetric lift unchanged.  Exact division of a and b by the lift's
    primitive part then certifies it: a common divisor of the images' degree,
    which bounds deg g, is g."""
    scale = gcd(a[-1], b[-1])  # a multiple of lc(g)
    lift, modulus = None, 1  # scale * g, modulo the product of the primes used
    for p in _primes():
        if a[-1] % p == 0 and b[-1] % p == 0:
            continue  # the image of g could lose its top term
        image = _monic_gcd_mod(a, b, p)
        if len(image) == 1:
            return a, b  # deg g <= deg image = 0
        if lift is not None and len(image) > len(lift):
            continue  # an unlucky prime: the image holds a factor g lacks
        image = [c * scale % p for c in image]
        if lift is None or len(image) < len(lift):
            lift, modulus = [c - p if 2 * c > p else c for c in image], p
            continue
        inverse = pow(modulus, -1, p)
        combined = [h + modulus * ((c - h) * inverse % p) for h, c in zip(lift, image)]
        modulus *= p
        combined = [c - modulus if 2 * c > modulus else c for c in combined]
        if combined == lift:
            content = gcd(*lift)
            g = [c // content for c in lift]
            x, y = _exact_quotient(a, g), _exact_quotient(b, g)
            if x is not None and y is not None:
                return x, y
        lift = combined
    raise ArithmeticError("no prime below 2^31 certified the gcd")


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

    def is_laurent(self) -> bool:
        return self.den == _LAURENT_ONE

    def as_laurent(self) -> TLaurent:
        if not self.is_laurent():
            raise ValueError(f"{self} is not a Laurent polynomial")
        return self.num

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
        if self.den is _LAURENT_ONE and other.den is _LAURENT_ONE:
            return TScalar(self.num, other.num)
        return TScalar(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "TScalar":
        if n < 0:
            return power(TScalar.one() / self, -n)
        return power(self, n)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TScalar):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):  # the constant other: den 1 and num other * t^0
            return self.den is _LAURENT_ONE and self.num.terms == ({0: other} if other else {})
        if isinstance(other, TLaurent):
            return self == TScalar(other)
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


def monomial_coefficient(value: TScalar, exponent: int) -> Rational | None:
    """The rational c when value is c * t^exponent with c nonzero, else None."""
    terms = value.num.terms
    return terms.get(exponent) if value.den is _LAURENT_ONE and len(terms) == 1 else None


def _primitive(poly: TLaurent) -> tuple[Rational, list[int]]:
    """(c, A) with poly = c * t^(min exponent) * A(t), for the primitive
    integer coefficient list A, lowest degree first, and c > 0."""
    low = poly.min_exp()
    common, numerators = integer_numerators(poly.terms.values())
    content = gcd(*numerators)
    coeffs = [0] * (poly.max_exp() - low + 1)
    for e, v in zip(poly.terms, numerators):
        coeffs[e - low] = v // content
    return Rational(content, common), coeffs


def _canonical(num: TLaurent, den: TLaurent) -> tuple[TLaurent, TLaurent]:
    if num.is_zero():
        return TLaurent.zero(), _LAURENT_ONE
    if len(den.terms) == 1:
        ((e, c),) = den.terms.items()
        return num.shift(-e).scale(Rational(1) / c), _LAURENT_ONE
    shift = num.min_exp() - den.min_exp()
    c_num, f = _primitive(num)
    c_den, g = _primitive(den)
    f, g = _cofactors(f, g)
    # num / den = (c_num / (c_den * lead)) * f / (g / lead), with g / lead monic
    lead = g[-1]
    scale = c_num / (c_den * lead)
    den = TLaurent._make({e: rat(c, lead) for e, c in enumerate(g) if c}) if len(g) > 1 else _LAURENT_ONE
    return TLaurent._make({e + shift: scale * c for e, c in enumerate(f) if c}), den


# --- parsing ---------------------------------------------------------------

_T = TScalar.monomial(1, 1)
_GRAMMAR = Grammar("scalar", TScalar, TScalar.monomial, {"t": ("t", lambda m: _T)}, juxtapose=False)


def parse_tscalar(text: str) -> TScalar:
    """Parse any printed TScalar/TLaurent form, e.g. "-9*t^6" or "(t^2 + 1) / t"."""
    return parse(_GRAMMAR, text)


def parse_tlaurent(text: str) -> TLaurent:
    return parse_tscalar(text).as_laurent()
