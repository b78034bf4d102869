"""The bosonic Fock space Q[p1, p2, ...; q, q^-1].

Monomials are stored sparsely and keyed, like every basis in the package, by
a partition: q^m p_mu is the pair (m, mu).  p_i has degree i, so Schur and
power-sum polynomials of a partition of n are homogeneous of degree n.
"""

from functools import cache
from math import factorial
from typing import Iterable, NamedTuple

from .linear import LinearCombination, accumulate, power
from .partitions import Partition, conjugate, partitions_of, ribbons, z_factor
from .scalars import (
    ONE,
    Rational,
    format_rational,
    integer_combination,
    integer_numerators,
    integer_product,
    integer_vector,
    is_integer,
    pairing,
    rational_terms,
    read_terms,
)
from .text import Grammar, parse


class BosonMonomial(NamedTuple):
    """The monomial q^q_power * p_shape, where p_shape = p_{shape_1} p_{shape_2} ..."""
    q_power: int
    shape: Partition


_UNIT = BosonMonomial(0, Partition())
_MAX_PARTS = 10**5  # factors of one p-monomial built by a product or a power, or read from JSON


def _mono_mul(a: BosonMonomial, b: BosonMonomial) -> BosonMonomial:
    """Concatenate the parts; both are partitions, so sorting needs no re-check.
    A side without parts shares the other's partition, which saves memory."""
    shape = a.shape or b.shape
    if a.shape and b.shape:
        shape = tuple.__new__(Partition, sorted(a.shape + b.shape, reverse=True))
    return BosonMonomial(a.q_power + b.q_power, shape)


def _longest(f: "BosonPolynomial") -> int:
    """The most factors of any p-monomial of f."""
    return max([len(mono.shape) for mono in f.terms], default=0)


def _exponents(shape: Partition) -> list[tuple[int, int]]:
    """(index i, exponent of p_i) pairs of p_shape, smallest index first."""
    return sorted(shape.multiplicities().items())


def _mono_sort_key(mono: BosonMonomial):
    """q power, higher degree, then smallest parts first (p1^2 p3 before p1 p2^2)."""
    return (mono.q_power, -mono.shape.size(), mono.shape[::-1])


class BosonPolynomial(LinearCombination):
    """Finite Q-linear combination of monomials in p1, p2, ... and q, q^-1."""

    __slots__ = ()
    _coerce = staticmethod(Rational)

    @classmethod
    def one(cls) -> "BosonPolynomial":
        return cls._make({_UNIT: ONE})

    @classmethod
    def constant(cls, value) -> "BosonPolynomial":
        return cls({_UNIT: value})

    @classmethod
    def p(cls, index: int) -> "BosonPolynomial":
        if index < 1:
            raise ValueError("p-variables are indexed from 1")
        return cls._make({BosonMonomial(0, Partition((index,))): ONE})

    @classmethod
    def q(cls, power: int = 1) -> "BosonPolynomial":
        return cls._make({BosonMonomial(power, Partition()): ONE})

    def __mul__(self, other: "BosonPolynomial") -> "BosonPolynomial":
        if type(other) is not BosonPolynomial:
            return NotImplemented
        if _longest(self) + _longest(other) > _MAX_PARTS:
            raise ValueError(f"a p-monomial may have at most {_MAX_PARTS} factors")
        product = integer_product(integer_vector(self.terms), integer_vector(other.terms), _mono_mul)
        return BosonPolynomial._make(rational_terms(product))

    def __truediv__(self, other: "BosonPolynomial") -> "BosonPolynomial":
        if type(other) is not BosonPolynomial:
            return NotImplemented
        if list(other.terms) != [_UNIT]:
            raise ValueError("division is only supported by rational constants")
        return self.scale(ONE / other.terms[_UNIT])

    def __pow__(self, n: int) -> "BosonPolynomial":
        if n >= 0:
            if _longest(self) * n > _MAX_PARTS:
                raise ValueError(f"a p-monomial may have at most {_MAX_PARTS} factors")
            return power(self, n)
        if self != BosonPolynomial.q():
            raise ValueError("negative exponents are only allowed on q")
        return BosonPolynomial.q(n)

    def q_components(self) -> dict[int, "BosonPolynomial"]:
        """Split into pieces of fixed q-power, with the q-factor removed."""
        pieces: dict[int, dict[BosonMonomial, Rational]] = {}
        for mono, coeff in self.terms.items():
            pieces.setdefault(mono.q_power, {})[BosonMonomial(0, mono.shape)] = coeff
        return {m: BosonPolynomial._make(t) for m, t in sorted(pieces.items())}

    def p_degree(self) -> int:
        """Common p-degree of all terms; error when inhomogeneous or zero."""
        degrees = {mono.shape.size() for mono in self.terms}
        if len(degrees) != 1:
            raise ValueError("polynomial is not homogeneous in p-degree")
        return degrees.pop()

    def require_q0(self) -> None:
        if any(mono.q_power != 0 for mono in self.terms):
            raise ValueError("operation requires q-power zero throughout")

    def __str__(self) -> str:
        return format_boson(self)

    def __repr__(self) -> str:
        return f"BosonPolynomial<{self}>"

    def to_json(self) -> list[dict]:
        return [
            {"q": mono.q_power, "p": [[i, e] for i, e in _exponents(mono.shape)], "coeff": format_rational(c)}
            for mono, c in sorted(self.terms.items(), key=lambda term: _mono_sort_key(term[0]))
        ]

    @classmethod
    def from_json(cls, data: list) -> "BosonPolynomial":
        """Read the list written by to_json; ValueError on any other shape of
        input, including an index repeated within one term."""
        return cls._make(read_terms(data, _monomial_from_json))


def _monomial_from_json(item: dict) -> BosonMonomial:
    q_power, exps = item.get("q", 0), item.get("p", [])
    if not is_integer(q_power) or not isinstance(exps, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(is_integer(x) and x > 0 for x in pair)
        for pair in exps
    ) or len({i for i, _ in exps}) != len(exps) or sum(e for _, e in exps) > _MAX_PARTS:
        raise ValueError("a term has an integer q and p = [[index, exponent], ...] with distinct "
                         f"positive indices, positive exponents and at most {_MAX_PARTS} factors")
    return BosonMonomial(q_power, Partition(sorted((i for i, e in exps for _ in range(e)), reverse=True)))


def oscillator(m: int, f: BosonPolynomial) -> BosonPolynomial:
    """Action of the oscillator generator s_m: m*d/dp_m, p_{-m}, or q d/dq."""
    if m > 0:
        def lowered():
            for mono, coeff in f.terms.items():
                shape = mono.shape
                if m in shape:
                    i = shape.index(m)
                    rest = tuple.__new__(Partition, shape[:i] + shape[i + 1:])
                    yield BosonMonomial(mono.q_power, rest), coeff * m * shape.count(m)

        return BosonPolynomial._make(accumulate(lowered()))
    if m < 0:  # p_{-m} times each monomial: distinct monomials stay distinct
        raised = BosonMonomial(0, Partition((-m,)))
        return BosonPolynomial._make({_mono_mul(mono, raised): coeff for mono, coeff in f.terms.items()})
    return BosonPolynomial._make(
        {mono: coeff * mono.q_power for mono, coeff in f.terms.items() if mono.q_power}
    )


def _complete(k: int) -> tuple[int, dict]:
    """h_k = sum over mu of p_mu / z_mu as the integer vector (k!, {(0, mu): k!/z_mu})."""
    common = factorial(k)
    return common, {BosonMonomial(0, mu): common // z_factor(mu) for mu in partitions_of(k)}


def _elementary(k: int) -> tuple[int, dict]:
    """e_k = sum over mu of (-1)^(k - len(mu)) p_mu / z_mu as an integer vector over k!."""
    common = factorial(k)
    return common, {BosonMonomial(0, mu): (-1) ** (k - len(mu)) * common // z_factor(mu)
                    for mu in partitions_of(k)}


def _jacobi_trudi(generator, parts: Partition) -> BosonPolynomial:
    """det(g_{parts_i - i + j}) over 0 <= i, j < len(parts), with g_k = generator(k)
    for k >= 0 and 0 below: Laplace expansion with memoised minors, sparsest rows
    first.  Each g_k is built once, and entries and minors stay integer vectors,
    so each output coefficient is divided once."""
    n = len(parts)
    degrees = [[parts[i] - i + j for j in range(n)] for i in range(n)]
    order = sorted(range(n), key=lambda i: sum(1 for k in degrees[i] if k >= 0))
    inversions = sum(1 for a in range(n) for b in range(a + 1, n) if order[a] > order[b])
    entries = {k: generator(k) for k in {k for row in degrees for k in row if k >= 0}}
    rows = [[entries.get(k) for k in degrees[i]] for i in order]
    result = BosonPolynomial._make(rational_terms(_minor(rows, frozenset(range(n)), {})))
    return -result if inversions % 2 else result


def _minor(rows: list, cols: frozenset, memo: dict) -> tuple[int, dict]:
    """The minor of the last len(cols) rows on the columns cols, expanded
    along its first row; a zero entry is None.  The memo is passed, not
    closed over, so it is freed as soon as the determinant returns."""
    if not cols:
        return 1, {_UNIT: 1}
    cached = memo.get(cols)
    if cached is None:
        row = rows[len(rows) - len(cols)]
        cached = memo[cols] = integer_combination(
            (1 if idx % 2 == 0 else -1, integer_product(row[c], _minor(rows, cols - {c}, memo), _mono_mul))
            for idx, c in enumerate(sorted(cols)) if row[c] is not None
        )
    return cached


def schur_jacobi_trudi(shape: Partition) -> BosonPolynomial:
    """S_shape = det(h_{shape_i - i + j}) (Jacobi-Trudi, Macdonald I.3 (3.4))."""
    return _jacobi_trudi(_complete, shape)


def schur_dual_jacobi_trudi(shape: Partition) -> BosonPolynomial:
    """S_shape = det(e_{shape'_i - i + j}) over the conjugate shape' (Macdonald I.3 (3.5))."""
    return _jacobi_trudi(_elementary, conjugate(shape))


# The largest degree of the character table, so that the memo tables of
# `characters` and `schur` stay finite; degree 20 builds in about 2 s.
MAX_SCHUR_DEGREE = 20


@cache
def characters(n: int) -> dict[Partition, dict[Partition, int]]:
    """Character table of S_n as {shape: {cycle type mu: chi^shape(mu) != 0}}.

    Murnaghan-Nakayama: chi^shape(mu) is the sum of sign * chi^rho(mu_2, ...)
    over the border strips (sign, rho) of size mu_1 in ribbons(shape, mu_1).
    """
    if not 0 <= n <= MAX_SCHUR_DEGREE:
        raise ValueError(f"Schur data is available for degrees 0 to {MAX_SCHUR_DEGREE}, got {n}")
    if n == 0:
        return {Partition(): {Partition(): 1}}
    columns = [(mu, mu[0], mu[1:], characters(n - mu[0])) for mu in partitions_of(n)]
    table = {}
    for shape in partitions_of(n):
        row = {}
        for mu, first, rest, smaller in columns:
            value = sum(sign * smaller[rho].get(rest, 0) for sign, rho in ribbons(shape, first))
            if value:
                row[mu] = value
        table[shape] = row
    return table


def from_schur(coords: Iterable[tuple[tuple[int, Partition], Rational]]) -> BosonPolynomial:
    """The sum of c * q^m * S_shape over the pairs ((m, shape), c), with
    S_shape = sum over mu of chi^shape(mu) / z_mu * p_mu.

    The inverse of schur_expand: the characters are summed per (m, mu) as
    integer numerators over one common denominator, so that each output
    coefficient costs a single division by common * z_mu.
    """
    coords = list(coords)
    common, numerators = integer_numerators(c for _, c in coords)
    totals: dict[int, dict[Partition, int]] = {}
    for ((m, shape), _), a in zip(coords, numerators):
        row = totals.setdefault(m, {})
        for mu, chi in characters(shape.size())[shape].items():
            row[mu] = row.get(mu, 0) + a * chi
    return BosonPolynomial._make({
        BosonMonomial(m, mu): Rational(total, common * z_factor(mu))
        for m, row in totals.items() for mu, total in row.items() if total
    })


@cache
def schur(shape: Partition) -> BosonPolynomial:
    """S_shape = sum over mu of chi^shape(mu) / z_mu * p_mu."""
    return from_schur([((0, shape), ONE)])


def power_sum(shape: Partition) -> BosonPolynomial:
    """The monomial p_shape = prod_i p_(shape_i) at q^0."""
    return BosonPolynomial._make({BosonMonomial(0, shape): ONE})


def hall_form(f: BosonPolynomial, g: BosonPolynomial) -> Rational:
    """Symmetric bilinear form with <p_mu, p_nu> = delta * z_mu; q^0 inputs only."""
    f.require_q0()
    g.require_q0()
    return pairing(f.terms, g.terms, lambda mono: z_factor(mono.shape))


def schur_expand(f: BosonPolynomial) -> dict[Partition, Rational]:
    """Coefficients of a homogeneous q^0 polynomial in the Schur basis: p_mu
    is the sum over shapes of chi^shape(mu) * S_shape."""
    f.require_q0()
    if f.is_zero():
        return {}
    table = characters(f.p_degree())
    # Integer numerators over one common denominator: a single division per shape.
    common, ints = integer_numerators(f.terms.values())
    numerators = list(zip((mono.shape for mono in f.terms), ints))
    totals = ((shape, sum(a * row.get(mu, 0) for mu, a in numerators)) for shape, row in table.items())
    return {shape: Rational(total, common) for shape, total in totals if total}


# --- text form ---------------------------------------------------------------

def format_boson(poly: BosonPolynomial) -> str:
    """Deterministic text form, grouped by q-power.

    Terms print as "(c)*p1^a p2^b" with unit coefficients omitted; each
    nonzero q-power wraps its terms as "q^m * (...)".
    """
    if poly.is_zero():
        return "0"
    groups = []
    for q_power, component in poly.q_components().items():
        text = " + ".join(
            _format_boson_term(mono, component.terms[mono])
            for mono in sorted(component.terms, key=_mono_sort_key)
        )
        if q_power == 0:
            groups.append(text)
        elif text == "1":
            groups.append(_q_str(q_power))
        else:
            groups.append(f"{_q_str(q_power)} * ({text})")
    return " + ".join(groups)


def _q_str(power: int) -> str:
    return "q" if power == 1 else f"q^{power}"


def _format_boson_term(mono: BosonMonomial, coeff: Rational) -> str:
    if not mono.shape:
        return format_rational(coeff)
    body = " ".join(f"p{i}" if e == 1 else f"p{i}^{e}" for i, e in _exponents(mono.shape))
    if coeff == 1:
        return body
    return f"({format_rational(coeff)})*{body}"


_GRAMMAR = Grammar("polynomial", BosonPolynomial, BosonPolynomial.constant, {
    "p": (r"p(?P<p_index>\d+)", lambda m: BosonPolynomial.p(int(m["p_index"]))),
    "q": ("q", lambda m: BosonPolynomial.q()),
})


def parse_boson(text: str) -> BosonPolynomial:
    """Parse the printed polynomial form, e.g. "(1/3)*p1^3 + (-1/3)*p3"."""
    return parse(_GRAMMAR, text)
