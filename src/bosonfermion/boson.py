"""The bosonic Fock space Q[p1, p2, ...; q, q^-1].

Monomials are stored sparsely; p_i has degree i, so Schur and power-sum
polynomials of a partition of n are homogeneous of degree n.
"""

from functools import cache
from typing import Iterable, NamedTuple

from .linear import LinearCombination, accumulate, power
from .partitions import Partition, partitions_of, z_factor
from .scalars import ONE, Rational, ZERO, parse_rational
from .text import Grammar, parse


class BosonMonomial(NamedTuple):
    q_power: int
    p_exps: tuple[tuple[int, int], ...]  # (variable index, exponent), index-sorted

    def degree(self) -> int:
        return sum(i * e for i, e in self.p_exps)

    def z(self) -> int:
        """Symmetriser order of the matching power-sum: prod i^e * e!."""
        result = 1
        for i, e in self.p_exps:
            result *= i**e
            for j in range(2, e + 1):
                result *= j
        return result

    def shape(self) -> Partition:
        """Partition with multiplicity m_i equal to the exponent of p_i."""
        parts = []
        for i, e in sorted(self.p_exps, reverse=True):
            parts.extend([i] * e)
        return Partition(parts)


_UNIT = BosonMonomial(0, ())


def _mono(q_power: int = 0, exps: dict[int, int] | None = None) -> BosonMonomial:
    items = tuple(sorted((i, e) for i, e in (exps or {}).items() if e))
    return BosonMonomial(q_power, items)


def _merge_exps(a: tuple, b: tuple) -> tuple:
    """Merge two index-sorted exponent tuples, adding exponents."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ia, ea = a[i]
        ib, eb = b[j]
        if ia < ib:
            out.append(a[i])
            i += 1
        elif ia > ib:
            out.append(b[j])
            j += 1
        else:
            out.append((ia, ea + eb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_mul(a: BosonMonomial, b: BosonMonomial) -> BosonMonomial:
    return BosonMonomial(a.q_power + b.q_power, _merge_exps(a.p_exps, b.p_exps))


def _mono_sort_key(mono: BosonMonomial):
    return (mono.q_power, -mono.degree(), tuple((i, -e) for i, e in mono.p_exps))


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
        return cls._make({_mono(0, {index: 1}): ONE})

    @classmethod
    def q(cls, power: int = 1) -> "BosonPolynomial":
        return cls._make({_mono(power): ONE})

    def __mul__(self, other: "BosonPolynomial") -> "BosonPolynomial":
        if type(other) is not BosonPolynomial:
            return NotImplemented
        return BosonPolynomial._make(accumulate(
            (_mono_mul(m1, m2), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        ))

    def __truediv__(self, other: "BosonPolynomial") -> "BosonPolynomial":
        if type(other) is not BosonPolynomial:
            return NotImplemented
        if list(other.terms) != [_UNIT]:
            raise ValueError("division is only supported by rational constants")
        return self.scale(ONE / other.terms[_UNIT])

    def __pow__(self, n: int) -> "BosonPolynomial":
        if n >= 0:
            return power(self, n)
        if self != BosonPolynomial.q():
            raise ValueError("negative exponents are only allowed on q")
        return BosonPolynomial.q(n)

    def q_components(self) -> dict[int, "BosonPolynomial"]:
        """Split into pieces of fixed q-power, with the q-factor removed."""
        pieces: dict[int, dict[BosonMonomial, Rational]] = {}
        for mono, coeff in self.terms.items():
            pieces.setdefault(mono.q_power, {})[_mono(0, dict(mono.p_exps))] = coeff
        return {m: BosonPolynomial._make(t) for m, t in sorted(pieces.items())}

    def p_degree(self) -> int:
        """Common p-degree of all terms; error when inhomogeneous or zero."""
        degrees = {mono.degree() for mono in self.terms}
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
        out = []
        for mono in sorted(self.terms, key=_mono_sort_key):
            out.append({
                "q": mono.q_power,
                "p": [[i, e] for i, e in mono.p_exps],
                "coeff": str(self.terms[mono]),
            })
        return out

    @classmethod
    def from_json(cls, data: Iterable[dict]) -> "BosonPolynomial":
        return cls._make(accumulate(
            (
                _mono(int(item.get("q", 0)), {int(i): int(e) for i, e in item.get("p", [])}),
                parse_rational(item["coeff"]),
            )
            for item in data
        ))


def oscillator(m: int, f: BosonPolynomial) -> BosonPolynomial:
    """Action of the oscillator generator s_m: m*d/dp_m, p_{-m}, or q d/dq."""
    if m > 0:
        def lowered():
            for mono, coeff in f.terms.items():
                exps = dict(mono.p_exps)
                e = exps.pop(m, 0)
                if e:
                    if e > 1:
                        exps[m] = e - 1
                    yield _mono(mono.q_power, exps), coeff * m * e

        return BosonPolynomial._make(accumulate(lowered()))
    if m < 0:
        return f * BosonPolynomial.p(-m)
    return BosonPolynomial._make(
        {mono: coeff * mono.q_power for mono, coeff in f.terms.items() if mono.q_power}
    )


@cache
def elementary_schur(n: int) -> BosonPolynomial:
    """Complete-homogeneous generator: sum over partitions of n of p^mu / z_mu."""
    if n < 0:
        return BosonPolynomial.zero()
    if n == 0:
        return BosonPolynomial.one()
    return BosonPolynomial._make(
        {_mono(0, mu.multiplicities()): Rational(1, z_factor(mu)) for mu in partitions_of(n)}
    )


def _determinant(matrix: list[list[BosonPolynomial]]) -> BosonPolynomial:
    """Laplace expansion with memoised minors, sparsest rows first."""
    n = len(matrix)
    if n == 0:
        return BosonPolynomial.one()
    order = sorted(range(n), key=lambda i: sum(1 for p in matrix[i] if not p.is_zero()))
    inversions = sum(1 for a in range(n) for b in range(a + 1, n) if order[a] > order[b])
    rows = [matrix[i] for i in order]
    memo: dict[frozenset, BosonPolynomial] = {}

    def minor(cols: frozenset) -> BosonPolynomial:
        if not cols:
            return BosonPolynomial.one()
        cached = memo.get(cols)
        if cached is not None:
            return cached
        depth = n - len(cols)
        row = rows[depth]
        total = BosonPolynomial.zero()
        for idx, c in enumerate(sorted(cols)):
            entry = row[c]
            if entry.is_zero():
                continue
            term = entry * minor(cols - {c})
            total = total + (term if idx % 2 == 0 else -term)
        memo[cols] = total
        return total

    result = minor(frozenset(range(n)))
    return -result if inversions % 2 else result


@cache
def schur_jacobi_trudi(shape: Partition, order: int) -> BosonPolynomial:
    """Schur polynomial as the determinant det(S_{shape_i + j - i}) of the given order."""
    if order < len(shape):
        raise ValueError("determinant order must be at least the number of parts")
    matrix = [
        [elementary_schur(shape.part(i) + j - i) for j in range(order)]
        for i in range(order)
    ]
    return _determinant(matrix)


def schur(shape: Partition) -> BosonPolynomial:
    return schur_jacobi_trudi(shape, len(shape))


def power_sum(shape: Partition) -> BosonPolynomial:
    """The monomial prod_i p_i^(m_i(shape)) at q^0."""
    return BosonPolynomial._make({_mono(0, shape.multiplicities()): ONE})


def hall_form(f: BosonPolynomial, g: BosonPolynomial) -> Rational:
    """Symmetric bilinear form with <p_mu, p_nu> = delta * z_mu; q^0 inputs only."""
    f.require_q0()
    g.require_q0()
    small, large = (f.terms, g.terms) if len(f.terms) <= len(g.terms) else (g.terms, f.terms)
    total = ZERO
    for mono, coeff in small.items():
        other = large.get(mono)
        if other is not None:
            total += coeff * other * mono.z()
    return total


@cache
def _mono_schur_index(n: int) -> dict[BosonMonomial, tuple[tuple[Partition, Rational], ...]]:
    """For degree n, map each monomial to its Hall pairings with every S_shape."""
    index: dict[BosonMonomial, list[tuple[Partition, Rational]]] = {}
    for shape in partitions_of(n):
        for mono, coeff in schur(shape).terms.items():
            index.setdefault(mono, []).append((shape, coeff * mono.z()))
    return {mono: tuple(entries) for mono, entries in index.items()}


def schur_expand(f: BosonPolynomial) -> dict[Partition, Rational]:
    """Coefficients of a homogeneous q^0 polynomial in the Schur basis."""
    f.require_q0()
    if f.is_zero():
        return {}
    n = f.p_degree()
    index = _mono_schur_index(n)
    return accumulate(
        (shape, coeff * weight)
        for mono, coeff in f.terms.items()
        for shape, weight in index.get(mono, ())
    )


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
    if not mono.p_exps:
        return str(coeff)
    body = " ".join(f"p{i}" if e == 1 else f"p{i}^{e}" for i, e in mono.p_exps)
    if coeff == 1:
        return body
    return f"({coeff})*{body}"


_GRAMMAR = Grammar("polynomial", BosonPolynomial, BosonPolynomial.constant, {
    "p": (r"p(?P<p_index>\d+)", lambda m: BosonPolynomial.p(int(m["p_index"]))),
    "q": ("q", lambda m: BosonPolynomial.q()),
})


def parse_boson(text: str) -> BosonPolynomial:
    """Parse the printed polynomial form, e.g. "(1/3)*p1^3 + (-1/3)*p3"."""
    return parse(_GRAMMAR, text)
