"""The bosonic Fock space Q[p1, p2, ...; q, q^-1].

Monomials are stored sparsely and keyed, like every basis in the package, by
a partition: q^m p_mu is the pair (m, mu).  p_i has degree i, so Schur and
power-sum polynomials of a partition of n are homogeneous of degree n.

A value of one graded piece (q power m, degree n), for n a Schur degree, may
keep instead the integer block (m, n, D, [c_mu * D for mu in partitions_of(n)])
of linear.BlockCombination, a dense row over the index of the character
table.  Schur polynomials, sigma and phi are such values; the oscillators,
the Hall form, ==, +, - and rational multiples read the block, and the sparse
terms are built from it on first read.
"""

from functools import cache
from math import comb, factorial
from operator import add, attrgetter, mul, neg, sub
from typing import Iterable, NamedTuple

from .linear import BlockCombination, accumulate, power
from .partitions import MAX_SCHUR_DEGREE, Partition, conjugate, partitions_of, ribbons, z_factor
from .scalars import (
    Rational,
    format_rational,
    integer_numerators,
    integer_row,
    is_integer,
    pairing,
    rat,
    read_terms,
)
from .text import Grammar, parse


class BosonMonomial(NamedTuple):
    """The monomial q^q_power * p_shape, where p_shape = p_{shape_1} p_{shape_2} ..."""
    q_power: int
    shape: Partition


_UNIT = BosonMonomial(0, Partition())
_q_power = attrgetter("q_power")
_MAX_PARTS = 10**5  # factors of one p-monomial built by a product or a power, or read from JSON


def _mono_mul(a: BosonMonomial, b: BosonMonomial) -> BosonMonomial:
    """Concatenate the parts; both are partitions, so sorting needs no re-check.
    A side without parts shares the other's partition, which saves memory."""
    shape = a.shape or b.shape
    if a.shape and b.shape:
        shape = tuple.__new__(Partition, sorted(a.shape + b.shape, reverse=True))
    return tuple.__new__(BosonMonomial, (a.q_power + b.q_power, shape))


def _longest(f: "BosonPolynomial") -> int:
    """The most factors of any p-monomial of f."""
    return max([len(mono.shape) for mono in f.terms], default=0)


def _exponents(shape: Partition) -> list[tuple[int, int]]:
    """(index i, exponent of p_i) pairs of p_shape, smallest index first."""
    return sorted(shape.multiplicities().items())


def _term_sort_key(term: tuple[BosonMonomial, Rational]):
    """q power, higher degree, then smallest parts first (p1^2 p3 before p1 p2^2)."""
    mono = term[0]
    return (mono.q_power, -mono.shape.size(), mono.shape[::-1])


class BosonPolynomial(BlockCombination):
    """Finite Q-linear combination of monomials in p1, p2, ... and q, q^-1;
    a block value keeps a dense row (see the module docstring)."""

    __slots__ = ()
    _coerce = staticmethod(rat)

    @staticmethod
    def _term(charge: int, n: int, shape: Partition, c: Rational) -> tuple:
        return tuple.__new__(BosonMonomial, (charge, shape)), c

    @classmethod
    def one(cls) -> "BosonPolynomial":
        return cls._make({_UNIT: 1})

    @classmethod
    def constant(cls, value) -> "BosonPolynomial":
        return cls({_UNIT: value})

    @classmethod
    def p(cls, index: int) -> "BosonPolynomial":
        if index < 1:
            raise ValueError("p-variables are indexed from 1")
        return cls._make({BosonMonomial(0, Partition((index,))): 1})

    @classmethod
    def q(cls, power: int = 1) -> "BosonPolynomial":
        return cls._make({BosonMonomial(power, Partition()): 1})

    def __mul__(self, other: "BosonPolynomial") -> "BosonPolynomial":
        if type(other) is not BosonPolynomial:
            return NotImplemented
        if _longest(self) + _longest(other) > _MAX_PARTS:
            raise ValueError(f"a p-monomial may have at most {_MAX_PARTS} factors")
        return BosonPolynomial._make(accumulate(
            (_mono_mul(a, b), x * y) for a, x in self.terms.items() for b, y in other.terms.items()
        ))

    def __truediv__(self, other: "BosonPolynomial") -> "BosonPolynomial":
        if type(other) is not BosonPolynomial:
            return NotImplemented
        if list(other.terms) != [_UNIT]:
            raise ValueError("division is only supported by rational constants")
        return self.scale(Rational(1) / other.terms[_UNIT])

    def __pow__(self, n: int) -> "BosonPolynomial":
        if n >= 0:
            if _longest(self) * n > _MAX_PARTS:
                raise ValueError(f"a p-monomial may have at most {_MAX_PARTS} factors")
            return power(self, n)
        if self != BosonPolynomial.q():
            raise ValueError("negative exponents are only allowed on q")
        return BosonPolynomial.q(n)

    def p_degree(self) -> int:
        """Common p-degree of all terms; error when inhomogeneous or zero."""
        if self._block is not None and not self.is_zero():
            return self.n
        degrees = {mono.shape.size() for mono in self.terms}
        if len(degrees) != 1:
            raise ValueError("polynomial is not homogeneous in p-degree")
        return degrees.pop()

    def require_q0(self) -> None:
        block = self._block
        if block[0] and any(block[3]) if block is not None else any(map(_q_power, self.terms)):
            raise ValueError("operation requires q-power zero throughout")

    def __str__(self) -> str:
        return format_boson(self)

    def __repr__(self) -> str:
        return f"BosonPolynomial<{self}>"

    def to_json(self) -> list[dict]:
        return [
            {"q": mono.q_power, "p": [[i, e] for i, e in _exponents(mono.shape)], "coeff": format_rational(c)}
            for mono, c in sorted(self.terms.items(), key=_term_sort_key)
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
    """Action of the oscillator generator s_m: m*d/dp_m, p_{-m}, or q d/dq.
    A block value whose image has a Schur degree gives a block value; any
    other value takes the sparse path below."""
    block = f._block
    if block is not None and block[1] - m <= MAX_SCHUR_DEGREE:
        return _block_oscillator(m, block)
    if m < 0:  # p_{-m} times each monomial: distinct monomials stay distinct
        raised = tuple.__new__(BosonMonomial, (0, Partition((-m,))))
        return BosonPolynomial._make({_mono_mul(mono, raised): coeff for mono, coeff in f.terms.items()})
    # distinct monomials have distinct images
    if m == 0:
        return BosonPolynomial._make({mono: c * mono.q_power for mono, c in f.terms.items() if mono.q_power})
    lowered = {}
    for mono, c in f.terms.items():
        shape = mono.shape
        if m in shape:
            i = shape.index(m)
            rest = tuple.__new__(Partition, shape[:i] + shape[i + 1:])
            lowered[tuple.__new__(BosonMonomial, (mono.q_power, rest))] = c * m * shape.count(m)
    return BosonPolynomial._make(lowered)


def _block_oscillator(m: int, block: tuple) -> BosonPolynomial:
    """oscillator(m, .) on a block of degree n: p_{-m} p_nu = p_(nu + (-m)) sends
    entry j to _union(-m, n)[0][j]; m d/dp_m p_mu = m * m_m(mu) p_(mu - (m)),
    so entry j of the result reads the entry of the row and its weight that
    _lowering(m, n - m)[j] holds; q d/dq scales the row by q_power."""
    q_power, n, common, numerators = block
    if m < 0:
        lifted = [0] * len(partitions_of(n - m))
        for target, a in zip(_union(-m, n)[0], numerators):
            lifted[target] = a
        return BosonPolynomial._from_block(q_power, n - m, common, lifted)
    if m > n:
        return BosonPolynomial.zero()
    if m == 0:
        totals = [q_power * a for a in numerators]
    else:
        totals = [weight * numerators[source] for weight, source in _lowering(m, n - m)]
    return BosonPolynomial._from_block(q_power, n - m, *integer_row(common, totals))


@cache
def _lowering(k: int, d: int) -> list[tuple[int, int]]:
    """Entry j is (k * (m_k(nu_j) + 1), the index in partitions_of(k + d) of
    nu_j + (k)), nu_j in partitions_of(d): k d/dp_k sends p_(nu_j + (k)) to
    that multiple of p_(nu_j).  ValueError, through _union, above the Schur
    degrees."""
    sources = _union(k, d)[0]
    return [(k * (nu.count(k) + 1), source) for nu, source in zip(partitions_of(d), sources)]


@cache
def _complete(k: int) -> list[int]:
    """h_k = sum over mu of p_mu / z_mu as the dense row [k!/z_mu] over partitions_of(k)."""
    common = factorial(k)
    return [common // z for z in _z_row(k)]


@cache
def _elementary(k: int) -> list[int]:
    """e_k = sum over mu of (-1)^(k - len(mu)) p_mu / z_mu as a dense row over k!."""
    common = factorial(k)
    return [(-1) ** (k - len(mu)) * common // z for mu, z in zip(partitions_of(k), _z_row(k))]


@cache
def _union(k: int, d: int) -> list[list[int]]:
    """Entry [i][j] is the index in partitions_of(k + d) of mu_i + nu_j, the parts
    of mu_i in partitions_of(k) and nu_j in partitions_of(d) joined: p_mu p_nu."""
    index = _columns(k + d)
    return [[index[tuple(sorted(mu + nu, reverse=True))] for nu in partitions_of(d)] for mu in partitions_of(k)]


def _jacobi_trudi(generator, parts: Partition) -> BosonPolynomial:
    """det(g_{parts_i - i + j}) over 0 <= i, j < len(parts), with g_k = generator(k)
    for k >= 0 and 0 below: Laplace expansion with memoised minors, on the matrix
    with its rows and its columns reversed (the same determinant), so the last,
    sparsest rows come first.  Each entry and each minor of degree d is a dense
    integer row over partitions_of(d) scaled by d!, and the determinant is a block value."""
    size = _schur_degree(parts.size())  # before any table stores a key
    n = len(parts)
    degrees = [[parts[n - 1 - i] + i - j for j in range(n)] for i in range(n)]
    rows = [[(k, generator(k)) if k >= 0 else None for k in row] for row in degrees]
    total = _minor(rows, frozenset(range(n)), size, {}) or [0] * len(partitions_of(size))
    return BosonPolynomial._from_block(0, size, *integer_row(factorial(size), total))


def _minor(rows: list, cols: frozenset, degree: int, memo: dict) -> list[int] | None:
    """The minor of the last len(cols) rows on the columns cols, of p-degree
    degree, expanded along its first row: a dense row over partitions_of(degree)
    scaled by degree!, or None when it is zero.  A zero entry is None, and each
    entry is a pair (k, g_k).  g_k times a minor of degree d lands through
    _union(k, d), scaled by binomial(k + d, k) to stay over (k + d)!.  The memo
    is passed, not closed over, so it is freed as soon as the determinant returns."""
    if degree < 0:
        return None
    if not cols:
        return [1]
    if cols not in memo:
        row = rows[len(rows) - len(cols)]
        total = [0] * len(partitions_of(degree))
        for idx, c in enumerate(sorted(cols)):
            if row[c] is None:
                continue
            k, entry = row[c]
            rest = _minor(rows, cols - {c}, degree - k, memo)
            if rest is None:
                continue
            scale = comb(degree, k) if idx % 2 == 0 else -comb(degree, k)
            for a, targets in zip(entry, _union(k, degree - k)):
                if a:
                    a *= scale
                    for b, t in zip(rest, targets):
                        if b:
                            total[t] += a * b
        memo[cols] = total if any(total) else None
    return memo[cols]


def schur_jacobi_trudi(shape: Partition) -> BosonPolynomial:
    """S_shape = det(h_{shape_i - i + j}) (Jacobi-Trudi, Macdonald I.3 (3.4))."""
    return _jacobi_trudi(_complete, shape)


def schur_dual_jacobi_trudi(shape: Partition) -> BosonPolynomial:
    """S_shape = det(e_{shape'_i - i + j}) over the conjugate shape' (Macdonald I.3 (3.5))."""
    return _jacobi_trudi(_elementary, conjugate(shape))


def _schur_degree(n: int) -> int:
    """n, when Schur data of degree n is available; ValueError otherwise."""
    if not 0 <= n <= MAX_SCHUR_DEGREE:
        raise ValueError(f"Schur data is available for degrees 0 to {MAX_SCHUR_DEGREE}, got {n}")
    return n


@cache
def characters(n: int) -> dict[Partition, list[int]]:
    """Character table of S_n as {shape: [chi^shape(mu) for mu in partitions_of(n)]},
    zeros included.

    Murnaghan-Nakayama by blocks: the cycle types with first part k are
    (k, rest) for the rests of n - k with parts <= k, a suffix of
    partitions_of(n - k) from some start, and the blocks for k = n, ..., 1
    follow one another in partitions_of(n).  So the k-block of a row is the
    sum of sign * characters(n - k)[rho][start:] over ribbons(shape, k).
    """
    if _schur_degree(n) == 0:
        return {Partition(): [1]}
    blocks = []
    for k in range(n, 0, -1):
        rests = partitions_of(n - k)
        start = next(i for i, rest in enumerate(rests) if not rest or rest[0] <= k)
        blocks.append((k, start, len(rests) - start, characters(n - k)))
    table = {}
    for shape in partitions_of(n):
        row = []
        for k, start, width, smaller in blocks:
            block = [0] * width
            for sign, rho in ribbons(shape, k):
                block = list(map(add if sign > 0 else sub, block, smaller[rho][start:]))
            row += block
        table[shape] = row
    return table


@cache
def _z_row(n: int) -> list[int]:
    """z_mu for mu in partitions_of(n), for the degrees of characters."""
    return [z_factor(mu) for mu in partitions_of(_schur_degree(n))]


@cache
def _inverse_z_row(n: int) -> tuple[int, list[int]]:
    """1 / z_mu for mu in partitions_of(n) as (L, [L / z_mu]), L the lcm of the z_mu."""
    return integer_numerators(Rational(1, z) for z in _z_row(n))


@cache
def _columns(n: int) -> dict[Partition, int]:
    """The index of each cycle type mu in partitions_of(n), for the degrees of characters."""
    return {mu: i for i, mu in enumerate(partitions_of(_schur_degree(n)))}


def from_schur(coords: Iterable[tuple[tuple[int, Partition], Rational]]) -> BosonPolynomial:
    """The sum of c * q^m * S_shape over the pairs ((m, shape), c), with
    S_shape = sum over mu of chi^shape(mu) / z_mu * p_mu.

    The inverse of schur_expand: the character rows are summed per (q power,
    degree) as integer numerators over one common denominator, multiplied by
    1 / z_mu over the lcm of the z_mu, and integer_row puts each row in
    lowest terms.  A value of one (q power, degree) is its block value.
    """
    coords = list(coords)
    common, numerators = integer_numerators(c for _, c in coords)
    totals: dict[tuple[int, int], list[int]] = {}
    for ((m, shape), _), a in zip(coords, numerators):
        n = shape.size()
        row = characters(n)[shape]  # the table's own list, read and never written
        total = totals.get((m, n))
        if a == -1:  # a sign, as alpha's ribbons give: no product per entry
            totals[m, n] = list(map(neg, row)) if total is None else list(map(sub, total, row))
            continue
        if a != 1:
            row = [a * chi for chi in row]
        totals[m, n] = row if total is None else list(map(add, total, row))
    blocks = []
    for (m, n), total in totals.items():
        lcd, inverse_z = _inverse_z_row(n)
        blocks.append(BosonPolynomial._from_block(m, n, *integer_row(common * lcd, list(map(mul, total, inverse_z)))))
    if len(blocks) == 1:
        return blocks[0]
    return BosonPolynomial._make({mono: c for block in blocks for mono, c in block.terms.items()})


@cache
def schur(shape: Partition) -> BosonPolynomial:
    """S_shape = sum over mu of chi^shape(mu) / z_mu * p_mu."""
    return from_schur([((0, shape), 1)])


def power_sum(shape: Partition) -> BosonPolynomial:
    """The monomial p_shape = prod_i p_(shape_i) at q^0."""
    return BosonPolynomial._make({BosonMonomial(0, shape): 1})


def hall_form(f: BosonPolynomial, g: BosonPolynomial) -> Rational:
    """Symmetric bilinear form with <p_mu, p_nu> = delta * z_mu; q^0 inputs only.
    Two block values pair as their rows, weighted by _z_row(n), and are
    orthogonal when their degrees differ; any other pair pairs its terms."""
    f.require_q0()
    g.require_q0()
    a, b = f._block, g._block
    if a is None or b is None:
        return pairing((1, f.terms), (1, g.terms), lambda mono: z_factor(mono.shape))
    if a[1] != b[1]:
        return 0
    return pairing(a[2:], b[2:], _z_row(a[1]).__getitem__)


def schur_expand(f: BosonPolynomial) -> dict[Partition, Rational]:
    """Coefficients of a homogeneous q^0 polynomial in the Schur basis: p_mu
    is the sum over shapes of chi^shape(mu) * S_shape, read from each row
    at mu's index in partitions_of(n)."""
    f.require_q0()
    if f._block is not None:
        return _block_schur_expand(f._block)
    if f.is_zero():
        return {}
    n = f.p_degree()
    index = _columns(n)
    # integer numerators over one common denominator: a single division per shape
    common, numerators = integer_numerators(f.terms.values())
    terms = [(index[mono.shape], a) for mono, a in zip(f.terms, numerators)]
    totals = ((shape, sum(a * row[i] for i, a in terms)) for shape, row in characters(n).items())
    return {shape: rat(total, common) for shape, total in totals if total}


def _block_schur_expand(block: tuple) -> dict[Partition, Rational]:
    """The Schur coefficients of a block value, its q power aside: the dot
    product of each character row with the row, over its denominator."""
    _, n, common, numerators = block
    totals = ((shape, sum(map(mul, chi, numerators))) for shape, chi in characters(n).items())
    return {shape: rat(total, common) for shape, total in totals if total}


# --- text form ---------------------------------------------------------------

def format_boson(poly: BosonPolynomial) -> str:
    """Deterministic text form, grouped by q-power.

    Terms print as "(c)*p1^a p2^b" with unit coefficients omitted; each
    nonzero q-power wraps its terms as "q^m * (...)".
    """
    if poly.is_zero():
        return "0"
    terms: dict[int, list[str]] = {}
    for mono, c in sorted(poly.terms.items(), key=_term_sort_key):
        terms.setdefault(mono.q_power, []).append(_format_boson_term(mono, c))
    groups = []
    for q_power, texts in terms.items():
        text = " + ".join(texts)
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
