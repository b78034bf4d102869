"""Localized equivariant model of the Hilbert-scheme / point-variety picture.

The fixed points of the n-th space are labeled by partitions of n.  A class on
the fixed-point side (QuiverClass) is a Q[t]-combination of point classes
1_shape; a class on the ambient side (LocalizedClass) is stored through its
nonzero restrictions to the fixed points, one Q(t) value per partition of n.
Both are linear combinations on the one sparse base of ``linear``.

A localized class of degree n <= MAX_SCHUR_DEGREE whose restrictions are all
rational multiples c * t^n may keep instead the integer block
(0, n, D, {i: c * D}) of linear.BlockCombination, a dict by the index i of
the fixed point in partitions_of(n).  geometric_boson scatters it along the
ribbons, bilinear_form pairs two blocks with the Euler weights, and ==, +, -
and rational multiples read it; the Q(t) terms are built from it on first
read.

Weight convention: a one-dimensional module of weight a has Euler class a*t,
and the distinguished curve direction in the plane carries weight -1.  This is
the unique choice reproducing both the tangent Euler class
(-1)^n h(shape)^2 t^(2n) and the curve relation on X_1, the plane with its one
fixed point [1]: there the normalized class of [1] is the curve class, -t^-1
times the fundamental class.  The c2-toy suite of ``verify`` checks it.
"""

import json
from functools import cache

from .boson import BosonPolynomial, _columns, _schur_degree, from_schur, schur_expand
from .fermion import FermionState
from .linear import BlockCombination, LinearCombination, accumulate
from .partitions import (
    MAX_SCHUR_DEGREE,
    Partition,
    cartan_apply,
    dimension_vector,
    hook_product,
    move_box,
    parse_partition,
    partitions_of,
    ribbons,
    schur_memo,
)
from .scalars import (
    Rational,
    TLaurent,
    TScalar,
    format_rational,
    integer_numerators,
    integer_row,
    is_integer,
    monomial_coefficient,
    pairing,
    parse_tlaurent,
    parse_tscalar,
    rat,
    t_power,
)
from .text import PARTITION, Grammar, join_terms, parse


class NonDivisibleCoefficient(ValueError):
    """Raised when a lowering operator would leave the polynomial grading."""


class DegreeUnderflow(ValueError):
    """Raised when an annihilation operator would need a space of negative size."""


def _polynomial(coeff) -> TLaurent:
    """A fixed-point coefficient: a rational or TLaurent that lies in Q[t]."""
    if not isinstance(coeff, TLaurent):
        coeff = TLaurent.term(coeff)
    if not coeff.is_polynomial():
        raise ValueError(f"fixed-point coefficient {coeff} is not in Q[t]")
    return coeff


class QuiverClass(LinearCombination):
    """Q[t]-combination of fixed-point classes, one coefficient per partition."""

    __slots__ = ()
    _coerce = staticmethod(_polynomial)

    @classmethod
    def unit(cls, shape: Partition) -> "QuiverClass":
        """The class 1 on the point labeled by shape."""
        return cls._make({Partition(shape): TLaurent.one()})

    @classmethod
    def graded_unit(cls, shape: Partition) -> "QuiverClass":
        """The distinguished basis vector t^|shape| * 1_shape."""
        shape = Partition(shape)
        return cls._make({shape: TLaurent.t(shape.size())})

    def homogeneous_size(self) -> int:
        sizes = {shape.size() for shape in self.terms}
        if len(sizes) != 1:
            raise ValueError("class mixes partitions of different sizes")
        return sizes.pop()

    def __mul__(self, factor: TLaurent) -> "QuiverClass":
        if not isinstance(factor, TLaurent):
            return NotImplemented
        return self.scale(factor)

    def __truediv__(self, divisor: TLaurent) -> "QuiverClass":
        if not isinstance(divisor, TLaurent):
            return NotImplemented
        return self.scale(TLaurent.one() / divisor)

    def __str__(self) -> str:
        return format_quiver(self)

    def __repr__(self) -> str:
        return f"QuiverClass<{self}>"

    def to_json(self) -> dict:
        return {
            "coefficients": {
                str(shape): str(self.terms[shape])
                for shape in sorted(self.terms, key=_shape_sort_key)
            }
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuiverClass":
        """Read {"coefficients": {partition: polynomial}}; ValueError on any
        other shape of input."""
        if not isinstance(data, dict):
            raise ValueError("a fixed-point class is a JSON object with key coefficients")
        raw = data.get("coefficients", {})
        if not isinstance(raw, dict) or not all(isinstance(v, str) for v in raw.values()):
            raise ValueError("coefficients must map partition strings to polynomial strings")
        return cls({parse_partition(key): parse_tlaurent(value) for key, value in raw.items()})


def _scalar(value) -> TScalar:
    """A restriction: an element of Q(t), or a rational read as a constant."""
    return value if isinstance(value, TScalar) else TScalar.monomial(value)


class LocalizedClass(BlockCombination):
    """Class on the n-th ambient space, stored by its nonzero restrictions to
    the fixed points, one Q(t) value per partition of n; a block value keeps
    a dict of integers (see the module docstring)."""

    __slots__ = ()
    _coerce = staticmethod(_scalar)

    def __init__(self, n: int, terms: dict[Partition, TScalar] | None = None):
        self.n = int(n)
        for shape in terms or ():
            self._check_size(shape)
        super().__init__(terms)

    @staticmethod
    def _term(charge: int, n: int, shape: Partition, c: Rational) -> tuple:
        return shape, TScalar(TLaurent._make({n: c}))

    def _like(self, terms: dict) -> "LocalizedClass":
        out = self._make(terms)
        out.n = self.n
        return out

    @classmethod
    def zero(cls, n: int) -> "LocalizedClass":
        """The zero class on X_n: for n a Schur degree, the block (0, n, 1, {})."""
        return cls._from_block(0, n, 1, {}) if 0 <= n <= MAX_SCHUR_DEGREE else cls(n)

    def _check_size(self, shape: Partition) -> None:
        if shape.size() != self.n:
            raise ValueError(f"partition {shape} does not have size {self.n}")

    def _check_same_space(self, other) -> None:
        if isinstance(other, LocalizedClass) and self.n != other.n:
            raise ValueError(f"classes live on different spaces: n={self.n} vs n={other.n}")

    def _combine(self, other: "LocalizedClass", sign: int) -> "LocalizedClass":
        self._check_same_space(other)
        return super()._combine(other, sign)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and BlockCombination.__eq__(self, other)

    def __hash__(self) -> int:
        return hash((self.n, super().__hash__()))

    def __str__(self) -> str:
        return json.dumps(self.to_json())

    def __repr__(self) -> str:
        return f"LocalizedClass<n={self.n}, {dict(self.terms)}>"

    def to_json(self) -> dict:
        """Every restriction, zeros included, so the output grows as p(n);
        ValueError above MAX_SCHUR_DEGREE, the degrees phi and phi_inverse serve."""
        if self.n > MAX_SCHUR_DEGREE:
            raise ValueError(f"a localized class prints up to degree {MAX_SCHUR_DEGREE}, got {self.n}")
        restriction = dict(self.terms.items()).get  # a plain dict, even for a block value's LazyTerms
        return {
            "n": self.n,
            "restrictions": {str(shape): str(restriction(shape, "0")) for shape in partitions_of(self.n)},
        }

    @classmethod
    def from_json(cls, data: dict) -> "LocalizedClass":
        """Read {"n": int, "restrictions": {partition: scalar}}; ValueError on
        any other shape of input."""
        if not isinstance(data, dict):
            raise ValueError("a localized class is a JSON object with keys n and restrictions")
        n = data.get("n")
        if not is_integer(n):
            raise ValueError(f"n must be an integer, got {n!r}")
        if n < 0:
            raise ValueError(f"n must be at least 0, got {n}")
        raw = data.get("restrictions", {})
        if not isinstance(raw, dict) or not all(isinstance(v, str) for v in raw.values()):
            raise ValueError("restrictions must map partition strings to scalar strings")
        restrictions = {parse_partition(key): parse_tscalar(value) for key, value in raw.items()}
        beta = cls(n, restrictions)
        if n <= MAX_SCHUR_DEGREE:
            coefficients = {shape: monomial_coefficient(value, n) for shape, value in beta.terms.items()}
            if None not in coefficients.values():
                return _restriction_class(n, coefficients)
        return beta


def _restriction_class(n: int, coefficients: dict[Partition, Rational]) -> LocalizedClass:
    """The block value with the restrictions c * t^n, nonzero c, at the shapes
    of coefficients, n <= MAX_SCHUR_DEGREE."""
    index = _columns(n)
    common, numerators = integer_numerators(coefficients.values())
    return LocalizedClass._from_block(0, n, common, {index[s]: a for s, a in zip(coefficients, numerators)})


def _shape_sort_key(shape: Partition):
    return (shape.size(), tuple(-p for p in shape))


# --- Euler classes and the intersection pairing -------------------------------

@schur_memo
def euler_class(shape: Partition) -> TScalar:
    """Tangent Euler class at a fixed point: (-1)^n h(shape)^2 t^(2n), the
    product over the boxes of (hook * t)(-hook * t)."""
    n = shape.size()
    return TScalar.monomial((-1) ** n * hook_product(shape) ** 2, 2 * n)


def pushforward(shape: Partition, value: TScalar) -> LocalizedClass:
    """Image of a fixed-point class in the ambient space: restriction
    value * e_T at its own point, zero at every other fixed point."""
    shape = Partition(shape)
    return LocalizedClass(shape.size(), {shape: value * euler_class(shape)})


_SCALAR_ZERO = TScalar.zero()


def pullback(alpha: LocalizedClass, shape: Partition) -> TScalar:
    """Restriction of the class to the fixed point labeled by shape."""
    shape = Partition(shape)
    alpha._check_size(shape)
    return alpha.terms.get(shape, _SCALAR_ZERO)


def cup(alpha: LocalizedClass, beta: LocalizedClass) -> LocalizedClass:
    """Cup product: pointwise product of restrictions."""
    alpha._check_same_space(beta)
    b = beta.terms
    return LocalizedClass(alpha.n, {shape: a * b[shape] for shape, a in alpha.terms.items() if shape in b})


def integrate(alpha: LocalizedClass) -> TScalar:
    """Pushforward to a point: the fixed-point sum of restriction / Euler class."""
    quotients = [value / euler_class(shape) for shape, value in alpha.terms.items()]
    # Laurent quotients first, so that a Q(t) denominator joins the sum only at the Q(t) rows
    return sum(sorted(quotients, key=TScalar.is_laurent, reverse=True), _SCALAR_ZERO)


def fundamental_class(shape: Partition) -> LocalizedClass:
    """The class of the fixed point itself, i_!(1)."""
    return pushforward(shape, TScalar.one())


@schur_memo
def normalized_class(shape: Partition) -> LocalizedClass:
    """Sign-and-hook normalized point class (-1)^n t^-n / h(shape) times the
    fundamental class, with restriction h(shape) t^n; these are orthonormal
    for the bilinear form below and correspond to Schur polynomials."""
    shape = Partition(shape)
    return _from_schur_coordinates(shape.size(), {shape: 1})


@cache
def _euler_weights(n: int) -> tuple[int, list[int]]:
    """(E, [w]) over the partitions of n <= MAX_SCHUR_DEGREE, by position: with
    e the t^(2n) coefficient of euler_class(shape), E = lcm |e| and
    w = (-1)^n E / e, so that (-1)^n c c' t^(2n) / euler_class(shape) = c c' w / E."""
    return integer_numerators(
        rat((-1) ** n, monomial_coefficient(euler_class(shape), 2 * n)) for shape in partitions_of(n)
    )


def bilinear_form(alpha: LocalizedClass, beta: LocalizedClass) -> TScalar:
    """Intersection pairing: (-1)^n times the integral of the cup product, the
    fixed-point sum of a * b / Euler class.  Two block values pair as the
    integer pairing of their blocks with the Euler weights."""
    alpha._check_same_space(beta)
    f, g = alpha._block, beta._block
    if f is not None and g is not None:
        common, weights = _euler_weights(alpha.n)
        return TScalar.monomial(rat(pairing(f[2:], g[2:], weights.__getitem__), common))
    value = integrate(cup(alpha, beta))
    return -value if alpha.n % 2 else value


# --- lowering/raising operators on the fixed-point side -----------------------

def hecke_e(k: int, c: QuiverClass) -> QuiverClass:
    """Remove the unique removable box of residue k (when present) and divide
    the coefficient by t; coefficients must stay in Q[t]."""
    if not c.terms:
        return c

    def lowered():
        for shape, coeff in c.terms.items():
            smaller = move_box(shape, k, -1)
            if smaller is not None:
                divided = coeff.shift(-1)
                if not divided.is_polynomial():
                    raise NonDivisibleCoefficient(
                        f"coefficient {coeff} at {shape} is not divisible by t"
                    )
                yield smaller, divided

    return QuiverClass._make(accumulate(lowered()))


def hecke_f(k: int, c: QuiverClass) -> QuiverClass:
    """Add the unique addable box of residue k (when present) and multiply
    the coefficient by t."""
    if not c.terms:
        return c
    return QuiverClass._make(accumulate(
        (larger, coeff.shift(1))
        for shape, coeff in c.terms.items()
        if (larger := move_box(shape, k, 1)) is not None
    ))


def point_variety_dimension(counts: dict[int, int]) -> int:
    """2 v_0 - v . C v for a dimension vector v; zero for every v from a partition."""
    support = set(counts)
    return 2 * counts.get(0, 0) - sum(counts[k] * cartan_apply(counts, k) for k in support)


def weight_of(shape: Partition) -> dict[int, int]:
    """Pairing of the point's weight with each simple coroot over the support
    window of its dimension vector widened by one."""
    counts = dimension_vector(Partition(shape))
    if counts:
        lo, hi = min(counts) - 1, max(counts) + 1
    else:
        lo = hi = 0
    return {
        k: (1 if k == 0 else 0) - cartan_apply(counts, k)
        for k in range(lo, hi + 1)
    }


def quiver_form(a: QuiverClass, b: QuiverClass) -> Rational:
    """Bilinear form for which the graded units t^|shape| 1_shape are orthonormal;
    only the coefficients at the shapes both classes share are read."""
    shared = [shape for shape in a.terms if shape in b.terms]

    def graded(c: QuiverClass) -> dict[Partition, Rational]:
        return {shape: _graded_coordinate(c.terms[shape], shape) for shape in shared}

    return pairing((1, graded(a)), (1, graded(b)), lambda shape: 1)


def _graded_coordinate(coeff: TLaurent, shape: Partition) -> Rational:
    """The rational c of a coefficient c * t^|shape|."""
    n = shape.size()
    if coeff.terms.keys() != {n}:
        raise ValueError(f"coefficient {coeff} at {shape} is not a rational multiple of t^{n}")
    return coeff.terms[n]


# --- the three maps of the correspondence -------------------------------------

def tau(state: FermionState) -> QuiverClass:
    """Charge-zero monomials map to the graded units t^|shape| 1_shape."""
    def units():
        for mono, coeff in state.terms.items():
            if mono.charge != 0:
                raise ValueError("tau is defined on charge-zero states only")
            yield mono.shape, TLaurent._make({mono.shape.size(): coeff})

    return QuiverClass._make(accumulate(units()))


def eta(c: QuiverClass, n: int | None = None) -> LocalizedClass:
    """Localization map sending the graded unit of shape to its normalized
    point class, extended Q[t]-linearly in the identified grading."""
    if c.is_zero():
        return LocalizedClass.zero(0 if n is None else n)
    size = c.homogeneous_size()
    if n is not None and n != size:
        raise ValueError(f"class has size {size}, expected {n}")
    # coeff * t^-n times the restriction h(shape) t^n of the normalized class
    if size <= MAX_SCHUR_DEGREE and all(coeff.terms.keys() == {size} for coeff in c.terms.values()):
        return _restriction_class(size, {
            shape: coeff.terms[size] * hook_product(shape) for shape, coeff in c.terms.items()
        })
    return LocalizedClass(size, {
        shape: TScalar(coeff.scale(hook_product(shape))) for shape, coeff in c.terms.items()
    })


def eta_inverse(beta: LocalizedClass) -> QuiverClass:
    """Read the fixed-point coordinates back into the graded basis."""
    terms = {}
    for shape, value in beta.terms.items():
        coeff = value / TScalar.monomial(hook_product(shape))
        if not coeff.is_laurent() or not coeff.as_laurent().is_polynomial():
            raise ValueError(
                f"restriction {value} at {shape} does not come from a class in Q[t]"
            )
        terms[shape] = coeff.as_laurent()
    return QuiverClass(terms)


def _from_schur_coordinates(n: int, coords: dict[Partition, Rational]) -> LocalizedClass:
    """The class on X_n with the given nonzero coordinates in the normalized
    point basis: coordinate c at shape is the restriction c * h(shape) * t^n."""
    restrictions = {shape: c * hook_product(shape) for shape, c in coords.items()}
    if n <= MAX_SCHUR_DEGREE:
        return _restriction_class(n, restrictions)
    return LocalizedClass(n, {shape: TScalar(TLaurent._make({n: c})) for shape, c in restrictions.items()})


def _schur_coordinates(beta: LocalizedClass) -> dict[Partition, Rational]:
    """Rational coordinates of a class in the normalized point basis: the
    restriction c*t^n at shape is the coordinate c / h(shape)."""
    n = beta.n
    if beta._block is not None:
        _, _, common, numerators = beta._block
        shapes = partitions_of(n)
        return {shapes[i]: rat(a, common * hook_product(shapes[i])) for i, a in numerators.items()}
    coords = {}
    for shape, value in beta.terms.items():
        c = monomial_coefficient(value, n)
        if c is None:
            raise ValueError(
                f"restriction {value} at {shape} is not in the span of the "
                "normalized point classes over Q"
            )
        coords[shape] = rat(c, hook_product(shape))
    return coords


def phi(beta: LocalizedClass) -> BosonPolynomial:
    """Expand in normalized point classes and send each to its Schur polynomial."""
    return from_schur(((0, shape), c) for shape, c in _schur_coordinates(beta).items())


def phi_inverse(f: BosonPolynomial, n: int | None = None) -> LocalizedClass:
    """Schur-expand a homogeneous q^0 polynomial and assemble the restrictions."""
    f.require_q0()
    if f.is_zero():
        return LocalizedClass.zero(0 if n is None else n)
    degree = f.p_degree()
    if n is not None and n != degree:
        raise ValueError(f"polynomial has degree {degree}, expected {n}")
    return _from_schur_coordinates(degree, schur_expand(f))


# --- geometric bosons ----------------------------------------------------------

def geometric_boson(k: int, beta: LocalizedClass) -> LocalizedClass:
    """Heisenberg operator on localized classes.  On normalized point classes
    it removes (k > 0) or adds (k < 0) border strips of size |k| with sign
    (-1)^height, the Murnaghan-Nakayama rule; index 0 acts as zero.  A block
    value whose image has a Schur degree gives a block value: its coordinates
    c / h(shape), over the lcm of the hook products, scatter along the
    ribbons, and each sum is multiplied by h at its target.  Any other class
    takes the sparse path."""
    if k == 0:
        return LocalizedClass.zero(beta.n)
    if k > beta.n:
        raise DegreeUnderflow(f"cannot lower degree {beta.n} by {k}")
    target = beta.n - k
    if beta._block is None or target > MAX_SCHUR_DEGREE:
        coords = accumulate(
            (out_shape, coeff if sign > 0 else -coeff)
            for shape, coeff in _schur_coordinates(beta).items()
            for sign, out_shape in ribbons(shape, k)
        )
        return _from_schur_coordinates(target, coords)
    _, _, common, numerators = beta._block
    lcd, multipliers = _inverse_hook_row(beta.n)
    strips = _strip_positions(beta.n, k)

    def scattered():
        for i, a in numerators.items():
            a *= multipliers[i]
            for sign, j in strips[i]:
                yield j, a if sign > 0 else -a

    hooks = _hook_row(target)
    totals = {j: b * hooks[j] for j, b in accumulate(scattered()).items()}
    return LocalizedClass._from_block(0, target, *integer_row(common * lcd, totals))


@cache
def _strip_positions(n: int, k: int) -> list[tuple[tuple[int, int], ...]]:
    """Entry i holds the border strips of size |k| of shape i of partitions_of(n),
    ribbons(shape, k), as (sign, index of the result in partitions_of(n - k))
    pairs.  ValueError, before anything is stored, unless n and n - k are
    Schur degrees."""
    _schur_degree(n)
    index = _columns(n - k)
    return [tuple((sign, index[out]) for sign, out in ribbons(shape, k)) for shape in partitions_of(n)]


@cache
def _hook_row(n: int) -> list[int]:
    """h(shape) for shape in partitions_of(n), for the Schur degrees n; ValueError otherwise."""
    return [hook_product(shape) for shape in partitions_of(_schur_degree(n))]


@cache
def _inverse_hook_row(n: int) -> tuple[int, list[int]]:
    """1 / h(shape) for shape in partitions_of(n) as (H, [H / h]), H the lcm
    of the hook products, for the Schur degrees n."""
    return integer_numerators(rat(1, h) for h in _hook_row(n))


def power_sum_class(shape: Partition) -> LocalizedClass:
    """The class obtained by applying the raising operators of shape to the
    vacuum class on X_0; pairs to delta * z under the bilinear form."""
    result = normalized_class(Partition())
    for part in Partition(shape):
        result = geometric_boson(-part, result)
    return result


# --- text form of fixed-point classes -------------------------------------------

def format_quiver(c: QuiverClass) -> str:
    def terms():
        for shape in sorted(c.terms, key=_shape_sort_key):
            coeff, basis = c.terms[shape], f"1@{shape}"
            if len(coeff.terms) > 1:
                yield 1, f"({coeff})*{basis}"
            else:
                ((e, value),) = coeff.terms.items()
                yield value, f"{t_power(e)}*{basis}" if e else basis

    return join_terms(terms(), format_rational)


_GRAMMAR = Grammar("class", QuiverClass, TLaurent.term, {
    # the point class "1@[..]"; its integer 1 may carry leading zeros ("01@[1]")
    "unit": (
        rf"0*1\s*@\s*(?P<unit_shape>{PARTITION})",
        lambda m: QuiverClass.unit(parse_partition(m["unit_shape"])),
    ),
    "t": ("t", lambda m: TLaurent.t()),
})


def parse_quiver(text: str) -> QuiverClass:
    """Parse printed fixed-point classes like "t*1@[1] + 2*t^2*1@[2]"."""
    return parse(_GRAMMAR, text)
