"""Finite linear combinations over a basis: the one sparse-vector core.

Laurent polynomials, bosonic polynomials, fermionic states, fixed-point
classes and localized classes are all dicts from a basis key to a nonzero
coefficient.  They share this base class, and every operator that builds such
a dict sums its (key, coefficient) contributions through ``accumulate``.  A
coefficient is zero exactly when it is falsy, so the same test serves
rationals, Laurent polynomials and elements of Q(t).

The bosonic and localized sides are both indexed by the partitions of n (the
Schur basis and the torus-fixed points), so a value of theirs that lies in one
graded piece of a Schur degree may keep instead one integer block (see
``BlockCombination``), whose terms are built on first read.
"""

from collections.abc import Mapping
from typing import Iterable

from .partitions import partitions_of


def accumulate(pairs: Iterable[tuple], into: dict | None = None) -> dict:
    """Sum (key, coefficient) pairs into ``into`` (a new dict when omitted),
    dropping every key whose coefficient sums to zero."""
    out = {} if into is None else into
    get = out.get
    for key, c in pairs:
        prev = get(key)
        if prev is not None:
            c = prev + c
            if not c:
                del out[key]
                continue
        elif not c:
            continue
        out[key] = c
    return out


def power(base, n: int):
    """base**n for n >= 0 by repeated squaring: O(log n) products."""
    result = base.one()
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


class LazyTerms(Mapping):
    """The terms of a value kept in another form: a read-only mapping that
    builds its dict, build(source), on first use.  So a value that is only
    compared, paired or sent through an operator builds no coefficient.  A
    __getattr__ on the value's class would do the same, but it would slow
    every attribute read of every value."""

    __slots__ = ("_build", "_source", "_terms")

    def __init__(self, build, source):
        self._build, self._source, self._terms = build, source, None

    def _dict(self) -> dict:
        if self._terms is None:
            self._terms = self._build(self._source)
        return self._terms

    def __getitem__(self, key):
        return self._dict()[key]

    def __iter__(self):
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self._dict())

    def items(self):
        return self._dict().items()

    def values(self):
        return self._dict().values()

    def __eq__(self, other: object) -> bool:
        return self._dict() == other


class LinearCombination:
    """Sparse combination {basis key: nonzero coefficient}.

    Subclasses set ``_coerce``, which turns a user-supplied coefficient into
    the coefficient type (and may reject it).  ``_make`` adopts a dict that is
    already coerced and zero-free without touching it.  The operators build
    their results through ``self._like``, which is ``_make`` unless a subclass
    whose values carry more than their terms overrides it to pass that on.

    A value never changes after it is built: nothing writes to ``terms`` once
    ``__init__`` or ``_make`` returns.  So a zero operand is returned as it
    is: ``-z`` is ``z``, and ``x + z`` and ``z + x`` are ``x``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        coerce = self._coerce
        self.terms = {}
        for key, c in (terms or {}).items():
            c = coerce(c)
            if c:
                self.terms[key] = c

    @classmethod
    def _make(cls, terms: dict):
        out = cls.__new__(cls)
        out.terms = terms
        return out

    _like = _make

    @classmethod
    def zero(cls):
        return cls._make({})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        return self._like(accumulate(other.terms.items(), dict(self.terms)))

    def __neg__(self):
        if not self.terms:
            return self
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        negated = ((key, -c) for key, c in other.terms.items())
        return self._like(accumulate(negated, dict(self.terms)))

    def scale(self, factor):
        factor = self._coerce(factor)
        if not factor:
            return self._like({})
        return self._like({key: c * factor for key, c in self.terms.items()})

    def __rmul__(self, factor):
        return self.scale(factor)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


class BlockCombination(LinearCombination):
    """A combination over the partitions of n that may keep one integer block.

    The block (charge, n, D, numerators) of a block value holds its
    coefficients c_i, for the shapes partitions_of(n)[i] at one charge, as
    the integers c_i * D over their least common denominator D: a dense list
    on the bosonic side, a dict of the nonzero ones on the localized side.
    Through scalars.integer_row it is in lowest terms, so two block values
    of one (charge, n) are equal exactly when their blocks are, and a block
    of zero numerators is the zero value.  Every other value keeps None.
    _from_block alone writes the slot, when it builds the value; the terms
    are a LazyTerms, and each subclass says in _term how a shape and a
    rational become one of them.  n is the degree of a block value (and of
    every localized class).
    """

    __slots__ = ("_block", "n")

    def __init__(self, terms: dict | None = None):
        super().__init__(terms)
        self._block = None

    @classmethod
    def _make(cls, terms: dict):
        out = cls.__new__(cls)
        out.terms, out._block = terms, None
        return out

    _like = _make

    @classmethod
    def _from_block(cls, charge: int, n: int, common: int, numerators: list | dict):
        """The block value of (charge, n, common, numerators), a block in lowest terms."""
        out = cls.__new__(cls)
        out.n, out._block = n, (charge, n, common, numerators)
        out.terms = LazyTerms(cls._block_terms, out._block)
        return out

    @classmethod
    def _block_terms(cls, block: tuple) -> dict:
        """The terms of a block value: one division per nonzero entry."""
        charge, n, common, numerators = block
        shapes, rat, term = partitions_of(n), scalars.rat, cls._term
        entries = numerators.items() if type(numerators) is dict else enumerate(numerators)
        return dict(term(charge, n, shapes[i], rat(a, common)) for i, a in entries if a)

    def is_zero(self) -> bool:
        block = self._block
        if block is None:
            return not self.terms
        numerators = block[3]
        return not numerators if type(numerators) is dict else not any(numerators)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        a, b = self._block, other._block
        if a is None or b is None:
            return self.terms == other.terms
        return a == b or self.is_zero() and other.is_zero()

    __hash__ = LinearCombination.__hash__

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int):
        """self + sign * other: by the blocks when both are block values of
        one (charge, n), through the terms otherwise."""
        if type(other) is not type(self):
            return NotImplemented
        a, b = self._block, other._block
        if a is None or b is None or a[:2] != b[:2]:
            return (LinearCombination.__add__ if sign > 0 else LinearCombination.__sub__)(self, other)
        charge, n, p, x = a
        q, y = b[2], b[3]
        t, (s,) = scalars.integer_row(p, [q])  # q / p = s / t in lowest terms, so p * s = q * t is their lcm
        t *= sign
        if type(x) is dict:
            numerators = accumulate(((i, t * v) for i, v in y.items()), {i: s * u for i, u in x.items()})
        else:
            numerators = [s * u + t * v for u, v in zip(x, y)]
        return self._from_block(charge, n, *scalars.integer_row(p * s, numerators))

    def scale(self, factor):
        """factor * self; a nonzero rational factor keeps a block value's block."""
        block = self._block
        if block is None or type(factor) not in (int, scalars.Rational) or not factor:
            return super().scale(factor)
        charge, n, common, numerators = block
        q, (p,) = scalars.integer_numerators([factor])
        # over p / common in lowest terms, an integer multiple of the block stays in lowest terms
        common, (p,) = scalars.integer_row(common, [p])
        if type(numerators) is dict:
            numerators = {i: p * a for i, a in numerators.items()}
        else:
            numerators = [p * a for a in numerators]
        if q != 1:
            common, numerators = scalars.integer_row(common * q, numerators)
        return self._from_block(charge, n, common, numerators)


# scalars builds its Laurent polynomials on LinearCombination, so it is imported
# once the classes above exist; the blocks read its kernels when they run
from . import scalars  # noqa: E402
