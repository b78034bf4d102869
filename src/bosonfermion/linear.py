"""Finite linear combinations over a basis: the one sparse-vector core.

Laurent polynomials, bosonic polynomials, fermionic states, fixed-point
classes and localized classes are all dicts from a basis key to a nonzero
coefficient.  They share this base class, and every operator that builds such
a dict sums its (key, coefficient) contributions through ``accumulate``.  A
coefficient is zero exactly when it is falsy, so the same test serves
rationals, Laurent polynomials and elements of Q(t).
"""

from collections.abc import Mapping
from typing import Iterable


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
    ``__init__`` or ``_make`` returns.  So a value can keep the integer form
    of its rational terms (``_rational_terms``), which ``scalars.integer_form``
    fills in ``_integer_form`` on first use; nothing else writes that slot,
    and building a value leaves it unset.  For the same reason a zero operand
    is returned as it is: ``-z`` is ``z``, and ``x + z`` and ``z + x`` are ``x``.
    """

    __slots__ = ("terms", "_integer_form")

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

    def _rational_terms(self) -> dict | None:
        """The {key: rational} whose integer form the value keeps: its terms,
        for a combination with rational coefficients."""
        return self.terms

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
