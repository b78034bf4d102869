"""The fermionic Fock space: semi-infinite wedge monomials and their operators.

A basis monomial is the strictly decreasing index word i_k = (m - k) + shape_k,
encoded as the pair (charge m, partition shape).  Wedging in an index j above
position s carries sign (-1)^s where s counts the indices above j; contracting
the index at position s carries (-1)^s.  Insertion in front (j above every
index) has sign +1, the unique extension keeping the Clifford relations exact.
"""

from typing import NamedTuple

from .linear import LinearCombination, accumulate
from .partitions import Partition, parse_partition, ribbons
from .scalars import Rational, format_rational, integer_form, is_integer, pairing, rat, read_terms
from .text import PARTITION, Grammar, join_terms, parse


class ChargedMonomial(NamedTuple):
    charge: int
    shape: Partition


# Both kernels walk the beads i_k = m - k + shape_k (k < len(shape)) from the
# top until they reach j; below them every position <= m - len(shape) is filled.
# The parts they build are weakly decreasing by construction, so the shape
# skips Partition's validation, and the monomial NamedTuple's constructor;
# alpha builds its monomials the same way.

def _wedge_in(j: int, mono: ChargedMonomial):
    """Insert index j; None when occupied, else (sign, monomial)."""
    m, shape = mono
    s = 0
    for part in shape:
        bead = m - s + part
        if bead <= j:
            if bead == j:
                return None
            break
        s += 1
    else:
        if j <= m - s:
            return None
    parts = [p - 1 for p in shape[:s]]
    parts.append(j - m - 1 + s)
    parts.extend(shape[s:])
    while parts and not parts[-1]:
        parts.pop()
    return -1 if s & 1 else 1, tuple.__new__(ChargedMonomial, (m + 1, tuple.__new__(Partition, parts)))


def _contract_out(j: int, mono: ChargedMonomial):
    """Delete index j; None when absent, else (sign, monomial)."""
    m, shape = mono
    s = 0
    for part in shape:
        bead = m - s + part
        if bead <= j:
            if bead < j:
                return None
            break
        s += 1
    else:
        if j > m - s:
            return None
        s = m - j
    parts = [p + 1 for p in shape[:s]]
    parts += [1] * (s - len(shape))  # a slot in the tail: the empty rows above it become 1s
    parts += shape[s + 1:]
    return -1 if s & 1 else 1, tuple.__new__(ChargedMonomial, (m - 1, tuple.__new__(Partition, parts)))


class FermionState(LinearCombination):
    """Finite Q-linear combination of charged monomials."""

    __slots__ = ()
    _coerce = staticmethod(rat)

    def charge(self) -> int:
        """Common charge of all monomials; error when mixed or zero."""
        charges = {mono.charge for mono in self.terms}
        if not charges:
            raise ValueError("the zero state has no charge")
        if len(charges) > 1:
            raise ValueError("state is not homogeneous in charge")
        return charges.pop()

    def __str__(self) -> str:
        return format_fermion(self)

    def __repr__(self) -> str:
        return f"FermionState<{self}>"

    def to_json(self) -> list[dict]:
        out = []
        for mono in sorted(self.terms, key=_term_sort_key):
            out.append({
                "charge": mono.charge,
                "partition": list(mono.shape),
                "coeff": format_rational(self.terms[mono]),
            })
        return out

    @classmethod
    def from_json(cls, data: list) -> "FermionState":
        """Read the list written by to_json; ValueError on any other shape of input."""
        return cls._make(read_terms(data, _monomial_from_json))


def _monomial_from_json(item: dict) -> ChargedMonomial:
    charge, parts = item.get("charge", 0), item.get("partition")
    if not is_integer(charge) or not isinstance(parts, list) or not all(map(is_integer, parts)):
        raise ValueError("a term has an integer charge and a partition list of integers")
    return ChargedMonomial(charge, Partition(parts))


def basis_state(charge: int, shape: Partition) -> FermionState:
    return FermionState._make({ChargedMonomial(charge, Partition(shape)): 1})


def vacuum(charge: int = 0) -> FermionState:
    return basis_state(charge, Partition())


def _apply_monomial_op(op, j: int, state: FermionState) -> FermionState:
    """Linear extension of op(j, monomial) -> None | (sign, monomial).  Both
    ops are injective on monomials, so no two terms land on one monomial.
    The callers return a zero state as it is, before they get here."""
    images = {}
    for mono, coeff in state.terms.items():
        hit = op(j, mono)
        if hit is not None:
            sign, target = hit
            images[target] = coeff if sign > 0 else -coeff
    return FermionState._make(images)


def psi(j: int, state: FermionState) -> FermionState:
    """Wedging operator: creates a particle in state j, raising charge by one."""
    if not state.terms:
        return state
    return _apply_monomial_op(_wedge_in, j, state)


def psi_star(j: int, state: FermionState) -> FermionState:
    """Contracting operator: annihilates the particle in state j, lowering charge."""
    if not state.terms:
        return state
    return _apply_monomial_op(_contract_out, j, state)


class GlMatrix(LinearCombination):
    """Infinite matrix with finitely many nonzero rational entries, keyed by (i, j)."""

    __slots__ = ()
    _coerce = staticmethod(rat)

    @classmethod
    def unit(cls, i: int, j: int) -> "GlMatrix":
        return cls._make({(i, j): 1})

    def __repr__(self) -> str:
        return f"GlMatrix({self.terms!r})"


def gl_action(a: GlMatrix, state: FermionState) -> FermionState:
    """Infinite-wedge action: sum of a_ij psi_i psi*_j, charge preserving."""
    return FermionState._make(accumulate(
        (target, entry * coeff)
        for (i, j), entry in a.terms.items()
        for target, coeff in psi(i, psi_star(j, state)).terms.items()
    ))


def chevalley_e(k: int, state: FermionState) -> FermionState:
    """e_k acts by psi_k psi*_{k+1}; on charge 0 it removes a box of residue k."""
    return gl_action(GlMatrix.unit(k, k + 1), state)


def chevalley_f(k: int, state: FermionState) -> FermionState:
    """f_k acts by psi_{k+1} psi*_k; on charge 0 it adds a box of residue k."""
    return gl_action(GlMatrix.unit(k + 1, k), state)


def alpha(n: int, state: FermionState) -> FermionState:
    """Free boson alpha_n; alpha_0 multiplies each monomial by its charge.
    Otherwise sum_j psi_j psi*_{j+n} moves one bead by n per term, and the
    charge shifts every bead alike: the terms are the shape's border strips."""
    if not state.terms:
        return state
    if n == 0:
        return FermionState._make(
            {mono: coeff * mono.charge for mono, coeff in state.terms.items() if mono.charge}
        )
    return FermionState._make(accumulate(
        (tuple.__new__(ChargedMonomial, (mono.charge, shape)), coeff if sign > 0 else -coeff)
        for mono, coeff in state.terms.items()
        for sign, shape in ribbons(mono.shape, n)
    ))


def hermitian_form(s1: FermionState, s2: FermionState) -> Rational:
    """Bilinear form for which the monomial basis is orthonormal."""
    return pairing(integer_form(s1), integer_form(s2), lambda mono: 1)


# --- text form ---------------------------------------------------------------

def _term_sort_key(mono: ChargedMonomial):
    return (mono.charge, mono.shape.size(), tuple(-p for p in mono.shape))


def format_fermion(state: FermionState) -> str:
    """Terms ordered by charge, energy, then reverse-lexicographic partition."""
    return join_terms(
        ((state.terms[mono], f"phi{mono.shape}" + (f"@{mono.charge}" if mono.charge else ""))
         for mono in sorted(state.terms, key=_term_sort_key)),
        format_rational,
    )


# a charge: an integer after any run of signs, e.g. "- -3"
_SIGNED = r"(?:[+-]\s*)*\d+"


def _signed_int(text: str) -> int:
    return (-1) ** text.count("-") * int(text.replace("+", "").replace("-", ""))


_GRAMMAR = Grammar("state", FermionState, Rational, {
    "phi": (
        rf"phi\s*(?P<phi_shape>{PARTITION})(?:\s*@\s*(?P<phi_charge>{_SIGNED}))?",
        lambda m: basis_state(_signed_int(m["phi_charge"] or "0"), parse_partition(m["phi_shape"])),
    ),
    "vac": (
        rf"vac\s*\(\s*(?P<vac_charge>{_SIGNED})\s*\)",
        lambda m: vacuum(_signed_int(m["vac_charge"])),
    ),
})


def parse_fermion(text: str) -> FermionState:
    """Parse printed states and literals like "vac(0)", "phi[2,1]@1", sums thereof."""
    return parse(_GRAMMAR, text)
