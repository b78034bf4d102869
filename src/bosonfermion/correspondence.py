"""The boson-fermion dictionary: charge-m monomials map to q^m Schur polynomials."""

from .boson import BosonMonomial, BosonPolynomial, _block_schur_expand, from_schur, schur, schur_expand
from .fermion import ChargedMonomial, FermionState
from .linear import accumulate


def sigma(state: FermionState) -> BosonPolynomial:
    """Linear extension of (charge m, shape) -> q^m * S_shape.  A one-term
    state +-phi_shape@m is the block of the memoised schur(shape) at q^m, its
    numerators negated for -1; the list of the memoised block is shared, and
    never written.  Any other state, or a Schur value that keeps no block, is
    summed by from_schur."""
    if len(state.terms) == 1:
        ((m, shape), c), = state.terms.items()
        block = schur(shape)._block if c in (1, -1) else None
        if block is not None:
            _, n, common, numerators = block
            return BosonPolynomial._from_block(m, n, common, numerators if c == 1 else [-a for a in numerators])
    return from_schur(state.terms.items())


def sigma_inverse(f: BosonPolynomial) -> FermionState:
    """Inverse dictionary, computed through the Schur expansion of each
    homogeneous piece of fixed q-power, with the q-factor removed.  A block
    value is one piece, expanded straight from its block."""
    if f._block is not None:
        charge = f._block[0]
        return FermionState._make(
            {ChargedMonomial(charge, shape): c for shape, c in _block_schur_expand(f._block).items()}
        )
    pieces: dict[tuple[int, int], dict] = {}
    for mono, coeff in f.terms.items():
        pieces.setdefault((mono.q_power, mono.shape.size()), {})[BosonMonomial(0, mono.shape)] = coeff
    return FermionState._make(accumulate(
        (ChargedMonomial(charge, shape), coeff)
        for (charge, _), piece in pieces.items()
        for shape, coeff in schur_expand(BosonPolynomial._make(piece)).items()
    ))
