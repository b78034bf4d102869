"""The boson-fermion dictionary: charge-m monomials map to q^m Schur polynomials."""

from .boson import BosonMonomial, BosonPolynomial, _row_schur_expand, from_schur, schur_expand
from .fermion import ChargedMonomial, FermionState
from .linear import accumulate


def sigma(state: FermionState) -> BosonPolynomial:
    """Linear extension of (charge m, shape) -> q^m * S_shape."""
    return from_schur(state.terms.items())


def sigma_inverse(f: BosonPolynomial) -> FermionState:
    """Inverse dictionary, computed through the Schur expansion of each
    homogeneous piece of fixed q-power, with the q-factor removed.  A row
    value is one piece, expanded straight from its row."""
    if f._row is not None:
        charge = f._row[1]
        return FermionState._make(
            {ChargedMonomial(charge, shape): c for shape, c in _row_schur_expand(f._row).items()}
        )
    pieces: dict[tuple[int, int], dict] = {}
    for mono, coeff in f.terms.items():
        pieces.setdefault((mono.q_power, mono.shape.size()), {})[BosonMonomial(0, mono.shape)] = coeff
    return FermionState._make(accumulate(
        (ChargedMonomial(charge, shape), coeff)
        for (charge, _), piece in pieces.items()
        for shape, coeff in schur_expand(BosonPolynomial._make(piece)).items()
    ))
