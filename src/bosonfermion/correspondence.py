"""The boson-fermion dictionary: charge-m monomials map to q^m Schur polynomials."""

from .boson import BosonPolynomial, from_schur, schur_expand
from .fermion import ChargedMonomial, FermionState
from .linear import accumulate


def sigma(state: FermionState) -> BosonPolynomial:
    """Linear extension of (charge m, shape) -> q^m * S_shape."""
    return from_schur(state.terms.items())


def sigma_inverse(f: BosonPolynomial) -> FermionState:
    """Inverse dictionary, computed through the Schur expansion of each q-piece."""
    def pieces():
        for charge, component in f.q_components().items():
            by_degree: dict[int, dict] = {}
            for mono, coeff in component.terms.items():
                by_degree.setdefault(mono.shape.size(), {})[mono] = coeff
            for piece in by_degree.values():
                for shape, coeff in schur_expand(BosonPolynomial._make(piece)).items():
                    yield ChargedMonomial(charge, shape), coeff

    return FermionState._make(accumulate(pieces()))
