"""The boson-fermion dictionary: charge-m monomials map to q^m Schur polynomials."""

from .boson import BosonMonomial, BosonPolynomial, schur, schur_expand
from .fermion import ChargedMonomial, FermionState
from .linear import accumulate


def sigma(state: FermionState) -> BosonPolynomial:
    """Linear extension of (charge m, shape) -> q^m * S_shape."""
    return BosonPolynomial._make(accumulate(
        (BosonMonomial(s_mono.q_power + mono.charge, s_mono.shape), coeff * s_coeff)
        for mono, coeff in state.terms.items()
        for s_mono, s_coeff in schur(mono.shape).terms.items()
    ))


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
