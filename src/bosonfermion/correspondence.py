"""The boson-fermion dictionary: charge-m monomials map to q^m Schur polynomials."""

from dataclasses import dataclass, field

from .boson import BosonMonomial, BosonPolynomial, hall_form, oscillator, schur, schur_expand
from .fermion import FermionState, alpha, basis_state, hermitian_form
from .partitions import partitions_up_to
from .scalars import Rational, ZERO


def sigma(state: FermionState) -> BosonPolynomial:
    """Linear extension of (charge m, shape) -> q^m * S_shape."""
    terms: dict[BosonMonomial, Rational] = {}
    for mono, coeff in state.terms.items():
        for s_mono, s_coeff in schur(mono.shape).terms.items():
            key = BosonMonomial(s_mono.q_power + mono.charge, s_mono.p_exps)
            value = terms.get(key, ZERO) + coeff * s_coeff
            if value == 0:
                terms.pop(key, None)
            else:
                terms[key] = value
    result = BosonPolynomial()
    result.terms = terms
    return result


def sigma_inverse(f: BosonPolynomial) -> FermionState:
    """Inverse dictionary, computed through the Schur expansion of each q-piece."""
    state = FermionState.zero()
    for charge, component in f.q_components().items():
        by_degree: dict[int, dict] = {}
        for mono, coeff in component.terms.items():
            by_degree.setdefault(mono.degree(), {})[mono] = coeff
        for piece in by_degree.values():
            for shape, coeff in schur_expand(BosonPolynomial(piece)).items():
                state = state + basis_state(charge, shape).scale(coeff)
    return state


@dataclass
class CorrespondenceCheck:
    name: str
    passed: bool
    checked: int
    witness: str | None = None

    def to_json(self) -> dict:
        data = {"name": self.name, "passed": self.passed, "checked": self.checked}
        if self.witness is not None:
            data["witness"] = self.witness
        return data


@dataclass
class CorrespondenceReport:
    max_energy: int
    charges: tuple[int, ...]
    max_index: int
    checks: list[CorrespondenceCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self) -> dict:
        return {
            "max_energy": self.max_energy,
            "charges": list(self.charges),
            "max_index": self.max_index,
            "passed": self.passed,
            "checks": [check.to_json() for check in self.checks],
        }


def verify_intertwining(
    max_energy: int,
    charges: tuple[int, ...] = (0,),
    max_index: int | None = None,
) -> CorrespondenceReport:
    """Check that the dictionary intertwines alpha_n with the oscillator action
    and preserves the bilinear forms on charge zero."""
    if max_index is None:
        max_index = max_energy
    report = CorrespondenceReport(max_energy, tuple(charges), max_index)
    shapes = partitions_up_to(max_energy)

    checked = 0
    witness = None
    for m in charges:
        for shape in shapes:
            state = basis_state(m, shape)
            image = sigma(state)
            for n in range(-max_index, max_index + 1):
                checked += 1
                if sigma(alpha(n, state)) != oscillator(n, image):
                    witness = witness or f"n={n}, state=phi{shape}@{m}"
    report.checks.append(
        CorrespondenceCheck("oscillator-intertwining", witness is None, checked, witness)
    )

    checked = 0
    witness = None
    for shape in shapes:
        coords = schur_expand(schur(shape))
        checked += 1
        if coords != {shape: Rational(1)}:
            witness = witness or f"shape={shape}"
    report.checks.append(
        CorrespondenceCheck("schur-basis-bijection", witness is None, checked, witness)
    )

    checked = 0
    witness = None
    states = {shape: basis_state(0, shape) for shape in shapes}
    images = {shape: sigma(state) for shape, state in states.items()}
    for a in shapes:
        for b in shapes:
            checked += 1
            lhs = hermitian_form(states[a], states[b])
            rhs = hall_form(images[a], images[b])
            if lhs != rhs:
                witness = witness or f"pair=({a}, {b})"
    report.checks.append(
        CorrespondenceCheck("form-preservation", witness is None, checked, witness)
    )
    return report
