from hypothesis import given, settings, strategies as st

from bosonfermion.boson import BosonPolynomial, from_schur, parse_boson, power_sum, schur, schur_jacobi_trudi
from bosonfermion.correspondence import sigma, sigma_inverse
from bosonfermion.fermion import FermionState, basis_state, vacuum
from bosonfermion.geometry import LocalizedClass, normalized_class, phi
from bosonfermion.partitions import Partition, partitions_of, partitions_up_to
from bosonfermion.scalars import rat
from bosonfermion.verify import CheckResult, correspondence_suite, report_json


def P(*parts) -> Partition:
    return Partition(parts)


def test_sigma_examples():
    for m in (-2, 0, 3):
        assert sigma(vacuum(m)) == BosonPolynomial.q(m)
    assert sigma(basis_state(0, P(2, 1))) == parse_boson("(1/3)*p1^3 + (-1/3)*p3")
    mixed = basis_state(0, P(1)) + vacuum(0).scale(2)
    assert sigma(mixed) == parse_boson("p1 + 2")


def test_sigma_of_a_signed_basis_state_is_the_row_from_schur_writes():
    """sigma of +-phi_shape@m reads the memoised Schur row: the same q power,
    denominator and numerators as from_schur of the term, and the memoised
    row as it was."""
    for shape in partitions_up_to(10):
        kept = list(schur(shape)._block[3])
        for m in (-1, 0, 1):
            for c in (1, -1):
                image = sigma(basis_state(m, shape).scale(c))
                assert image._block == from_schur([((m, shape), c)])._block
                assert image == from_schur([((m, shape), c)])
        assert schur(shape)._block[3] == kept


def test_sigma_inverse_examples():
    assert sigma_inverse(parse_boson("p1")) == basis_state(0, P(1))
    assert sigma_inverse(parse_boson("q^2")) == vacuum(2)
    assert sigma_inverse(parse_boson("p1^2")) == basis_state(0, P(2)) + basis_state(0, P(1, 1))


def test_round_trip_on_basis():
    for m in (-1, 0, 2):
        for shape in partitions_up_to(6):
            state = basis_state(m, shape)
            assert sigma_inverse(sigma(state)) == state


@st.composite
def mixed_polynomials(draw):
    result = BosonPolynomial.zero()
    for _ in range(draw(st.integers(0, 4))):
        q_power = draw(st.integers(-2, 2))
        degree = draw(st.integers(0, 5))
        shape = draw(st.sampled_from(partitions_of(degree)))
        coeff = rat(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        result = result + (BosonPolynomial.q(q_power) * power_sum(shape)).scale(coeff)
    return result


@settings(deadline=None)
@given(mixed_polynomials())
def test_sigma_of_sigma_inverse_is_identity(f):
    assert sigma(sigma_inverse(f)) == f


# sigma and phi are written by from_schur on the character table; the sums
# below build the same values from Jacobi-Trudi determinants instead.

@st.composite
def schur_coordinates(draw, charges=(-3, 3), max_degree=9):
    """A list of ((charge, shape), coefficient) pairs; keys may repeat."""
    degree = draw(st.integers(0, max_degree))
    pairs = []
    for _ in range(draw(st.integers(0, 5))):
        shape = draw(st.sampled_from(partitions_of(draw(st.integers(0, degree)))))
        coeff = rat(draw(st.integers(-9, 9)), draw(st.integers(1, 6)))
        pairs.append(((draw(st.integers(*charges)), shape), coeff))
    return pairs


def jacobi_trudi_sum(pairs) -> BosonPolynomial:
    total = BosonPolynomial.zero()
    for (m, shape), coeff in pairs:
        total = total + (BosonPolynomial.q(m) * schur_jacobi_trudi(shape)).scale(coeff)
    return total


@settings(max_examples=40, deadline=None)
@given(schur_coordinates())
def test_from_schur_and_sigma_match_jacobi_trudi(pairs):
    expected = jacobi_trudi_sum(pairs)
    assert from_schur(pairs) == expected
    state = FermionState.zero()
    for (m, shape), coeff in pairs:
        state = state + basis_state(m, shape).scale(coeff)
    assert sigma(state) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.sampled_from(partitions_of(n)), st.integers(-9, 9), st.integers(1, 6)),
                         max_size=5))))
def test_phi_matches_jacobi_trudi(drawn):
    n, terms = drawn
    beta = LocalizedClass.zero(n)
    for shape, a, b in terms:
        beta = beta + normalized_class(shape).scale(rat(a, b))
    assert phi(beta) == jacobi_trudi_sum([((0, shape), rat(a, b)) for shape, a, b in terms])


def test_dimension_counts():
    # charge-m, energy-n monomials biject with degree-n polynomials via Schur images
    for n in range(7):
        images = [sigma(basis_state(0, shape)) for shape in partitions_of(n)]
        assert len(images) == len(partitions_of(n))
        for f in images:
            if n:
                assert f.p_degree() == n


def test_intertwining_report_passes():
    # max size 5, max index 3, charges -1..1
    results = correspondence_suite(5, 3, 1)
    assert all(check.passed for check in results)
    names = [check.name for check in results]
    assert "oscillator-intertwining" in names
    assert "form-preservation" in names
    data = report_json(results)
    assert data["passed"] is True
    assert all("name" in c and "checked" in c for c in data["checks"])


def test_report_failure_carries_witness():
    # a fabricated failing check serializes with its witness
    check = CheckResult("x")
    check.record(False, "w")
    data = report_json([check])
    assert data["passed"] is False
    assert data["checks"][0]["counterexample"] == "w"


def test_smallest_intertwining_instances():
    # alpha_{-1} on the vacuum against multiplication by p1
    assert sigma(vacuum(0)) == BosonPolynomial.one()
    from bosonfermion.fermion import alpha
    from bosonfermion.boson import oscillator

    assert sigma(alpha(-1, vacuum(0))) == oscillator(-1, sigma(vacuum(0)))
    for m in (-1, 0, 2):
        assert sigma(alpha(0, vacuum(m))) == oscillator(0, sigma(vacuum(m)))
