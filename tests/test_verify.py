import pytest

from bosonfermion import boson, fermion, geometry, partitions, verify
from bosonfermion.fermion import ChargedMonomial, basis_state
from bosonfermion.partitions import Partition
from bosonfermion.scalars import TScalar
from bosonfermion.verify import (
    _Check,
    clifford_suite,
    correspondence_suite,
    euler_suite,
    heisenberg_boson_suite,
    heisenberg_fermion_suite,
    heisenberg_geometric_suite,
    run_suite,
)


class _Unprintable:
    def __format__(self, spec):
        raise AssertionError("a passing check formatted its witness")


def test_record_formats_only_the_first_failure():
    check = _Check("example")
    check.record(True, "state={}", _Unprintable())
    left, right = basis_state(0, Partition((1,))), basis_state(1, Partition())
    check.record(False, "k={}, pair=({}, {})", -2, left, right)
    check.record(False, "state={}", _Unprintable())
    result = check.result()
    assert result.checked == 3 and not result.passed
    assert result.counterexample == "k=-2, pair=(phi[1], phi[]@1)"


def test_cross_checks_run_and_pass():
    results = {r.name: r for r in heisenberg_geometric_suite(5, 3) + correspondence_suite(4, 2, 1)}
    for name in ("geometric-boson-transport", "schur-expand-rebuild"):
        assert results[name].passed and results[name].checked > 0


# (name, checked, passed) of every check of `verify all --max-size 4`, in
# order; the defaults each suite applies to the index and charge bound are
# part of what this pins (clifford sweeps indices up to 5).
ALL_AT_SIZE_4 = [
    ("clifford-anticommutators", 7260, True),
    ("psi-adjointness", 6336, True),
    ("charge-shift", 660, True),
    ("vacuum-annihilation", 55, True),
    ("alpha-commutators", 972, True),
    ("alpha0-charge", 60, True),
    ("alpha-adjointness", 576, True),
    ("oscillator-commutators", 972, True),
    ("geometric-boson-commutators", 972, True),
    ("geometric-boson-adjointness", 52, True),
    ("geometric-boson-transport", 108, True),
    ("ef-commutators", 864, True),
    ("cartan-eigenvalues", 108, True),
    ("serre-relations", 216, True),
    ("distant-commutation", 672, True),
    ("highest-weight", 9, True),
    ("point-dimension-formula", 139, True),
    ("schur-orthonormality", 40, True),
    ("power-sum-pairing", 40, True),
    ("point-class-orthonormality", 40, True),
    ("geometric-power-sum-pairing", 40, True),
    ("schur-two-determinants", 12, True),
    ("schur-expand-rebuild", 12, True),
    ("oscillator-intertwining", 540, True),
    ("schur-basis-bijection", 12, True),
    ("form-preservation", 144, True),
    ("full-square", 12, True),
    ("tau-intertwining", 108, True),
    ("eta-isometry", 40, True),
    ("eta-inverse", 12, True),
    ("tau-energy-grading", 12, True),
    ("c2-toy", 3, True),
    ("euler-closed-form", 12, True),
    ("pullback-of-pushforward", 12, True),
]


def test_run_suite_all_at_size_4_is_pinned():
    results = run_suite("all", 4)
    assert [(r.name, r.checked, r.passed) for r in results] == ALL_AT_SIZE_4


def test_run_suite_takes_every_argument_positionally():
    assert [r.checked for r in run_suite("euler", 4, 4, 2)] == [12, 12]
    assert [r.checked for r in run_suite("c2-toy", 8, 4, 2)] == [3]


@pytest.mark.parametrize("suite", ["clifford", "orthonormality", "correspondence", "all"])
@pytest.mark.parametrize("argument", ["max_size", "max_index", "charge_bound"])
def test_run_suite_rejects_a_negative_grid_argument(suite, argument):
    with pytest.raises(ValueError, match=f"^{argument} must be at least 0, got -1$"):
        run_suite(suite, **{argument: -1})


@pytest.mark.parametrize("argument", ["max_size", "max_index", "charge_bound"])
def test_run_suite_rejects_a_grid_argument_above_the_limit(argument):
    assert verify.MAX_GRID == boson.MAX_SCHUR_DEGREE == 20
    with pytest.raises(ValueError, match=f"^{argument} must be at most 20, got 21$"):
        run_suite("clifford", **{argument: 21})


def test_run_suite_rejects_a_grid_that_leaves_a_check_empty():
    with pytest.raises(ValueError, match=r"^the grid is too small: alpha-adjointness checked nothing$"):
        run_suite("heisenberg-fermion", 4, 0)
    with pytest.raises(ValueError, match=r": psi-adjointness, alpha-adjointness, geometric-boson-adjointness, "
                                         r"ef-commutators, distant-commutation checked nothing$"):
        run_suite("all", 0, 0, 0)
    # a suite called directly still reports the empty check
    results = {r.name: r for r in heisenberg_fermion_suite(4, 0, 1)}
    assert results["alpha-adjointness"].checked == 0 and results["alpha-adjointness"].passed


def test_corrupt_closed_form_euler_class_fails_with_a_witness(monkeypatch):
    monkeypatch.setattr(geometry, "hook_product", lambda shape: partitions.hook_product(shape) + 1)
    geometry.euler_class.cache_clear()
    try:
        results = {r.name: r for r in euler_suite(4)}
    finally:
        geometry.euler_class.cache_clear()
    closed = results["euler-closed-form"]
    assert not closed.passed and closed.checked == 12
    assert closed.counterexample == "shape=[]"
    assert not results["pullback-of-pushforward"].passed


def test_flipped_ribbon_sign_in_the_character_table_fails_two_determinants(monkeypatch):
    def flipped(shape, k):
        strips = partitions.ribbons(shape, k)
        if (shape, k) == ((3, 1), 2):
            return tuple((-sign, rho) for sign, rho in strips)
        return strips

    monkeypatch.setattr(boson, "ribbons", flipped)
    boson.characters.cache_clear()
    boson.schur.cache_clear()
    try:
        results = {r.name: r for r in correspondence_suite(4, 1, 0)}
    finally:
        boson.characters.cache_clear()
        boson.schur.cache_clear()
    two_route = results["schur-two-determinants"]
    assert not two_route.passed and two_route.checked == 12
    assert two_route.counterexample == "shape=[3,1]"


def test_skipped_z_division_at_one_output_fails_two_determinants(monkeypatch):
    # from_schur writes schur, sigma and phi; Jacobi-Trudi does not go through it
    from_schur = boson.from_schur
    mu = Partition((2, 1))

    def corrupt(coords):
        terms = dict(from_schur(coords).terms)
        for mono in terms:
            if mono.shape == mu:
                terms[mono] *= partitions.z_factor(mu)
        return boson.BosonPolynomial._make(terms)

    monkeypatch.setattr(boson, "from_schur", corrupt)
    boson.schur.cache_clear()
    try:
        results = {r.name: r for r in run_suite("correspondence", 4)}
    finally:
        boson.schur.cache_clear()
    two_route = results["schur-two-determinants"]
    assert not two_route.passed and two_route.checked == 12
    assert two_route.counterexample == "shape=[3]"


def test_unsigned_e2_fails_two_determinants(monkeypatch):
    # the dual determinant reads e_k, which neither schur nor the narrow one reads
    elementary = boson._elementary
    monkeypatch.setattr(boson, "_elementary", lambda k: boson._complete(k) if k == 2 else elementary(k))
    results = {r.name: r for r in correspondence_suite(4, 1, 0)}
    two_route = results["schur-two-determinants"]
    assert not two_route.passed and two_route.checked == 12
    assert two_route.counterexample == "shape=[2]"
    assert results["schur-expand-rebuild"].passed


def test_conjugate_missing_its_last_column_fails_two_determinants(monkeypatch):
    conjugate = partitions.conjugate
    monkeypatch.setattr(boson, "conjugate", lambda shape: Partition(conjugate(shape)[:-1]))
    results = {r.name: r for r in correspondence_suite(4, 1, 0)}
    two_route = results["schur-two-determinants"]
    assert not two_route.passed and two_route.checked == 12
    assert two_route.counterexample == "shape=[1]"
    assert results["schur-expand-rebuild"].passed


def test_unweighted_pairing_in_the_hall_form_fails_both_boson_pairings(monkeypatch):
    # hall_form weights each shared monomial by z_mu; the point-class checks do not read it
    pairing = boson.pairing
    monkeypatch.setattr(boson, "pairing", lambda f, g, weight: pairing(f, g, lambda key: 1))
    results = {r.name: r for r in run_suite("orthonormality", 4) + run_suite("correspondence", 4)}
    for name in ("schur-orthonormality", "power-sum-pairing", "form-preservation"):
        assert not results[name].passed and results[name].counterexample == "pair=([2], [2])"
    assert results["point-class-orthonormality"].passed
    assert results["geometric-power-sum-pairing"].passed


def test_corrupt_euler_divisor_in_the_fixed_point_sum_fails_both_geometric_pairings(monkeypatch):
    # bilinear_form divides by euler_class inside the fixed-point sum; the
    # Hall-form pairings on the boson side do not read it
    euler_class = geometry.euler_class

    def corrupt(shape):
        value = euler_class(shape)
        return value * TScalar.monomial(2) if shape == (2, 1) else value

    monkeypatch.setattr(geometry, "euler_class", corrupt)
    results = {r.name: r for r in run_suite("orthonormality", 4)}
    point, power = results["point-class-orthonormality"], results["geometric-power-sum-pairing"]
    assert not point.passed and point.counterexample == "pair=([2,1], [2,1])"
    assert not power.passed and power.counterexample == "pair=([3], [3])"
    assert results["schur-orthonormality"].passed and results["power-sum-pairing"].passed


# The sweeps read psi, psi* and alpha images from tables built once per state;
# a wrong sign in a single image must still surface as a failing check.

def test_flipped_psi_sign_at_one_slot_fails_clifford(monkeypatch):
    wedge_in = fermion._wedge_in

    def flipped(j, mono):
        hit = wedge_in(j, mono)
        if (j, mono) == (0, ChargedMonomial(0, Partition((1,)))):
            sign, target = hit
            return -sign, target
        return hit

    monkeypatch.setattr(fermion, "_wedge_in", flipped)
    results = {r.name: r for r in clifford_suite(4, 3, 1)}
    anti, adjoint = results["clifford-anticommutators"], results["psi-adjointness"]
    assert not anti.passed and anti.counterexample == "i=0, j=1, state=phi[]@-1"
    assert not adjoint.passed and adjoint.counterexample == "j=0, pair=(phi[1], phi[]@1)"
    assert results["charge-shift"].passed and results["vacuum-annihilation"].passed


def test_flipped_alpha_move_fails_alpha_adjointness(monkeypatch):
    alpha_moves = fermion._alpha_moves

    def flipped(n, mono):
        moves = list(alpha_moves(n, mono))
        if (n, mono) == (1, ChargedMonomial(0, Partition((2, 1)))):
            sign, target = moves[0]
            moves[0] = -sign, target
        return moves

    monkeypatch.setattr(fermion, "_alpha_moves", flipped)
    results = {r.name: r for r in heisenberg_fermion_suite(4, 3, 1)}
    adjoint = results["alpha-adjointness"]
    assert not adjoint.passed and adjoint.counterexample == "k=1, pair=(phi[1,1], phi[2,1])"
    assert results["alpha0-charge"].passed


# The three Heisenberg suites share one commutator sweep, and the geometric
# adjointness and transport checks read its image tables.

def test_one_wrong_oscillator_term_fails_oscillator_commutators(monkeypatch):
    target = boson.power_sum(Partition((2, 1)))

    def corrupt(m, f):
        image = boson.oscillator(m, f)
        return -image if (m, f) == (1, target) else image

    monkeypatch.setattr(verify, "oscillator", corrupt)
    (comm,) = heisenberg_boson_suite(4, 3)
    assert not comm.passed and comm.checked == 588
    assert comm.counterexample == "k=-2, l=1, monomial=p1"


def test_flipped_ribbon_sign_at_one_shape_fails_the_geometric_suite(monkeypatch):
    def flipped(shape, k):
        strips = partitions.ribbons(shape, k)
        if (shape, k) == ((2, 1), 1):
            (sign, rho), *rest = strips
            return ((-sign, rho), *rest)
        return strips

    monkeypatch.setattr(geometry, "ribbons", flipped)
    results = {r.name: r for r in heisenberg_geometric_suite(4, 3)}
    comm, adjoint = results["geometric-boson-commutators"], results["geometric-boson-adjointness"]
    assert not comm.passed and comm.counterexample == "k=-3, l=1, shape=[]"
    assert not adjoint.passed and adjoint.counterexample == "i=1, pair=([1,1], [2,1])"
    assert results["geometric-boson-transport"].counterexample == "k=1, shape=[2,1]"
