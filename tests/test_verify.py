import importlib
import json
import operator
import pkgutil
import re
import time
from collections import Counter
from typing import Callable, NamedTuple

import pytest

import bosonfermion
from bosonfermion import boson, cli, geometry, partitions, scalars, verify
from bosonfermion.fermion import ChargedMonomial, basis_state
from bosonfermion.partitions import MAX_SCHUR_DEGREE, Partition, partitions_up_to
from bosonfermion.scalars import TScalar
from bosonfermion.verify import (
    CheckResult,
    correspondence_suite,
    heisenberg_fermion_suite,
    heisenberg_geometric_suite,
    run_suite,
)


class _Unprintable:
    def __format__(self, spec):
        raise AssertionError("a passing check formatted its witness")


def test_record_formats_only_the_first_failure():
    check = CheckResult("example")
    check.record(True, "state={}", _Unprintable())
    assert check.passed and str(check) == "PASS example (checked=1)"
    left, right = basis_state(0, Partition((1,))), basis_state(1, Partition())
    check.record(False, "k={}, pair=({}, {})", -2, left, right)
    check.record(False, "state={}", _Unprintable())
    assert check.checked == 3 and not check.passed
    assert check.counterexample == "k=-2, pair=(phi[1], phi[]@1)"
    assert str(check) == "FAIL example (checked=3) counterexample: k=-2, pair=(phi[1], phi[]@1)"


def test_record_row_counts_every_index_and_names_the_first_unequal_one():
    row = CheckResult("row")
    row.record_row([0, 1, -1], [0, 1, -1], range(1, 4), "k={}, pair=({}, {})", _Unprintable(), _Unprintable())
    assert row.passed and row.checked == 3
    left, right = basis_state(0, Partition((1,))), basis_state(1, Partition())
    lhs, rhs, indices = [0, 1, 2, 5], [0, 1, -2, 6], range(-2, 2)
    row.record_row(lhs, rhs, indices, "k={}, pair=({}, {})", left, right)
    each = CheckResult("each")  # the same instances, one record each
    for k, a, b in zip(indices, lhs, rhs):
        each.record(a == b, "k={}, pair=({}, {})", k, left, right)
    assert row.checked == 7 and each.checked == 4
    assert row.counterexample == each.counterexample == "k=0, pair=(phi[1], phi[]@1)"


def test_cross_checks_run_and_pass():
    results = {r.name: r for r in heisenberg_geometric_suite(5, 3) + correspondence_suite(4, 2, 1)}
    for name in ("geometric-boson-transport", "schur-expand-rebuild"):
        assert results[name].passed and results[name].checked > 0


# (name, checked, counterexample) of clifford_suite on three grids, as the
# sweep that applied psi and psi* to every product state computed them
CLIFFORD_RESULTS = {
    (2, 1, 1): [("clifford-anticommutators", 108, None), ("psi-adjointness", 96, None),
                ("charge-shift", 36, None), ("vacuum-annihilation", 9, None)],
    (4, 3, 1): [("clifford-anticommutators", 1764, None), ("psi-adjointness", 2016, None),
                ("charge-shift", 252, None), ("vacuum-annihilation", 21, None)],
    (6, 5, 2): [("clifford-anticommutators", 18150, None), ("psi-adjointness", 39600, None),
                ("charge-shift", 1650, None), ("vacuum-annihilation", 55, None)],
}


@pytest.mark.parametrize("grid", CLIFFORD_RESULTS)
def test_clifford_applies_each_operator_once_per_index_and_monomial(grid, monkeypatch):
    """clifford reads psi and psi* as matrices on the basis monomials: each
    operator meets each (index, monomial) at most once, and every product is
    composed from those images."""
    calls = Counter()

    def counting(op):
        def counted(j, state):
            calls[op.__name__, j, tuple(state.terms)] += 1
            return op(j, state)
        return counted

    monkeypatch.setattr(verify, "psi", counting(verify.psi))
    monkeypatch.setattr(verify, "psi_star", counting(verify.psi_star))
    results = verify.clifford_suite(*grid)
    assert [(r.name, r.checked, r.counterexample) for r in results] == CLIFFORD_RESULTS[grid]
    assert calls and max(calls.values()) == 1
    assert all(len(monomials) == 1 for _, _, monomials in calls)


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
    ("geometric-power-sum-image", 12, True),
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


# The same at size 8, the grid of `verify all --max-size 8`, whose printed
# report must stay byte-identical when only the speed of the code changes.
ALL_AT_SIZE_8 = [
    ("clifford-anticommutators", 40535, True),
    ("psi-adjointness", 197516, True),
    ("charge-shift", 3685, True),
    ("vacuum-annihilation", 55, True),
    ("alpha-commutators", 5427, True),
    ("alpha0-charge", 60, True),
    ("alpha-adjointness", 17956, True),
    ("oscillator-commutators", 5427, True),
    ("geometric-boson-commutators", 5427, True),
    ("geometric-boson-adjointness", 1542, True),
    ("geometric-boson-transport", 108, True),
    ("ef-commutators", 4824, True),
    ("cartan-eigenvalues", 603, True),
    ("serre-relations", 1206, True),
    ("distant-commutation", 3752, True),
    ("highest-weight", 9, True),
    ("point-dimension-formula", 139, True),
    ("schur-orthonormality", 919, True),
    ("power-sum-pairing", 919, True),
    ("point-class-orthonormality", 919, True),
    ("geometric-power-sum-pairing", 919, True),
    ("geometric-power-sum-image", 67, True),
    ("schur-two-determinants", 67, True),
    ("schur-expand-rebuild", 67, True),
    ("oscillator-intertwining", 3015, True),
    ("schur-basis-bijection", 67, True),
    ("form-preservation", 4489, True),
    ("full-square", 67, True),
    ("tau-intertwining", 603, True),
    ("eta-isometry", 919, True),
    ("eta-inverse", 67, True),
    ("tau-energy-grading", 67, True),
    ("c2-toy", 3, True),
    ("euler-closed-form", 67, True),
    ("pullback-of-pushforward", 67, True),
]


def test_run_suite_all_at_size_8_is_pinned():
    results = run_suite("all", 8)
    assert [(r.name, r.checked, r.passed) for r in results] == ALL_AT_SIZE_8


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


@pytest.mark.parametrize("suite", ["correspondence", "heisenberg-geometric"])
def test_a_suite_runs_at_the_edge_of_its_schur_reach(suite):
    assert all(r.passed for r in run_suite(suite, 1, 19))


@pytest.mark.parametrize("suite, grid, message", [
    ("correspondence", (1, 20), "max_size + max_index must be at most 20 for correspondence, got 21"),
    ("correspondence", (17,), "max_size + max_index must be at most 20 for correspondence, got 21"),
    ("heisenberg-geometric", (1, 20),
     "min(max_size, 4) + max_index must be at most 20 for heisenberg-geometric, got 21"),
    ("heisenberg-geometric", (5, 17),
     "min(max_size, 4) + max_index must be at most 20 for heisenberg-geometric, got 21"),
    ("all", (1, 20), "min(max_size, 4) + max_index must be at most 20 for heisenberg-geometric, got 21"),
])
def test_run_suite_refuses_a_grid_past_the_schur_reach_of_a_suite(suite, grid, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_suite(suite, *grid)


def test_run_suite_rejects_a_grid_that_leaves_a_check_empty():
    with pytest.raises(ValueError, match=r"^the grid is too small: alpha-adjointness checked nothing$"):
        run_suite("heisenberg-fermion", 4, 0)
    with pytest.raises(ValueError, match=r": psi-adjointness, alpha-adjointness, geometric-boson-adjointness, "
                                         r"ef-commutators, distant-commutation checked nothing$"):
        run_suite("all", 0, 0, 0)
    # a suite called directly still reports the empty check
    results = {r.name: r for r in heisenberg_fermion_suite(4, 0, 1)}
    assert results["alpha-adjointness"].checked == 0 and results["alpha-adjointness"].passed


# --- the mutation table ----------------------------------------------------------
#
# Each row corrupts one kernel and pins the witness of checks that must report
# it; the checks in passes must not.  The kernel is patched in every module of
# the package that binds it, so every reader sees the mutant, unless only_in
# names the one reader to patch.  The grid is the smallest that shows the
# witnesses.  (DeMillo, Lipton and Sayward, Computer 11, 1978.)

_MODULES = [bosonfermion, *(
    importlib.import_module(f"bosonfermion.{info.name}") for info in pkgutil.iter_modules(bosonfermion.__path__)
)]


class Mutant(NamedTuple):
    id: str
    kernel: str  # "module.name [module.name ...]" in the package
    corrupt: Callable | tuple  # the kernel -> its mutant, or one such per kernel
    run: tuple  # ("suite [suite ...]", *grid), each suite run by run_suite on the grid
    fails: dict  # {check: pinned witness}
    passes: tuple = ()
    only_in: str | None = None


def _always(change):
    return lambda kernel: lambda *args: change(kernel(*args))


def _at(point, change):
    """Apply change to the kernel's value at the arguments point only."""
    return lambda kernel: lambda *args: change(kernel(*args)) if args == point else kernel(*args)


def _flip_sign(hit):
    sign, value = hit
    return -sign, value


def _flip_signs(hits):
    return [_flip_sign(hit) for hit in hits]


def _flip_first_sign(hits):
    first, *rest = hits
    return [_flip_sign(first), *rest]


def _negate_values(coords):
    return {key: -c for key, c in coords.items()}


def _times_z_at_21(f):
    # from_schur writes schur, sigma and phi; Jacobi-Trudi does not go through it
    return boson.BosonPolynomial._make({
        mono: c * partitions.z_factor(mono.shape) if mono.shape == (2, 1) else c for mono, c in f.terms.items()
    })


def _doubled_row_2(table):
    return {**table, (2,): [2 * chi for chi in table[(2,)]]}


def _negated_entry_21_at_111(table):
    # a row misaligned with partitions_of(3) moves this entry
    row = list(table[(2, 1)])
    i = partitions.partitions_of(3).index((1, 1, 1))
    row[i] = -row[i]
    return {**table, (2, 1): row}


def _unscaled_monomial_division(canonical):
    # a TScalar divided by c * t^e is shifted by -e but not divided by c
    def corrupt(num, den):
        if len(den.terms) == 1:
            return num.shift(-min(den.terms)), scalars._LAURENT_ONE
        return canonical(num, den)
    return corrupt


def _moved_to(target):
    """Keep a kernel hit's sign and land it on target."""
    return lambda hit: (hit[0], target)


def _first_moved_to(target):
    return lambda hits: [_moved_to(target)(hits[0]), *hits[1:]]


def _at_index(index, change):
    """Apply change to the value of an operator kernel (index, operand) at one index."""
    return lambda kernel: lambda k, x: change(kernel(k, x)) if k == index else kernel(k, x)


_NEGATE = _always(operator.neg)
_ONE_BOX = (0, (1,))  # the wedge monomial phi[1] at charge 0
_UNIT_2 = geometry.QuiverClass.graded_unit([2])  # t^2 1_[2]
_TWO_DETERMINANTS = ("correspondence", 4, 1, 0)

MUTANTS = [
    # fermionic kernels: the sweeps read psi, psi* and alpha images from tables built once per state
    Mutant("psi-sign-at-one-slot", "fermion._wedge_in", _at((0, _ONE_BOX), _flip_sign), ("clifford", 4, 3, 1),
           {"clifford-anticommutators": "i=0, j=1, state=phi[]@-1",
            "psi-adjointness": "j=0, pair=(phi[1], phi[]@1)"},
           passes=("charge-shift", "vacuum-annihilation")),
    Mutant("psi-star-sign-at-one-slot", "fermion._contract_out", _at((1, _ONE_BOX), _flip_sign),
           ("clifford", 2, 1, 1),
           {"clifford-anticommutators": "i=1, j=1, state=phi[]@-1",
            "psi-adjointness": "j=1, pair=(phi[]@-1, phi[1])"}),
    # the adjointness sweeps read rows keyed by target monomial: a hit moved to another
    # monomial of the right charge keeps its sign and still breaks both relations
    Mutant("psi-star-target-moved-at-one-slot", "fermion._contract_out",
           _at((1, _ONE_BOX), _moved_to(ChargedMonomial(-1, Partition((1,))))), ("clifford", 2, 1, 1),
           {"clifford-anticommutators": "i=1, j=1, state=phi[]@-1",
            "psi-adjointness": "j=1, pair=(phi[]@-1, phi[1])"},
           passes=("charge-shift", "vacuum-annihilation")),
    # alpha moves beads through ribbons, here corrupted for the fermionic reader alone
    Mutant("alpha-move-sign", "partitions.ribbons", _at(((2, 1), 1), _flip_first_sign),
           ("heisenberg-fermion", 4, 3, 1), {"alpha-adjointness": "k=1, pair=(phi[1,1], phi[2,1])"},
           passes=("alpha0-charge",), only_in="fermion"),
    # the adjointness sweep compares one row over k per pair; this witness sits past the row's first index
    Mutant("alpha-move-sign-at-2-on-3", "partitions.ribbons", _at(((3,), 2), _flip_first_sign),
           ("heisenberg-fermion", 3, 2, 1),
           {"alpha-commutators": "k=-2, l=2, state=phi[1]", "alpha-adjointness": "k=2, pair=(phi[1], phi[3])"},
           passes=("alpha0-charge",), only_in="fermion"),
    Mutant("alpha-strip-target-moved-at-3", "partitions.ribbons", _at(((3,), 1), _first_moved_to(Partition((1, 1)))),
           ("heisenberg-fermion", 3, 2, 1),
           {"alpha-commutators": "k=-2, l=1, state=phi[1]", "alpha-adjointness": "k=1, pair=(phi[2], phi[3])"},
           passes=("alpha0-charge",), only_in="fermion"),
    Mutant("gl-action-negated", "fermion.gl_action", _NEGATE, ("commuting-square", 1, 1),
           {"tau-intertwining": "k=0, shape=[]"}),
    # combinatorial kernels
    # the next two patch ribbons for every reader; each branch is pinned by a check with one side
    # that does not read it: Jacobi-Trudi in schur-two-determinants (remove), and in
    # oscillator-intertwining (add) the oscillator side, whose sigma reads only the remove branch
    Mutant("character-ribbon-sign", "partitions.ribbons", _at(((3, 1), 2), _flip_signs), _TWO_DETERMINANTS,
           {"schur-two-determinants": "shape=[3,1]"}),
    Mutant("added-ribbon-sign", "partitions.ribbons", _at(((1,), -1), _flip_first_sign), ("correspondence", 2, 1, 0),
           {"oscillator-intertwining": "n=-1, state=phi[1]@0"}),
    Mutant("geometric-ribbon-sign", "partitions.ribbons", _at(((2, 1), 1), _flip_first_sign),
           ("heisenberg-geometric", 4, 3),
           {"geometric-boson-commutators": "k=-3, l=1, shape=[]",
            "geometric-boson-adjointness": "i=1, pair=([1,1], [2,1])",
            "geometric-boson-transport": "k=1, shape=[2,1]"},
           only_in="geometry"),
    Mutant("hook-product-plus-one", "partitions.hook_product", _always(lambda h: h + 1), ("euler", 4),
           {"euler-closed-form": "shape=[]", "pullback-of-pushforward": "shape=[]"}),
    Mutant("hook-product-plus-one-at-21", "partitions.hook_product", _at(((2, 1),), lambda h: h + 1), ("euler", 3),
           {"euler-closed-form": "shape=[2,1]", "pullback-of-pushforward": "shape=[2,1]"}),
    # the Hecke operators and the Serre box count read move_box; tau goes through chevalley_e/f instead
    Mutant("move-box-drops-the-box-added-to-1-at-1", "partitions.move_box", _at(((1,), 1, 1), lambda moved: None),
           ("serre commuting-square", 2, 1),
           {"cartan-eigenvalues": "k=1, shape=[1]", "tau-intertwining": "k=1, shape=[1]"}),
    Mutant("z-factor-doubled-at-21", "partitions.z_factor", _at(((2, 1),), lambda z: 2 * z),
           ("orthonormality", 3),
           {"schur-orthonormality": "pair=([3], [3])", "geometric-power-sum-pairing": "pair=([2,1], [2,1])",
            "geometric-power-sum-image": "shape=[2,1]"}),
    Mutant("conjugate-missing-last-column", "partitions.conjugate", _always(lambda shape: Partition(shape[:-1])),
           _TWO_DETERMINANTS, {"schur-two-determinants": "shape=[1]"}, passes=("schur-expand-rebuild",)),
    Mutant("dimension-vector-without-residue-0", "partitions.dimension_vector",
           _always(lambda counts: {r: c for r, c in counts.items() if r}), ("serre", 2, 1),
           {"cartan-eigenvalues": "k=-1, shape=[1]", "point-dimension-formula": "shape=[2]"}),
    Mutant("cartan-apply-plus-one", "partitions.cartan_apply", _always(lambda value: value + 1), ("serre", 2, 1),
           {"cartan-eigenvalues": "k=0, shape=[]", "point-dimension-formula": "shape=[1]"}),
    # bosonic kernels
    Mutant("character-row-doubled", "boson.characters", _at((2,), _doubled_row_2), ("correspondence", 2, 1, 0),
           {"schur-two-determinants": "shape=[2]", "schur-expand-rebuild": "shape=[2]",
            "oscillator-intertwining": "n=-1, state=phi[1]@0", "schur-basis-bijection": "shape=[2]",
            "form-preservation": "pair=([2], [2])"}),
    Mutant("character-entry-negated", "boson.characters", _at((3,), _negated_entry_21_at_111),
           ("correspondence", 3, 1, 0),
           {"schur-two-determinants": "shape=[2,1]", "schur-expand-rebuild": "shape=[3]",
            "oscillator-intertwining": "n=-1, state=phi[2]@0", "schur-basis-bijection": "shape=[3]",
            "form-preservation": "pair=([3], [2,1])"}),
    Mutant("from-schur-skips-z-division", "boson.from_schur", _always(_times_z_at_21), ("correspondence", 4),
           {"schur-two-determinants": "shape=[3]"}),
    Mutant("schur-expand-negated", "boson.schur_expand", _always(_negate_values), ("correspondence", 1, 1, 0),
           {"schur-expand-rebuild": "shape=[]", "schur-basis-bijection": "shape=[]"}),
    Mutant("h2-is-e2", "boson._complete", _at((2,), lambda h2: boson._elementary(2)),
           ("correspondence", 2, 1, 0), {"schur-two-determinants": "shape=[2]"}),
    # the dual determinant reads e_k, which neither schur nor the narrow one reads
    Mutant("unsigned-e2", "boson._elementary", _at((2,), lambda e2: boson._complete(2)), _TWO_DETERMINANTS,
           {"schur-two-determinants": "shape=[2]"}, passes=("schur-expand-rebuild",)),
    Mutant("jacobi-trudi-negated-on-two-rows", "boson._jacobi_trudi",
           lambda jt: lambda g, parts: -jt(g, parts) if len(parts) == 2 else jt(g, parts),
           ("correspondence", 2, 1, 0), {"schur-two-determinants": "shape=[2]"}),
    # a determinant's products land through the union table, which schur and schur_expand do not read;
    # so do the oscillators on rows, and sigma does not
    Mutant("union-p1-p1-on-p2", "boson._union", _at((1, 1), lambda table: [[0]]), _TWO_DETERMINANTS,
           {"schur-two-determinants": "shape=[2]", "oscillator-intertwining": "n=-1, state=phi[1]@0"},
           passes=("schur-expand-rebuild",)),
    # the three Heisenberg suites share one commutator sweep
    Mutant("oscillator-term", "boson.oscillator", _at((1, boson.power_sum(Partition((2, 1)))), operator.neg),
           ("heisenberg-boson", 4, 3), {"oscillator-commutators": "k=-2, l=1, monomial=p1"}),
    # hall_form weights each shared monomial by z_mu, and bilinear_form each shared point by its
    # Euler weight, which is 1 on every point of degree 2 or less
    Mutant("unweighted-pairing", "scalars.pairing", lambda pairing: lambda f, g, w: pairing(f, g, lambda key: 1),
           ("orthonormality correspondence", 4),
           {"schur-orthonormality": "pair=([2], [2])", "power-sum-pairing": "pair=([2], [2])",
            "point-class-orthonormality": "pair=([2,1], [2,1])",
            "geometric-power-sum-pairing": "pair=([3], [3])", "form-preservation": "pair=([2], [2])"}),
    Mutant("hall-form-doubled", "boson.hall_form", _always(lambda value: 2 * value), ("orthonormality", 0),
           {"schur-orthonormality": "pair=([], [])", "power-sum-pairing": "pair=([], [])"}),
    # geometric kernels; bilinear_form reads its per-point weights off euler_class,
    # and the Hall-form pairings on the boson side do not read it
    Mutant("euler-divisor-doubled-at-21", "geometry.euler_class",
           _at(((2, 1),), lambda e: e * TScalar.monomial(2)), ("orthonormality", 4),
           {"point-class-orthonormality": "pair=([2,1], [2,1])",
            "geometric-power-sum-pairing": "pair=([3], [3])"},
           passes=("schur-orthonormality", "power-sum-pairing")),
    # the Euler weights keep the sign of euler_class: weights read off its absolute value pass this row
    Mutant("euler-class-negated-at-21", "geometry.euler_class", _at(((2, 1),), operator.neg), ("orthonormality", 4),
           {"point-class-orthonormality": "pair=([2,1], [2,1])",
            "geometric-power-sum-pairing": "pair=([3], [3])"},
           passes=("schur-orthonormality", "power-sum-pairing")),
    Mutant("schur-coordinate-writer-negated", "geometry._from_schur_coordinates", _NEGATE,
           ("commuting-square", 1, 1), {"eta-inverse": "shape=[]"}),
    Mutant("schur-coordinate-reader-negated", "geometry._schur_coordinates", _always(_negate_values),
           ("commuting-square", 1, 1), {"full-square": "shape=[]"}),
    Mutant("normalized-class-negated", "geometry.normalized_class", _NEGATE, ("commuting-square", 1, 1),
           {"eta-inverse": "shape=[]"}),
    Mutant("hecke-e-negated-at-1", "geometry.hecke_e", _at_index(1, operator.neg), ("serre", 2, 1),
           {"cartan-eigenvalues": "k=1, shape=[1]"}),
    Mutant("hecke-f-negated-at-1", "geometry.hecke_f", _at_index(1, operator.neg), ("serre", 2, 1),
           {"cartan-eigenvalues": "k=1, shape=[1]"}),
    Mutant("hecke-e-doubled-at-1-on-2", "geometry.hecke_e", _at((1, _UNIT_2), lambda c: c.scale(2)), ("serre", 3, 2),
           {"ef-commutators": "k=1, l=-1, shape=[2]", "cartan-eigenvalues": "k=1, shape=[1]",
            "distant-commutation": "k=-1, l=1, shape=[2,1]"},
           passes=("serre-relations",)),
    # e_1 keeps its operand beside the removed box, so e_1 e_1 no longer vanishes on [2]
    Mutant("hecke-e-keeps-its-operand-at-1-on-2", "geometry.hecke_e", _at((1, _UNIT_2), lambda c: c + _UNIT_2),
           ("serre", 3, 2),
           {"ef-commutators": "k=1, l=-1, shape=[2]", "cartan-eigenvalues": "k=1, shape=[1]",
            "serre-relations": "k=1, j=0, shape=[2]", "distant-commutation": "k=-1, l=1, shape=[2,1]"}),
    Mutant("geometric-boson-negated-at-1", "geometry.geometric_boson", _at_index(1, operator.neg),
           ("heisenberg-geometric", 1, 1),
           {"geometric-boson-commutators": "k=-1, l=1, shape=[]",
            "geometric-boson-adjointness": "i=1, pair=([], [1])",
            "geometric-boson-transport": "k=1, shape=[1]"}),
    # c2-toy reads X_1: the curve class against the fundamental class of [1]
    Mutant("euler-class-negated-at-1", "geometry.euler_class", _at(((1,),), operator.neg), ("c2-toy",),
           {"c2-toy": "standard convention"}),
    Mutant("power-sum-class-negated", "geometry.power_sum_class", _NEGATE, ("orthonormality", 0),
           {"geometric-power-sum-image": "shape=[]"}),
    Mutant("weight-of-plus-one-at-0", "geometry.weight_of", _always(lambda w: {**w, 0: w.get(0, 0) + 1}),
           ("serre", 1, 1), {"cartan-eigenvalues": "k=0, shape=[]"}),
    # the maps of the square
    Mutant("tau-doubled-at-21", "geometry.tau", _at((basis_state(0, (2, 1)),), lambda c: c.scale(2)),
           ("commuting-square", 3, 1),
           {"full-square": "shape=[2,1]", "tau-intertwining": "k=-1, shape=[2]",
            "tau-energy-grading": "shape=[2,1]"}),
    Mutant("eta-negated", "geometry.eta", _NEGATE, ("commuting-square", 1, 1),
           {"full-square": "shape=[]", "eta-inverse": "shape=[]"}),
    Mutant("eta-inverse-negated", "geometry.eta_inverse", _NEGATE, ("commuting-square", 1, 1),
           {"eta-inverse": "shape=[]"}),
    Mutant("phi-negated", "geometry.phi", _NEGATE, ("commuting-square", 1, 1), {"full-square": "shape=[]"}),
    Mutant("phi-inverse-negated", "geometry.phi_inverse", _NEGATE, ("heisenberg-geometric", 1, 1),
           {"geometric-boson-transport": "k=-1, shape=[]"}),
    Mutant("sigma-negated", "correspondence.sigma", _NEGATE, ("correspondence", 1, 1, 0),
           {"schur-basis-bijection": "shape=[]"}),
    Mutant("sigma-inverse-negated", "correspondence.sigma_inverse", _NEGATE, ("correspondence", 1, 1, 0),
           {"schur-basis-bijection": "shape=[]"}),
    # Q(t) arithmetic
    Mutant("monomial-division-unscaled", "scalars._canonical", _unscaled_monomial_division,
           ("commuting-square", 2, 1), {"eta-inverse": "shape=[2]"}),
    # the one exact constructor, and the row kernel that divides in its place; both Schur routes
    # truncate alike, so the two determinants still agree
    Mutant("rat-truncates", "scalars.rat scalars.integer_row",
           (lambda rat: lambda n, d=1: n // d,
            lambda integer_row: lambda common, numerators: (1, [a // common for a in numerators])),
           ("correspondence", 2, 1, 0),
           {"schur-expand-rebuild": "shape=[1,1]", "oscillator-intertwining": "n=1, state=phi[2]@0",
            "schur-basis-bijection": "shape=[2]", "form-preservation": "pair=([2], [2])"},
           passes=("schur-two-determinants",)),
]


def _raise_value_error(value):
    raise ValueError("injected fault")


# A kernel that raises mid-sweep: its suite reports one FAIL row in place of its
# checks, naming the exception and the innermost function of the package it
# passed through, and the run goes on with the next suite.  The table of strips
# of degree 3 reads ribbons([2,1], 1) once the sweep reaches the shapes of 3 boxes.
FAULT = Mutant("ribbons-raise-at-21", "partitions.ribbons", _at(((2, 1), 1), _raise_value_error),
               ("heisenberg-geometric", 3, 1),
               {"heisenberg-geometric": "ValueError: injected fault (raised in geometry._strip_positions)"},
               only_in="geometry")


def _patch_everywhere(monkeypatch, row: Mutant) -> None:
    """Bind the mutant of each of row's kernels wherever the package binds the
    kernel, or in row.only_in alone."""
    kernels = row.kernel.split()
    corrupts = row.corrupt if len(kernels) > 1 else (row.corrupt,)
    for path, corrupt in zip(kernels, corrupts, strict=True):
        home, name = path.rsplit(".", 1)
        kernel = getattr(importlib.import_module(f"bosonfermion.{home}"), name)
        mutant = corrupt(kernel)
        for module in _MODULES:
            if row.only_in in (None, module.__name__.rpartition(".")[2]):
                for attr, value in vars(module).items():
                    if value is kernel:
                        monkeypatch.setattr(module, attr, mutant)


def _memo_tables() -> dict:
    """Every memo table of the package, each found by its cache_clear, by the
    module attribute that binds it."""
    return {f"{module.__name__}.{attr}": value for module in _MODULES
            for attr, value in vars(module).items() if hasattr(value, "cache_clear")}


def _clear_memo_tables() -> None:
    """Empty every memo table of the package."""
    for table in _memo_tables().values():
        table.cache_clear()


def test_requests_above_the_schur_degrees_leave_every_memo_table_as_it_was():
    """A long-lived process serves shapes of any size; only keys of the Schur
    degrees are stored, so larger requests leave every table as it was."""
    assert cli.main(["schur", "[x]"]) == 2  # builds the parser, which every request reads
    # a class of 19 boxes stores its own keys, of a Schur degree, when it is read and lowered
    below = f'{{"n": 19, "restrictions": {{"[19]": "t^19", "[18,1]": "2*t^19"}}}}'
    assert cli.main(["apply", "p(2)", below]) == 0
    before = {name: table.cache_info().currsize for name, table in _memo_tables().items()}
    # raised to 21 boxes it takes the sparse path, and prints up to degree 20 only
    assert cli.main(["apply", "p(-2)", below]) == 2
    for n in (MAX_SCHUR_DEGREE + 1, 2 * MAX_SCHUR_DEGREE):
        # restrictions c * t^n, the form bilinear_form pairs with its Euler weights up to degree 20
        point = f'{{"n": {n}, "restrictions": {{"[{n}]": "t^{n}", "[{n - 1},1]": "2*t^{n}"}}}}'
        codes = [cli.main(argv) for argv in (
            ["localize", "euler", f"[{n},{n}]"],
            ["localize", "class", f"[{n}]"],
            ["localize", "fundamental", f"[{n},1]"],
            ["correspond", "eta", f"t^{n + 1}*1@[{n},1]"],
            ["apply", "alpha(-40) alpha(-40)", "vac(0)"],
            ["inner", "boson", "p1^30", "p1^30"],
            ["inner", "geometric", point, point],
        )]
        assert codes == [0, 2, 2, 2, 0, 0, 0]  # a localized class prints up to degree 20
    assert {name: table.cache_info().currsize for name, table in _memo_tables().items()} == before


def test_determinants_above_the_schur_degrees_raise_and_store_nothing():
    """A determinant checks its degree before it reads any table, so a shape of
    21 boxes raises and leaves every memo table as it was."""
    _clear_memo_tables()
    before = {name: table.cache_info().currsize for name, table in _memo_tables().items()}
    for determinant in (boson.schur_jacobi_trudi, boson.schur_dual_jacobi_trudi):
        for parts in ((21,), (20, 1), (11, 10), (1,) * 21):
            with pytest.raises(ValueError, match="Schur data is available for degrees 0 to 20, got 21"):
                determinant(Partition(parts))
    assert {name: table.cache_info().currsize for name, table in _memo_tables().items()} == before


def test_verify_all_past_the_schur_reach_exits_at_once_and_stores_nothing(capsys):
    """verify all --max-size 17 reaches degree 21 through correspondence at the
    default index 4; it is refused before any suite runs."""
    assert cli.main(["schur", "[x]"]) == 2  # builds the parser, which every request reads
    capsys.readouterr()
    before = {name: table.cache_info().currsize for name, table in _memo_tables().items()}
    start = time.perf_counter()
    assert cli.main(["verify", "all", "--max-size", "17"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == "error: max_size + max_index must be at most 20 for correspondence, got 21\n"
    assert {name: table.cache_info().currsize for name, table in _memo_tables().items()} == before


def _run(row: Mutant) -> list:
    suites, *grid = row.run
    return [r for suite in suites.split() for r in run_suite(suite, *grid)]


def test_no_module_binds_a_list_set_or_bytearray():
    """Shared state lives only in functools memo tables, which _clear_memo_tables
    empties; a module-level container that calls extend would escape it."""
    bound = [
        f"{module.__name__}.{attr}"
        for module in _MODULES
        for attr, value in vars(module).items()
        if isinstance(value, (list, set, bytearray)) and not attr.startswith("__")
    ]
    assert bound == []


@pytest.fixture
def fresh_monkeypatch(monkeypatch):
    """monkeypatch on empty memo tables, emptied again once its patches are
    undone, so that no table keeps a value a mutant computed."""
    _clear_memo_tables()
    yield monkeypatch
    monkeypatch.undo()
    _clear_memo_tables()


@pytest.mark.parametrize("row", MUTANTS, ids=[row.id for row in MUTANTS])
def test_verify_reports_the_mutant(row, fresh_monkeypatch):
    assert row.fails, "a mutant that no check reports is a gap in verify, not a row"
    clean = _run(row)
    assert all(r.passed for r in clean)
    _clear_memo_tables()
    _patch_everywhere(fresh_monkeypatch, row)
    mutated = _run(row)
    # a mutant changes verdicts, never what a check counts
    assert [(r.name, r.checked) for r in mutated] == [(r.name, r.checked) for r in clean]
    results = {r.name: r for r in mutated}
    assert {check: results[check].counterexample for check in row.fails} == row.fails
    assert [check for check in row.passes if not results[check].passed] == []


def test_a_verify_run_leaves_the_memoised_values_as_built(fresh_monkeypatch):
    """The sweeps read the memoised Schur polynomials and point classes many
    times, through their kept blocks; none may change a value."""
    run_suite("all", 6)
    for shape in partitions_up_to(6):
        value, fresh = boson.schur(shape), boson.schur.__wrapped__(shape)
        assert value.terms == fresh.terms
        # the block the Hall pairings, sigma and schur-expand-rebuild of the run read, not a fresh one
        assert value._block == fresh._block
        point, fresh_point = geometry.normalized_class(shape), geometry.normalized_class.__wrapped__(shape)
        assert point.n == shape.size()
        assert point.terms == fresh_point.terms
        # the block the point-class pairings and the geometric bosons of the run read
        assert point._block == fresh_point._block


def test_verify_prints_the_fail_line_of_a_mutant(fresh_monkeypatch, capsys):
    (row,) = [row for row in MUTANTS if row.id == "euler-class-negated-at-1"]
    _patch_everywhere(fresh_monkeypatch, row)
    assert cli.main(["verify", "c2-toy"]) == 1
    assert capsys.readouterr().out == "FAIL c2-toy (checked=3) counterexample: standard convention\n"


def _rows(results: list) -> list:
    return [(r.name, r.checked, r.counterexample) for r in results]


def test_a_kernel_fault_is_one_failing_row_and_the_run_goes_on(fresh_monkeypatch):
    suite, *grid = FAULT.run
    clean = _rows(run_suite("all", *grid, 1))
    assert all(counterexample is None for *_, counterexample in clean)
    _clear_memo_tables()
    _patch_everywhere(fresh_monkeypatch, FAULT)
    mutated = _rows(run_suite("all", *grid, 1))
    start = [name for name, *_ in clean].index("geometric-boson-commutators")
    # the suite's three checks become its one FAIL row; every other suite runs as before
    assert mutated == [*clean[:start], (suite, 0, FAULT.fails[suite]), *clean[start + 3:]]


def test_the_grid_refusal_keeps_the_row_of_a_kernel_fault(fresh_monkeypatch):
    """(3, 1, 0) leaves psi-adjointness empty: the clean run is refused, and
    the faulty run returns its FAIL row beside the empty check."""
    with pytest.raises(ValueError, match="^the grid is too small: psi-adjointness checked nothing$"):
        run_suite("all", 3, 1, 0)
    _clear_memo_tables()
    _patch_everywhere(fresh_monkeypatch, FAULT)
    results = {r.name: r for r in run_suite("all", 3, 1, 0)}
    assert results["heisenberg-geometric"].counterexample == FAULT.fails["heisenberg-geometric"]
    assert results["psi-adjointness"].checked == 0


def test_verify_prints_the_fail_row_of_a_kernel_fault(fresh_monkeypatch, capsys):
    _patch_everywhere(fresh_monkeypatch, FAULT)
    argv = ["verify", "heisenberg-geometric", "--max-size", "3", "--max-index", "1"]
    witness = FAULT.fails["heisenberg-geometric"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().out == f"FAIL heisenberg-geometric (checked=0) counterexample: {witness}\n"
    assert cli.main([*argv, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "backend": scalars.Rational.__module__, "passed": False,
        "checks": [{"name": "heisenberg-geometric", "passed": False, "checked": 0, "counterexample": witness}],
    }


def _raise(error):
    def suite():
        raise error
    return suite


def test_a_lookup_error_in_a_suite_is_a_failing_row_and_memory_errors_propagate(monkeypatch):
    monkeypatch.setitem(verify.SUITES, "c2-toy", _raise(KeyError("x")))
    assert _rows(run_suite("c2-toy")) == [("c2-toy", 0, "KeyError: 'x' (raised in verify.run_suite)")]
    monkeypatch.setitem(verify.SUITES, "c2-toy", _raise(IndexError("list index out of range")))
    assert _rows(run_suite("c2-toy")) == [
        ("c2-toy", 0, "IndexError: list index out of range (raised in verify.run_suite)")]
    for error in (MemoryError(), KeyboardInterrupt()):
        monkeypatch.setitem(verify.SUITES, "c2-toy", _raise(error))
        with pytest.raises(type(error)):
            run_suite("c2-toy")
