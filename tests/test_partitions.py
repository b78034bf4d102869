from collections import Counter
from functools import cache
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from bosonfermion.partitions import (
    MAX_SCHUR_DEGREE,
    Partition,
    cartan_apply,
    conjugate,
    dimension_vector,
    hook_product,
    move_box,
    parse_partition,
    partitions_of,
    partitions_up_to,
    ribbons,
    z_factor,
)


# --- independent oracles -------------------------------------------------------

@cache
def count_partitions(n: int, max_part: int) -> int:
    """Partition counting by bounded-part recursion, independent of the enumerator."""
    if n == 0:
        return 1
    return sum(count_partitions(n - k, k) for k in range(1, min(n, max_part) + 1))


def cells(shape: Partition) -> set[tuple[int, int]]:
    """The (row, col) of every box of the diagram."""
    return {(row, col) for row in range(len(shape)) for col in range(shape[row])}


def moved_by_hand(shape: Partition, step: int) -> list[tuple[int, Partition]]:
    """(residue, shape) for each box added (step 1) or removed (step -1) at the
    end of a row, the empty row below the last included, that leaves a
    partition; no residue ordering is assumed."""
    found = []
    for row in range(len(shape) + 1):
        parts = list(shape) + [0]
        parts[row] += step
        if parts[row] < 0 or any(a < b for a, b in zip(parts, parts[1:])):
            continue
        col = parts[row] - 1 if step == 1 else parts[row]
        found.append((col - row, Partition(p for p in parts if p)))
    return found


@cache
def count_standard_tableaux(shape: Partition) -> int:
    """Count standard fillings by recursive removal of the largest entry's box."""
    if shape.size() == 0:
        return 1
    return sum(count_standard_tableaux(smaller) for _, smaller in moved_by_hand(shape, -1))


def hooks_by_arm_and_leg(shape: Partition) -> list[int]:
    """arm + leg + 1 of every box, row by row, with arm and leg counted apart."""
    hooks = []
    for row, length in enumerate(shape):
        for col in range(length):
            arm = length - col - 1
            leg = sum(1 for below in shape[row + 1:] if below > col)
            hooks.append(arm + leg + 1)
    return hooks


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    parts = []
    remaining = n
    bound = n
    while remaining:
        p = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(p)
        bound = p
        remaining -= p
    return Partition(parts)


# --- construction and text form -------------------------------------------------

def test_partition_validation():
    assert Partition() == ()
    assert Partition((4, 4, 1)).size() == 9
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_partition_text_form():
    assert str(Partition((2, 1))) == "[2,1]"
    assert str(Partition()) == "[]"
    assert parse_partition("[2,1]") == Partition((2, 1))
    assert parse_partition("[]") == Partition()
    with pytest.raises(ValueError):
        parse_partition("2,1")
    with pytest.raises(ValueError):
        parse_partition("[a]")


@given(partition_strategy())
def test_partition_parse_round_trip(shape):
    assert parse_partition(str(shape)) == shape


# --- hooks and residues ---------------------------------------------------------

def test_residues():
    # the box in column col and row row has residue col - row
    assert dimension_vector(Partition((1,))) == {0: 1}
    assert dimension_vector(Partition((2,))) == {0: 1, 1: 1}
    assert dimension_vector(Partition((1, 1))) == {0: 1, -1: 1}
    for shape in partitions_up_to(8):
        assert dimension_vector(shape) == Counter(col - row for row, col in cells(shape)), shape


def test_hooks():
    assert hooks_by_arm_and_leg(Partition((2, 1))) == [3, 1, 1]
    # the displayed staircase example: box in column 2, row 1 has hook 6
    assert hooks_by_arm_and_leg(Partition((6, 6, 5, 3, 2)))[6 + 2] == 6
    for shape in partitions_up_to(10):
        assert hook_product(shape) == prod(hooks_by_arm_and_leg(shape)), shape
    for shape in (Partition((1,) * 1000), Partition((1000,))):
        assert hook_product(shape) == prod(hooks_by_arm_and_leg(shape)) == factorial(1000)


def test_hook_products():
    assert hook_product(Partition()) == 1
    assert hook_product(Partition((2, 1))) == 3
    assert hook_product(Partition((1, 1))) == 2


@pytest.mark.parametrize("n", range(7))
def test_hook_length_formula_against_tableaux_count(n):
    for shape in partitions_of(n):
        assert factorial(n) // hook_product(shape) == count_standard_tableaux(shape)
        assert factorial(n) % hook_product(shape) == 0


@pytest.mark.parametrize("n", range(9))
def test_hook_squares_sum_to_factorial(n):
    total = sum((factorial(n) // hook_product(shape)) ** 2 for shape in partitions_of(n))
    assert total == factorial(n)


# --- dimension vectors and z ----------------------------------------------------

def test_dimension_vector_examples():
    assert dimension_vector(Partition()) == {}
    assert dimension_vector(Partition((2, 1))) == {-1: 1, 0: 1, 1: 1}
    assert dimension_vector(Partition((2,))) == {0: 1, 1: 1}


def test_dimension_vector_injective():
    seen = {}
    for shape in partitions_up_to(10):
        key = tuple(sorted(dimension_vector(shape).items()))
        assert key not in seen, (shape, seen[key])
        seen[key] = shape


def test_conjugate_transposes_the_diagram():
    assert conjugate(Partition()) == Partition()
    assert conjugate(Partition((3, 1))) == Partition((2, 1, 1))
    for shape in partitions_up_to(8):
        assert cells(conjugate(shape)) == {(col, row) for row, col in cells(shape)}


def test_z_factor():
    assert z_factor(Partition()) == 1
    assert z_factor(Partition((1, 1))) == 2
    assert z_factor(Partition((2, 1))) == 2
    assert z_factor(Partition((2, 2, 2, 1, 1, 1, 1))) == 2**3 * 6 * 24
    assert z_factor(Partition((3, 3, 2))) == 3 * 3 * 2 * 2


def test_z_factor_memo_keeps_only_keys_of_the_schur_degrees():
    z_factor.cache_clear()
    longest = Partition((1,) * 10**5)  # the most factors a p-monomial may have
    assert z_factor(longest) == factorial(10**5)
    assert z_factor(Partition((1,) * (MAX_SCHUR_DEGREE + 1))) == factorial(MAX_SCHUR_DEGREE + 1)
    assert z_factor.cache_info().currsize == 0
    widest = Partition((1,) * MAX_SCHUR_DEGREE)
    assert z_factor(widest) == factorial(MAX_SCHUR_DEGREE)
    assert z_factor.cache_info().currsize == 1


def test_a_memo_counts_every_call_and_stores_only_keys_of_the_schur_degrees():
    """A hit is one lookup and a miss computes; cache_info counts both, and a
    call above the Schur degrees is a miss that stores nothing."""
    hook_product.cache_clear()
    small, large = Partition((2, 1)), Partition((MAX_SCHUR_DEGREE + 1,))
    assert [hook_product(small) for _ in range(3)] == [3, 3, 3]
    assert [hook_product(large) for _ in range(2)] == [factorial(MAX_SCHUR_DEGREE + 1)] * 2
    info = hook_product.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 3, 1)
    assert hook_product.__wrapped__(large) == factorial(MAX_SCHUR_DEGREE + 1)


# --- moving the box of one residue ----------------------------------------------

def test_addable_removable_examples():
    assert move_box(Partition(), 0, 1) == Partition((1,))
    assert move_box(Partition((1,)), 1, 1) == Partition((2,))
    assert move_box(Partition((1,)), -1, 1) == Partition((1, 1))
    assert move_box(Partition((1,)), 0, -1) == Partition()
    assert move_box(Partition((1,)), 1, -1) is None
    assert move_box(Partition((2, 2)), 1, 1) is None  # the row above is no longer
    assert move_box(Partition((2, 2)), 1, -1) is None  # the row below is as long
    assert move_box(Partition((2, 2)), 0, -1) == Partition((2, 1))
    assert move_box(Partition((2, 2)), -2, 1) == Partition((2, 2, 1))
    assert move_box(Partition((2, 2)), -3, 1) is None


def test_move_box_matches_the_boxes_found_by_hand():
    for shape in partitions_up_to(10):
        for step in (1, -1):
            found = moved_by_hand(shape, step)
            for k in range(-12, 13):
                expected = [moved for residue, moved in found if residue == k]
                assert [move_box(shape, k, step)] == (expected or [None]), (shape, k, step)


def test_at_most_one_corner_per_residue():
    # each corner has its own residue, and a diagram has one more addable corner than removable ones
    for shape in partitions_up_to(10):
        added = {k for k in range(-12, 13) if move_box(shape, k, 1) is not None}
        removed = {k for k in range(-12, 13) if move_box(shape, k, -1) is not None}
        assert len(added) == len(moved_by_hand(shape, 1)) == len(removed) + 1, shape
        assert not added & removed, shape


def test_corner_count_matches_cartan_pairing():
    for shape in partitions_up_to(10):
        counts = dimension_vector(shape)
        for k in range(-12, 13):
            lhs = (move_box(shape, k, 1) is not None) - (move_box(shape, k, -1) is not None)
            rhs = (1 if k == 0 else 0) - cartan_apply(counts, k)
            assert lhs == rhs, (shape, k)


# --- border strips ------------------------------------------------------------------

def ribbons_reference(shape: Partition, k: int) -> list:
    """Border strips on the beta-set {shape_i - i} by sorting: move one bead by
    |k| to a free position, re-sort the beads, and take the sign (-1) to the
    number of beads passed.  Top row's bead first."""
    # Beads below index `count` sit at every position <= -count.
    count = len(shape) + max(-k, 0)
    beads = [shape.part(i) - i for i in range(count)]
    occupied = set(beads)
    result = []
    for i, bead in enumerate(beads):
        target = bead - k
        if target <= -count or target in occupied:
            continue
        low, high = (target, bead) if k > 0 else (bead, target)
        passed = sum(1 for b in beads if low < b < high)
        moved = sorted(beads[:i] + [target] + beads[i + 1:], reverse=True)
        parts = [b + j for j, b in enumerate(moved)]
        while parts and parts[-1] == 0:
            parts.pop()
        result.append((-1 if passed % 2 else 1, Partition(parts)))
    return result


def test_ribbons_match_the_sorted_bead_reference():
    for shape in partitions_up_to(10):
        for k in (*range(-12, 0), *range(1, 13)):
            assert list(ribbons(shape, k)) == ribbons_reference(shape, k), (shape, k)


def test_ribbons_memo_keeps_only_keys_of_the_schur_degrees(capsys):
    from bosonfermion import cli

    ribbons.cache_clear()
    widest = Partition((1,) * MAX_SCHUR_DEGREE)
    assert ribbons(widest, -1) == ((1, Partition((2,) + (1,) * (MAX_SCHUR_DEGREE - 1))),
                                   (1, Partition((1,) * (MAX_SCHUR_DEGREE + 1))))
    assert ribbons(Partition((MAX_SCHUR_DEGREE + 1,)), 1) == ((1, Partition((MAX_SCHUR_DEGREE,))),)
    assert ribbons(Partition((2,)), 3) == ()  # larger than the shape: no strip
    assert ribbons.cache_info().currsize == 0
    assert ribbons(widest, 1) == ((1, Partition((1,) * (MAX_SCHUR_DEGREE - 1))),)
    assert ribbons(Partition(), -MAX_SCHUR_DEGREE)[0] == (1, Partition((MAX_SCHUR_DEGREE,)))
    assert ribbons.cache_info().currsize == 2
    # alpha moves beads through ribbons; states of 40 and 80 boxes leave no entry
    assert cli.main(["apply", "alpha(-40) alpha(-40)", "vac(0)"]) == 0
    assert capsys.readouterr().out.startswith("phi[80]")
    assert ribbons.cache_info().currsize == 2


def test_ribbons_examples():
    assert ribbons(Partition((2, 1)), 3) == ((-1, Partition()),)
    assert ribbons(Partition(), -2) == ((1, Partition((2,))), (-1, Partition((1, 1))))
    assert ribbons(Partition((2, 2)), 2) == ((-1, Partition((1, 1))), (1, Partition((2,))))
    assert ribbons(Partition((2, 2)), 3) == ((-1, Partition((1,))),)
    assert ribbons(Partition((2, 2)), 4) == ()
    with pytest.raises(ValueError):
        ribbons(Partition((1,)), 0)


@cache
def signed_box_paths(shape: Partition) -> int:
    """Signed count of ways to strip shape to the empty diagram one box at a time."""
    if shape.size() == 0:
        return 1
    return sum(sign * signed_box_paths(smaller) for sign, smaller in ribbons(shape, 1))


@pytest.mark.parametrize("n", range(9))
def test_single_box_ribbon_paths_count_standard_tableaux(n):
    for shape in partitions_of(n):
        assert signed_box_paths(shape) == factorial(n) // hook_product(shape)


def test_ribbons_match_wedge_bosons():
    # the ribbon-rule geometric boson against the wedge definition of alpha,
    # sum_j psi_j psi*_{j+k} over a window that holds every bead that can move,
    # carried to the geometric side by eta . tau, with no Schur polynomial
    from bosonfermion.fermion import FermionState, basis_state, psi, psi_star
    from bosonfermion.geometry import eta, geometric_boson, tau

    for n in range(8):
        for shape in partitions_of(n):
            state = basis_state(0, shape)
            beta = eta(tau(state))
            for k in range(-4, 5):
                if k == 0 or k > n:
                    continue
                wide = FermionState.zero()
                for j in range(-20, 21):
                    wide = wide + psi(j, psi_star(j + k, state))
                assert geometric_boson(k, beta) == eta(tau(wide), n - k), (k, shape)


# --- enumeration -------------------------------------------------------------------

def test_partitions_of_small():
    assert partitions_of(0) == (Partition(),)
    assert partitions_of(3) == (Partition((3,)), Partition((2, 1)), Partition((1, 1, 1)))
    assert len(partitions_of(8)) == 22


@pytest.mark.parametrize("n", range(13))
def test_partitions_of_counts(n):
    shapes = partitions_of(n)
    assert len(shapes) == count_partitions(n, n)
    assert len(set(shapes)) == len(shapes)
    assert all(shape.size() == n for shape in shapes)


def test_partitions_of_reverse_lex_order():
    for n in range(9):
        shapes = [tuple(s) for s in partitions_of(n)]
        assert shapes == sorted(shapes, reverse=True)
