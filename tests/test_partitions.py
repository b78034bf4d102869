from functools import cache
from math import factorial

import pytest
from hypothesis import given, strategies as st

from bosonfermion import partitions
from bosonfermion.partitions import (
    MAX_SCHUR_DEGREE,
    Box,
    Partition,
    addable_boxes,
    addable_corners,
    boxes,
    cartan_apply,
    conjugate,
    dimension_vector,
    hook,
    hook_product,
    parse_partition,
    partitions_of,
    partitions_up_to,
    removable_boxes,
    removable_corners,
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


@cache
def count_standard_tableaux(shape: Partition) -> int:
    """Count standard fillings by recursive corner removal."""
    if shape.size() == 0:
        return 1
    total = 0
    for corner in removable_corners(shape):
        parts = list(shape)
        parts[corner.row] -= 1
        if parts[corner.row] == 0:
            parts.pop()
        total += count_standard_tableaux(Partition(parts))
    return total


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


# --- boxes, hooks, residues -----------------------------------------------------

def test_boxes_enumeration():
    assert boxes(Partition()) == []
    assert boxes(Partition((2, 1))) == [Box(0, 0), Box(1, 0), Box(0, 1)]
    twelve = boxes(Partition((4, 4, 3, 1)))
    assert len(twelve) == 12
    assert twelve[0] == Box(0, 0) and twelve[-1] == Box(0, 3)


def test_residues():
    assert Box(0, 0).residue == 0
    assert Box(1, 0).residue == 1
    assert Box(0, 1).residue == -1


def test_hooks():
    assert hook(Partition((1,)), Box(0, 0)) == 1
    assert hook(Partition((2, 1)), Box(0, 0)) == 3
    # the displayed staircase example: box in column 2, row 1 has hook 6
    assert hook(Partition((6, 6, 5, 3, 2)), Box(2, 1)) == 6
    with pytest.raises(ValueError):
        hook(Partition((2, 1)), Box(1, 1))


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
        assert sorted(boxes(conjugate(shape))) == sorted(Box(b.row, b.col) for b in boxes(shape))


def test_z_factor():
    assert z_factor(Partition()) == 1
    assert z_factor(Partition((1, 1))) == 2
    assert z_factor(Partition((2, 1))) == 2
    assert z_factor(Partition((2, 2, 2, 1, 1, 1, 1))) == 2**3 * 6 * 24
    assert z_factor(Partition((3, 3, 2))) == 3 * 3 * 2 * 2


def test_z_factor_memo_keeps_only_keys_of_the_schur_degrees():
    partitions._z_memo.cache_clear()
    longest = Partition((1,) * 10**5)  # the most factors a p-monomial may have
    assert z_factor(longest) == factorial(10**5)
    assert z_factor(Partition((1,) * (MAX_SCHUR_DEGREE + 1))) == factorial(MAX_SCHUR_DEGREE + 1)
    assert partitions._z_memo.cache_info().currsize == 0
    widest = Partition((1,) * MAX_SCHUR_DEGREE)
    assert z_factor(widest) == factorial(MAX_SCHUR_DEGREE)
    assert partitions._z_memo.cache_info().currsize == 1


# --- addable and removable boxes -------------------------------------------------

def test_addable_removable_examples():
    assert addable_boxes(Partition(), 0) == [Box(0, 0)]
    assert addable_boxes(Partition((1,)), 1) == [Box(1, 0)]
    assert addable_boxes(Partition((1,)), -1) == [Box(0, 1)]
    assert removable_boxes(Partition((1,)), 0) == [Box(0, 0)]
    assert removable_boxes(Partition((1,)), 1) == []


def test_at_most_one_corner_per_residue():
    for shape in partitions_up_to(10):
        residues_add = [b.residue for b in addable_corners(shape)]
        residues_rem = [b.residue for b in removable_corners(shape)]
        assert len(set(residues_add)) == len(residues_add)
        assert len(set(residues_rem)) == len(residues_rem)
        assert not (set(residues_add) & set(residues_rem))


def test_corner_count_matches_cartan_pairing():
    for shape in partitions_up_to(10):
        counts = dimension_vector(shape)
        for k in range(-12, 13):
            lhs = len(addable_boxes(shape, k)) - len(removable_boxes(shape, k))
            rhs = (1 if k == 0 else 0) - cartan_apply(counts, k)
            assert lhs == rhs, (shape, k)


# --- border strips ------------------------------------------------------------------

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
    # carried to the geometric side by eta . tau, with no Schur polynomial
    from bosonfermion.fermion import alpha, basis_state
    from bosonfermion.geometry import eta, geometric_boson, tau

    for n in range(8):
        for shape in partitions_of(n):
            state = basis_state(0, shape)
            beta = eta(tau(state))
            for k in range(-4, 5):
                if k == 0 or k > n:
                    continue
                expected = eta(tau(alpha(k, state)), n - k)
                assert geometric_boson(k, beta) == expected, (k, shape)


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
