import pytest
from hypothesis import given, settings, strategies as st

from bosonfermion.fermion import (
    ChargedMonomial,
    FermionState,
    GlMatrix,
    alpha,
    basis_state,
    chevalley_e,
    chevalley_f,
    gl_action,
    hermitian_form,
    parse_fermion,
    psi,
    psi_star,
    vacuum,
)
from bosonfermion.partitions import Partition, partitions_of, partitions_up_to, ribbons
from bosonfermion.scalars import rat


def P(*parts) -> Partition:
    return Partition(parts)


def phi(shape, charge=0) -> FermionState:
    return basis_state(charge, Partition(shape))


# --- independent oracles: explicit finite wedge words -----------------------------------

def wedge_word(shape: Partition, charge: int, count: int) -> tuple[int, ...]:
    """First ``count`` indices i_k = (charge - k) + shape_k of the wedge word."""
    return tuple(charge - k + (shape[k] if k < len(shape) else 0) for k in range(count))


def shape_of_word(word, charge: int) -> Partition:
    """Inverse of wedge_word: read off shape_k = i_k - (charge - k).  The word
    must end in the vacuum tail, i_k = charge - k."""
    parts = [i - (charge - k) for k, i in enumerate(word)]
    assert not word or parts[-1] == 0, (word, charge)
    while parts and parts[-1] == 0:
        parts.pop()
    return Partition(parts)


def wedge_window(mono: ChargedMonomial, *indices: int) -> tuple[int, ...]:
    """A prefix of the word of mono that reaches below every given index and
    ends in two vacuum-tail entries."""
    m, shape = mono
    return wedge_word(shape, m, len(shape) + max([0, *(m - j for j in indices)]) + 2)


def occupied(mono: ChargedMonomial, j: int) -> bool:
    return j in wedge_window(mono, j)


def wedge_reference(j: int, mono: ChargedMonomial) -> FermionState:
    """psi_j by brute force: put j in front of the word, sort it back into
    decreasing order and count the indices j passes."""
    word = wedge_window(mono, j)
    if j in word:
        return FermionState.zero()
    passed = sum(1 for i in word if i > j)
    target = shape_of_word(sorted(word + (j,), reverse=True), mono.charge + 1)
    return basis_state(mono.charge + 1, target).scale((-1) ** passed)


def contract_reference(j: int, mono: ChargedMonomial) -> FermionState:
    """psi*_j by brute force: move j to the front of the word past the
    indices above it, then drop it."""
    word = wedge_window(mono, j)
    if j not in word:
        return FermionState.zero()
    s = word.index(j)
    target = shape_of_word(word[:s] + word[s + 1:], mono.charge - 1)
    return basis_state(mono.charge - 1, target).scale((-1) ** s)


def substitution_action(i: int, j: int, mono: ChargedMonomial) -> FermionState:
    """Matrix-unit action computed directly on the index word: replace the slot
    holding j by i and resort the wedge word, instead of composing the two
    one-particle operators."""
    m, shape = mono
    word = list(wedge_window(mono, i, j))
    if j not in word:
        return FermionState.zero()
    s = word.index(j)
    if i == j:
        return basis_state(m, shape)
    others = word[:s] + word[s + 1:]
    if i in others:
        return FermionState.zero()
    target = sum(1 for value in others if value > i)
    sign = (-1) ** abs(s - target)
    resorted = sorted(others + [i], reverse=True)
    new_shape = shape_of_word(resorted, m)
    return basis_state(m, new_shape).scale(sign)


def test_wedge_word_examples():
    assert wedge_word(Partition(), 0, 4) == (0, -1, -2, -3)
    assert wedge_word(Partition((2, 1)), 0, 4) == (2, 0, -2, -3)
    assert wedge_word(Partition(), 5, 3) == (5, 4, 3)


def test_wedge_word_strictly_decreasing():
    for shape in partitions_up_to(8):
        for m in (-2, 0, 3):
            word = wedge_word(shape, m, len(shape) + 4)
            assert all(a > b for a, b in zip(word, word[1:]))


@given(st.lists(st.integers(1, 12), max_size=12), st.integers(min_value=-4, max_value=4))
def test_wedge_word_round_trip(parts, charge):
    shape = Partition(sorted(parts, reverse=True))
    word = wedge_word(shape, charge, len(shape) + 2)
    assert shape_of_word(word, charge) == shape


@pytest.mark.parametrize("charge", range(-2, 3))
def test_psi_and_psi_star_match_wedge_word_reference(charge):
    for shape in partitions_up_to(6):
        mono = ChargedMonomial(charge, shape)
        for j in range(-6, 7):
            assert psi(j, basis_state(charge, shape)) == wedge_reference(j, mono), (j, mono)
            assert psi_star(j, basis_state(charge, shape)) == contract_reference(j, mono), (j, mono)


@pytest.mark.parametrize("i", range(-4, 5))
def test_gl_action_matches_substitution_oracle(i):
    for j in range(-4, 5):
        for charge in (-1, 0, 1):
            for shape in partitions_up_to(6):
                mono = ChargedMonomial(charge, shape)
                direct = substitution_action(i, j, mono)
                composed = gl_action(GlMatrix.unit(i, j), basis_state(charge, shape))
                assert composed == direct, (i, j, mono)


# --- wedging and contracting -------------------------------------------------------------

def test_psi_examples():
    assert psi(1, vacuum(0)) == phi((), 1)
    assert psi(0, vacuum(0)).is_zero()
    assert psi(2, vacuum(0)) == phi((1,), 1)


def test_psi_star_examples():
    assert psi_star(0, vacuum(0)) == phi((), -1)
    assert psi_star(1, vacuum(0)).is_zero()
    assert psi_star(-1, vacuum(0)) == -phi((1,), -1)


def test_clifford_relations_small():
    states = [phi(shape, m) for m in (-1, 0, 1) for shape in partitions_up_to(4)]
    for state in states:
        for i in range(-3, 4):
            for j in range(-3, 4):
                mixed = psi(i, psi_star(j, state)) + psi_star(j, psi(i, state))
                assert mixed == (state if i == j else FermionState.zero())
                assert (psi(i, psi(j, state)) + psi(j, psi(i, state))).is_zero()
                assert (psi_star(i, psi_star(j, state)) + psi_star(j, psi_star(i, state))).is_zero()


def test_vacuum_annihilation():
    for m in (-2, 0, 3):
        for j in range(m - 3, m + 4):
            assert psi(j, vacuum(m)).is_zero() == (j <= m)
            assert psi_star(j, vacuum(m)).is_zero() == (j > m)


# --- infinite-wedge action -----------------------------------------------------------------

def test_gl_examples():
    assert gl_action(GlMatrix.unit(1, 0), vacuum(0)) == phi((1,))
    for m in (-1, 0, 2):
        for j in range(m - 2, m + 3):
            image = gl_action(GlMatrix.unit(j, j), vacuum(m))
            assert image == (vacuum(m) if j <= m else FermionState.zero())
        assert gl_action(GlMatrix.unit(m, m + 1), vacuum(m)).is_zero()


def test_gl_action_linear_in_matrix():
    a = GlMatrix({(1, 0): rat(2), (0, 1): rat(-1, 3)})
    state = phi((2, 1))
    expected = gl_action(GlMatrix.unit(1, 0), state).scale(rat(2)) + gl_action(
        GlMatrix.unit(0, 1), state
    ).scale(rat(-1, 3))
    assert gl_action(a, state) == expected


def test_gl_matrix_is_a_sparse_combination_of_units():
    a = GlMatrix({(1, 0): 2, (0, 1): rat(-1, 3), (3, 3): 0})
    assert a.terms == {(1, 0): rat(2), (0, 1): rat(-1, 3)}
    assert a == GlMatrix.unit(1, 0).scale(2) + GlMatrix.unit(0, 1).scale(rat(-1, 3))
    assert gl_action(a - a, phi((2, 1))).is_zero()


def test_gl_adjointness():
    shapes = partitions_up_to(4)
    a = GlMatrix({(2, 0): rat(1), (-1, 1): rat(3, 2)})
    at = GlMatrix({(j, i): c for (i, j), c in a.terms.items()})
    for x in shapes:
        for y in shapes:
            sx, sy = phi(x), phi(y)
            assert hermitian_form(gl_action(a, sx), sy) == hermitian_form(sx, gl_action(at, sy))


def test_gl_action_is_a_representation():
    # rho(E_ij) rho(E_kl) - rho(E_kl) rho(E_ij) = delta_jk rho(E_il) - delta_li rho(E_kj)
    units = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    for charge in (-1, 1):
        for shape in partitions_up_to(3):
            state = phi(shape, charge)
            image = {(k, l): gl_action(GlMatrix.unit(k, l), state) for k, l in units}
            for i, j in units:
                for k, l in units:
                    bracket = (gl_action(GlMatrix.unit(i, j), image[k, l])
                               - gl_action(GlMatrix.unit(k, l), image[i, j]))
                    expected = FermionState.zero()
                    if j == k:
                        expected = expected + image[i, l]
                    if l == i:
                        expected = expected - image[k, j]
                    assert bracket == expected, (i, j, k, l, charge, shape)


def test_chevalley_examples():
    assert chevalley_f(0, vacuum(0)) == phi((1,))
    assert chevalley_f(1, phi((1,))) == phi((2,))
    assert chevalley_e(0, phi((1,))) == vacuum(0)


def test_chevalley_adds_box_of_matching_residue():
    for shape in partitions_up_to(5):
        for k in range(-5, 6):
            image = chevalley_f(k, phi(shape))
            if image.is_zero():
                continue
            ((mono, coeff),) = image.terms.items()
            assert coeff == 1
            assert mono.shape.size() == shape.size() + 1


# --- free bosons ------------------------------------------------------------------------------

def test_alpha_examples():
    assert alpha(-1, vacuum(0)) == phi((1,))
    assert alpha(-1, phi((1,))) == phi((2,)) + phi((1, 1))
    for m in (-2, 0, 1):
        for shape in partitions_up_to(3):
            state = phi(shape, m)
            assert alpha(0, state) == state.scale(m)


def test_alpha_zero_matches_occupancy_count():
    # charge equals occupied positive states minus unoccupied non-positive ones
    for shape in partitions_up_to(5):
        for m in (-2, 0, 3):
            mono = ChargedMonomial(m, shape)
            occupied_positive = sum(1 for j in range(1, 30) if occupied(mono, j))
            unoccupied_nonpositive = sum(1 for j in range(-29, 1) if not occupied(mono, j))
            assert occupied_positive - unoccupied_nonpositive == m
            assert alpha(0, basis_state(m, shape)) == basis_state(m, shape).scale(m)


def alpha_moves_reference(n: int, mono: ChargedMonomial) -> list:
    """The moves of alpha_n as two steps, psi*_bead then psi_{bead - n}, over
    the movable beads from the top: the ones of the shape's rows, then for
    n < 0 the top -n beads of the tail."""
    m, shape = mono
    state = basis_state(m, shape)
    images = (
        psi(bead - n, psi_star(bead, state))
        for bead in (m - k + shape.part(k) for k in range(len(shape) + max(-n, 0)))
    )
    return [(coeff, target) for image in images for target, coeff in image.terms.items()]


def test_alpha_matches_wide_window_sum():
    # contributions of psi_j psi*_{j+n} outside the computed window must vanish;
    # |n| > len(shape) moves tail beads
    for shape in partitions_up_to(6):
        for m in range(-2, 3):
            mono = ChargedMonomial(m, shape)
            state = phi(shape, m)
            for n in (*range(-5, 0), *range(1, 6)):
                lifted = [(sign, ChargedMonomial(m, moved)) for sign, moved in ribbons(shape, n)]
                assert lifted == alpha_moves_reference(n, mono), (shape, m, n)
                wide = FermionState.zero()
                for j in range(-25, 26):
                    wide = wide + psi(j, psi_star(j + n, state))
                assert alpha(n, state) == wide, (shape, m, n)


def test_alpha_one_step_is_the_sum_of_the_chevalley_generators():
    # alpha_{-1} = sum_k psi_{k+1} psi*_k = sum_k f_k and alpha_1 = sum_k e_k;
    # alpha moves beads in partitions.ribbons, e_k and f_k go through gl_action.
    # Every bead that can move one step lies in -9..9 for these charges and sizes.
    for shape in partitions_up_to(7):
        for m in range(-2, 3):
            state = phi(shape, m)
            raised, lowered = FermionState.zero(), FermionState.zero()
            for k in range(-10, 11):
                raised = raised + chevalley_f(k, state)
                lowered = lowered + chevalley_e(k, state)
            assert alpha(-1, state) == raised, (shape, m)
            assert alpha(1, state) == lowered, (shape, m)


def test_alpha_commutators_small():
    for shape in partitions_up_to(5):
        state = phi(shape)
        for k in range(-3, 4):
            for l in range(-3, 4):
                lhs = alpha(k, alpha(l, state)) - alpha(l, alpha(k, state))
                expected = state.scale(k) if k == -l else FermionState.zero()
                assert lhs == expected


def test_alpha_adjointness_small():
    shapes = partitions_up_to(5)
    for k in range(1, 4):
        for x in shapes:
            for y in shapes:
                lhs = hermitian_form(alpha(-k, phi(x)), phi(y))
                rhs = hermitian_form(phi(x), alpha(k, phi(y)))
                assert lhs == rhs


# --- form, gradings, state algebra -----------------------------------------------------------

def test_hermitian_form_examples():
    assert hermitian_form(phi((2, 1)), phi((2, 1))) == 1
    assert hermitian_form(phi((2, 1)), phi((2,))) == 0
    assert hermitian_form(phi((1,), 0), phi((1,), 1)) == 0
    mixed = phi((1,)).scale(2) + phi((2,)).scale(3)
    assert hermitian_form(mixed, phi((2,))) == 3


def test_charge_and_energy():
    assert phi((2, 1)).charge() == 0
    assert vacuum(5).charge() == 5
    assert (phi((1,)) + phi((2,))).charge() == 0
    with pytest.raises(ValueError):
        (phi((1,), 0) + phi((1,), 1)).charge()
    with pytest.raises(ValueError):
        FermionState.zero().charge()


def test_charge_shifts():
    for shape in partitions_up_to(4):
        for j in range(-3, 4):
            up = psi(j, phi(shape, 1))
            if not up.is_zero():
                assert up.charge() == 2
            down = psi_star(j, phi(shape, 1))
            if not down.is_zero():
                assert down.charge() == 0


# --- text and JSON forms -----------------------------------------------------------------------

def test_format_examples():
    assert str(alpha(-1, alpha(-1, vacuum(0)))) == "phi[2] + phi[1,1]"
    assert str(FermionState.zero()) == "0"
    assert str(phi((2, 1), -1)) == "phi[2,1]@-1"
    assert str(phi((1,)).scale(rat(-1, 2))) == "-1/2*phi[1]"


def test_parse_examples():
    assert parse_fermion("vac(0)") == vacuum(0)
    assert parse_fermion("vac(-2)") == vacuum(-2)
    assert parse_fermion("phi[2,1]@1") == phi((2, 1), 1)
    assert parse_fermion("phi[2] + 2*phi[1,1]") == phi((2,)) + phi((1, 1)).scale(2)
    assert parse_fermion("0").is_zero()
    with pytest.raises(ValueError):
        parse_fermion("3")
    with pytest.raises(ValueError):
        parse_fermion("phi[2,1]@")


@st.composite
def fermion_states(draw):
    state = FermionState.zero()
    for _ in range(draw(st.integers(0, 4))):
        charge = draw(st.integers(-2, 2))
        size = draw(st.integers(0, 5))
        shape = draw(st.sampled_from(partitions_of(size)))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 7))
        state = state + basis_state(charge, shape).scale(rat(num, den))
    return state


@settings(deadline=None)
@given(fermion_states())
def test_state_round_trips(state):
    assert parse_fermion(str(state)) == state
    assert str(parse_fermion(str(state))) == str(state)
    assert FermionState.from_json(state.to_json()) == state


@settings(deadline=None)
@given(fermion_states(), fermion_states(), st.integers(-4, 4))
def test_psi_adjointness_random(left, right, j):
    assert hermitian_form(psi(j, left), right) == hermitian_form(left, psi_star(j, right))


# a rational with a non-unit numerator or denominator as often as not, of either sign
rationals = st.builds(rat, st.integers(-9, 9), st.integers(1, 7))


@pytest.mark.parametrize("op", [psi, psi_star])
@settings(deadline=None)
@given(fermion_states(), fermion_states(), rationals, rationals, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_psi_and_psi_star_are_linear(op, x, y, a, b, indices):
    """verify's clifford sweep composes psi and psi* from their images of
    basis monomials, which holds only for linear operators."""
    for j in indices:
        assert op(j, x.scale(a) + y.scale(b)) == op(j, x).scale(a) + op(j, y).scale(b)


@settings(deadline=None)
@given(fermion_states(), fermion_states(), rationals, rationals, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_alpha_is_linear(x, y, a, b, indices):
    """alpha writes the image of a one-term state directly and sums the
    images of the terms of any other: the two routes agree, term by term
    and on every combination."""
    for n in indices:
        assert alpha(n, x.scale(a) + y.scale(b)) == alpha(n, x).scale(a) + alpha(n, y).scale(b)
        pieces = [alpha(n, FermionState._make({mono: c})) for mono, c in x.terms.items()]
        assert alpha(n, x) == sum(pieces, FermionState.zero())


@pytest.mark.parametrize("data", [
    [{"charge": 0, "partition": [1]}],
    [{"charge": 0, "partition": [1], "coeff": 1}],
    [{"charge": "0", "partition": [1], "coeff": "1"}],
    [{"charge": True, "partition": [1], "coeff": "1"}],
    [{"charge": 0, "coeff": "1"}],
    [{"charge": 0, "partition": [1.0], "coeff": "1"}],
    [{"charge": 0, "partition": "[1]", "coeff": "1"}],
    [{"charge": 0, "partition": [1, 2], "coeff": "1"}],
    [{"charge": 0, "partition": [0], "coeff": "1"}],
    [{"charge": 0, "partition": [1], "coeff": "x"}],
    [[0, [1], "1"]],
    {"charge": 0, "partition": [1], "coeff": "1"},
    None,
])
def test_from_json_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        FermionState.from_json(data)
