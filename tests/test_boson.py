import importlib
import pkgutil
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

import bosonfermion
from bosonfermion.boson import (
    MAX_SCHUR_DEGREE,
    BosonMonomial,
    BosonPolynomial,
    _complete,
    _elementary,
    _lowering,
    _union,
    characters,
    from_schur,
    hall_form,
    oscillator,
    parse_boson,
    power_sum,
    schur,
    schur_dual_jacobi_trudi,
    schur_expand,
    schur_jacobi_trudi,
)
from bosonfermion.correspondence import sigma
from bosonfermion.fermion import basis_state
from bosonfermion.partitions import Partition, hook_product, partitions_of, partitions_up_to, z_factor
from bosonfermion.scalars import rat


def P(*parts) -> Partition:
    return Partition(parts)


def poly(text: str) -> BosonPolynomial:
    return parse_boson(text)


@st.composite
def small_polynomials(draw, max_degree=8, max_terms=4):
    result = BosonPolynomial.zero()
    n_terms = draw(st.integers(0, max_terms))
    for _ in range(n_terms):
        degree = draw(st.integers(0, max_degree))
        shape = draw(st.sampled_from(partitions_of(degree)))
        coeff = draw(st.integers(-9, 9))
        result = result + power_sum(shape).scale(rat(coeff, draw(st.integers(1, 5))))
    return result


# --- ring structure ---------------------------------------------------------------

def test_ring_examples():
    p1 = BosonPolynomial.p(1)
    assert p1 * p1 == poly("p1^2")
    assert BosonPolynomial.q(1) * BosonPolynomial.q(-1) == BosonPolynomial.one()
    s1 = schur(P(1))
    assert s1 * s1 == schur(P(2)) + schur(P(1, 1))


def test_ring_axioms_spot():
    a, b, c = poly("p1 + q"), poly("p2 + 3"), poly("q^-1 p1")
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - a).is_zero()


# --- oscillator action --------------------------------------------------------------

def test_oscillator_examples():
    one = BosonPolynomial.one()
    assert oscillator(-1, one) == poly("p1")
    assert oscillator(1, poly("p1^2")) == poly("2*p1")
    q3p2 = BosonPolynomial.q(3) * poly("p2")
    assert oscillator(0, q3p2) == q3p2.scale(3)


@settings(deadline=None)
@given(small_polynomials(), st.integers(-3, 3), st.integers(1, 6))
def test_raising_oscillator_is_multiplication_by_p(f, m, k):
    f = f * BosonPolynomial.q(m)
    assert oscillator(-k, f) == f * BosonPolynomial.p(k)


def test_oscillator_commutators_small():
    for shape in partitions_up_to(6):
        f = power_sum(shape)
        for k in range(-3, 4):
            for l in range(-3, 4):
                lhs = oscillator(k, oscillator(l, f)) - oscillator(l, oscillator(k, f))
                expected = f.scale(k) if k == -l else BosonPolynomial.zero()
                assert lhs == expected, (shape, k, l)


# --- Schur polynomials ----------------------------------------------------------------

def _from_dense(k: int, row: list[int]) -> BosonPolynomial:
    """The polynomial of a dense row over partitions_of(k), scaled by k!."""
    return BosonPolynomial({BosonMonomial(0, mu): rat(c, factorial(k)) for mu, c in zip(partitions_of(k), row)})


def test_complete_and_elementary_generators():
    h = [_from_dense(k, _complete(k)) for k in range(11)]
    e = [_from_dense(k, _elementary(k)) for k in range(11)]
    assert h[0] == e[0] == BosonPolynomial.one()
    assert h[1] == e[1] == poly("p1")
    assert h[2] == poly("(1/2)*p1^2 + (1/2)*p2")
    assert e[2] == poly("(1/2)*p1^2 + (-1/2)*p2")
    # the generating functions satisfy H(x) E(-x) = 1
    for n in range(1, 11):
        total = BosonPolynomial.zero()
        for i in range(n + 1):
            total = total + (e[i] * h[n - i]).scale((-1) ** i)
        assert total.is_zero(), n


def test_schur_examples():
    assert schur(P()) == BosonPolynomial.one()
    assert schur(P(1, 1)) == poly("(1/2)*p1^2 + (-1/2)*p2")
    assert schur(P(2, 1)) == poly("(1/3)*p1^3 + (-1/3)*p3")


def test_schur_dual_jacobi_trudi_matches_the_narrow_determinant():
    for shape in partitions_up_to(12):
        assert schur_dual_jacobi_trudi(shape) == schur_jacobi_trudi(shape)


def test_schur_homogeneous():
    for shape in partitions_up_to(7):
        s = schur(shape)
        if shape.size() == 0:
            assert s == BosonPolynomial.one()
        else:
            assert s.p_degree() == shape.size()


def _dense_table(n: int) -> list[list[int]]:
    """chi^shape(mu) for shapes (rows) and cycle types (columns) in partitions_of order."""
    table = characters(n)
    assert list(table) == list(partitions_of(n))
    return [table[shape] for shape in partitions_of(n)]


def test_character_tables_of_s3_and_s4():
    # rows and columns in the order [n], ..., [1^n]
    assert _dense_table(3) == [
        [1, 1, 1],
        [-1, 0, 2],
        [1, -1, 1],
    ]
    assert _dense_table(4) == [
        [1, 1, 1, 1, 1],
        [-1, 0, -1, 1, 3],
        [0, -1, 2, 0, 2],
        [1, 0, -1, -1, 3],
        [-1, 1, 1, -1, 1],
    ]
    assert characters(0) == {P(): [1]}


def test_character_columns_are_orthogonal():
    for n in range(11):
        table = characters(n)
        for i, mu in enumerate(partitions_of(n)):
            for j, nu in enumerate(partitions_of(n)):
                total = sum(row[i] * row[j] for row in table.values())
                assert total == (z_factor(mu) if mu == nu else 0)


def test_character_rows_are_orthogonal():
    # sum over mu of chi^shape(mu) chi^other(mu) / z_mu, times n!: n!/z_mu is the size of the class mu
    for n in range(13):
        table = characters(n)
        class_sizes = [factorial(n) // z_factor(mu) for mu in partitions_of(n)]
        for shape, row in table.items():
            for other, other_row in table.items():
                total = sum(size * a * b for size, a, b in zip(class_sizes, row, other_row))
                assert total == (factorial(n) if shape == other else 0), (shape, other)


def test_character_rows_at_every_schur_degree():
    """Each row is dense in partitions_of order; its first and last entries
    have closed forms that read no border strip: chi(1^n) = n!/h(shape), and
    chi((n)) is (-1)^k on the hook (n - k, 1^k) and 0 on any other shape."""
    for n in range(1, MAX_SCHUR_DEGREE + 1):
        for shape, row in characters(n).items():
            assert len(row) == len(partitions_of(n))
            assert row[-1] == factorial(n) // hook_product(shape)
            legs = len(shape) - 1
            assert row[0] == ((-1) ** legs if shape[0] + legs == n else 0), shape


def test_schur_matches_jacobi_trudi():
    for shape in partitions_up_to(12):
        assert schur(shape) == schur_jacobi_trudi(shape)


def test_union_joins_the_parts():
    for n in range(13):
        for k in range(n + 1):
            table = _union(k, n - k)
            shapes = partitions_of(n)
            assert [[shapes[t] for t in row] for row in table] == [
                [Partition(sorted(mu + nu, reverse=True)) for nu in partitions_of(n - k)] for mu in partitions_of(k)
            ], (k, n - k)


def test_lowering_weighs_each_source_by_the_multiplicity():
    """k d/dp_k p_(nu + (k)) = k * (m_k(nu) + 1) * p_nu, entry by entry."""
    for n in range(13):
        shapes = partitions_of(n)
        for k in range(1, n + 1):
            assert _lowering(k, n - k) == [
                (k * (nu.count(k) + 1), shapes.index(Partition(sorted(nu + (k,), reverse=True))))
                for nu in partitions_of(n - k)
            ], (k, n - k)


def test_lowering_refuses_degree_21_and_stores_nothing():
    before = _memo_sizes()
    for k, d in ((1, 20), (21, 0), (4, 17)):
        with pytest.raises(ValueError, match="^Schur data is available for degrees 0 to 20, got 21$"):
            _lowering(k, d)
    assert _memo_sizes() == before


# The product on integer numerators, against the term-by-term product of its
# rational coefficients.
_factors = st.dictionaries(
    st.builds(BosonMonomial, st.integers(-2, 2), st.sampled_from(partitions_up_to(4))),
    st.fractions(min_value=-50, max_value=50, max_denominator=12)
    .filter(bool).map(lambda f: rat(f.numerator, f.denominator)),
    max_size=5,
).map(BosonPolynomial)


@given(_factors, _factors)
@example(BosonPolynomial.zero(), poly("p1 + p2"))
@example(poly("3/4"), poly("(1/2)*p1 + (-1/3)*p2"))
@example(poly("q^-2 * p2"), poly("q * ((1/6)*p1^2 + p2)"))
@example(poly("(1/2)*p1 + (1/3)*p2"), poly("(1/2)*p1 + (-1/3)*p2"))
def test_product_is_the_term_by_term_rational_product(f, g):
    expected = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            shape = Partition(sorted(m1.shape + m2.shape, reverse=True))
            key = BosonMonomial(m1.q_power + m2.q_power, shape)
            expected[key] = expected.get(key, 0) + c1 * c2
    product = f * g
    assert product.terms == {key: c for key, c in expected.items() if c}
    assert product == g * f


def test_schur_degree_limit():
    assert MAX_SCHUR_DEGREE == 20
    with pytest.raises(ValueError):
        characters(MAX_SCHUR_DEGREE + 1)
    with pytest.raises(ValueError):
        schur(P(MAX_SCHUR_DEGREE + 1))
    with pytest.raises(ValueError):
        schur_expand(poly("p7^3"))


# --- row values: one dense row per (q power, degree) block ------------------------------

def _dict_copy(f: BosonPolynomial) -> BosonPolynomial:
    """The value built from its terms, which takes the sparse paths."""
    return BosonPolynomial._make(dict(f.terms))


def _agrees_with_its_dict_copy(f: BosonPolynomial) -> BosonPolynomial:
    copy = _dict_copy(f)
    assert f == copy and copy == f
    assert hash(f) == hash(copy)
    assert str(f) == str(copy) and f.to_json() == copy.to_json()
    return copy


def test_row_values_agree_with_their_dict_copies():
    """sigma of each basis state up to 10 boxes at charges -1, 0 and 1 is a
    row value, and so is each oscillator image; each one agrees with the copy
    built from its terms, and so do the oscillators and the Hall form."""
    for m in (-1, 0, 1):
        for n in range(11):
            values = {shape: sigma(basis_state(m, shape)) for shape in partitions_of(n)}
            copies = {shape: _agrees_with_its_dict_copy(f) for shape, f in values.items()}
            for shape, f in values.items():
                assert f._block is not None
                pairs = [(f, copies[shape])]
                for k in range(-4, 5):
                    image = oscillator(k, f)
                    assert image == oscillator(k, copies[shape]) and oscillator(k, copies[shape]) == image
                    pairs.append((image, _agrees_with_its_dict_copy(image)))
                if m:
                    with pytest.raises(ValueError, match="q-power zero"):
                        hall_form(f, f)
                    continue
                for image, copy in pairs:
                    assert hall_form(f, image) == hall_form(copies[shape], copy)
                    assert hall_form(image, image) == hall_form(copy, copy)
                for other, g in values.items():
                    assert hall_form(f, g) == hall_form(copies[shape], copies[other])


def test_a_cancelling_combination_is_the_zero_value():
    state = basis_state(0, P(2, 1))
    for f in (
        sigma(state - state),
        from_schur([((0, P(2, 1)), 1), ((0, P(2, 1)), -1)]),
        from_schur([((1, P(3)), rat(1, 2)), ((1, P(3)), rat(-1, 2)), ((0, P(1)), 0)]),
    ):
        assert f.is_zero() and f == BosonPolynomial.zero() and BosonPolynomial.zero() == f
        assert f.terms == {} and str(f) == "0"


def _memo_sizes() -> dict:
    """The size of every memo table of the package, each found by its cache_clear."""
    modules = [importlib.import_module(f"bosonfermion.{info.name}")
               for info in pkgutil.iter_modules(bosonfermion.__path__)]
    return {f"{module.__name__}.{attr}": value.cache_info().currsize for module in modules
            for attr, value in vars(module).items() if hasattr(value, "cache_clear")}


def test_oscillators_past_the_schur_degrees_take_the_sparse_path():
    """p_3 times a Schur polynomial of 19 boxes has degree 22, past the rows:
    the oscillator multiplies the terms and stores nothing.  An oscillator that
    lowers by more than the degree gives zero on either form."""
    f = schur(P(6, 5, 4, 2, 1, 1))
    copy = _dict_copy(f)
    before = _memo_sizes()
    assert oscillator(-3, f) == BosonPolynomial.p(3) * f == oscillator(-3, copy)
    for k in (20, 21, 25):
        assert oscillator(k, f).is_zero() and oscillator(k, copy).is_zero()
    assert _memo_sizes() == before


# --- power sums and the Hall form ------------------------------------------------------

def test_power_sum_examples():
    assert power_sum(P(2, 1)) == poly("p2 p1")
    assert power_sum(P()) == BosonPolynomial.one()
    assert power_sum(P(1, 1, 1)) == poly("p1^3")


def test_hall_form_examples():
    assert hall_form(power_sum(P(2, 1)), power_sum(P(2, 1))) == 2
    assert hall_form(power_sum(P(2)), power_sum(P(1, 1))) == 0
    assert hall_form(schur(P(2)), schur(P(1, 1))) == 0
    assert hall_form(schur(P(2)), schur(P(2))) == 1


def test_hall_form_rejects_q():
    with pytest.raises(ValueError):
        hall_form(BosonPolynomial.q(1), BosonPolynomial.q(1))


def test_schur_orthonormality_small():
    for n in range(6):
        for a in partitions_of(n):
            for b in partitions_of(n):
                assert hall_form(schur(a), schur(b)) == (1 if a == b else 0)


def test_power_sum_pairing_z():
    for n in range(7):
        for a in partitions_of(n):
            for b in partitions_of(n):
                expected = z_factor(a) if a == b else 0
                assert hall_form(power_sum(a), power_sum(b)) == expected


@settings(deadline=None)
@given(small_polynomials(), small_polynomials(), st.integers(1, 5))
def test_multiplication_adjoint_to_derivative(f, g, m):
    lhs = hall_form(f * BosonPolynomial.p(m), g)
    rhs = hall_form(f, oscillator(m, g))
    assert lhs == rhs


# --- Schur expansion ---------------------------------------------------------------------

def test_schur_expand_examples():
    assert schur_expand(poly("p1^2")) == {P(2): 1, P(1, 1): 1}
    assert schur_expand(schur(P(2, 1))) == {P(2, 1): 1}
    assert schur_expand(poly("p2")) == {P(2): 1, P(1, 1): -1}


def test_schur_expand_errors():
    with pytest.raises(ValueError):
        schur_expand(poly("p1 + p2"))
    with pytest.raises(ValueError):
        schur_expand(BosonPolynomial.q(1) * poly("p1"))


def test_schur_expand_reconstructs():
    for n in range(6):
        for shape in partitions_of(n):
            coords = schur_expand(power_sum(shape))
            rebuilt = BosonPolynomial.zero()
            for mu, c in coords.items():
                rebuilt = rebuilt + schur(mu).scale(c)
            assert rebuilt == power_sum(shape)
            assert all(c == c // 1 for c in coords.values())  # character values are integers


# --- text form ----------------------------------------------------------------------------

def test_format_examples():
    assert str(schur(P(2, 1))) == "(1/3)*p1^3 + (-1/3)*p3"
    assert str(schur(P(1, 1))) == "(1/2)*p1^2 + (-1/2)*p2"
    assert str(BosonPolynomial.one()) == "1"
    assert str(BosonPolynomial.zero()) == "0"
    assert str(BosonPolynomial.q(2)) == "q^2"
    assert str(poly("p1") + BosonPolynomial.constant(2)) == "p1 + 2"


@settings(deadline=None)
@given(small_polynomials())
def test_parse_round_trip(f):
    assert parse_boson(str(f)) == f
    assert str(parse_boson(str(f))) == str(f)


def test_parse_round_trip_with_q():
    f = BosonPolynomial.q(-2) * poly("p1^2 p2") + poly("3") + BosonPolynomial.q(1) * poly("p4")
    assert parse_boson(str(f)) == f


def test_json_round_trip():
    f = schur(P(2, 1)) + BosonPolynomial.q(2) * poly("p1")
    assert BosonPolynomial.from_json(f.to_json()) == f


@pytest.mark.parametrize("data", [
    [{"p": [[0, 1]], "coeff": "1"}],
    [{"p": [[1, -1]], "coeff": "1"}],
    [{"p": [[1, 0]], "coeff": "1"}],
    [{"p": [[2, 1], [2, 1]], "coeff": "1"}],
    [{"p": [[1]], "coeff": "1"}],
    [{"p": [[1, True]], "coeff": "1"}],
    [{"p": [1], "coeff": "1"}],
    [{"p": "p1", "coeff": "1"}],
    [{"q": "1", "coeff": "1"}],
    [{"p": [[1, 1]]}],
    [{"p": [[1, 1]], "coeff": 1}],
    [{"p": [[1, 1]], "coeff": "1/0"}],
    [[[1, 1]]],
    {"p": [[1, 1]], "coeff": "1"},
    "p1",
    None,
])
def test_from_json_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        BosonPolynomial.from_json(data)


def test_from_json_reads_what_to_json_writes():
    data = [{"q": -1, "p": [[1, 2], [3, 1]], "coeff": "-1/2"}, {"coeff": "3"}]
    f = BosonPolynomial.from_json(data)
    assert str(f) == "q^-1 * ((-1/2)*p1^2 p3) + 3"
    assert f.to_json() == [data[0], {"q": 0, "p": [], "coeff": "3"}]


def test_a_product_is_held_to_the_factor_bound():
    half = BosonPolynomial.p(1) ** 50000
    assert (half * half).terms == {BosonMonomial(0, P(*[1] * 100000)): 1}
    with pytest.raises(ValueError, match="at most 100000 factors"):
        half * half * BosonPolynomial.p(1)
    with pytest.raises(ValueError, match="at most 100000 factors"):
        parse_boson("p1^100000 p1^100000")
    with pytest.raises(ValueError, match="at most 100000 factors"):
        BosonPolynomial.from_json([{"p": [[1, 100000]], "coeff": "1"}]) * parse_boson("p2 + 1")
    # a power checks before any squaring, while its terms are still few
    with pytest.raises(ValueError, match="at most 100000 factors"):
        parse_boson("(p1 + 1)^200000")


def test_hostile_p_exponents_are_rejected_before_any_work():
    # a p-monomial stores one part per factor, so its factor count is bounded
    with pytest.raises(ValueError):
        parse_boson("p1^1000000001")
    with pytest.raises(ValueError):
        parse_boson("(p1^1000)^1001")
    with pytest.raises(ValueError):
        BosonPolynomial.from_json([{"p": [[1, 10**9]], "coeff": "1"}])
    assert str(parse_boson("q^1000000001")) == "q^1000000001"
    assert str(parse_boson("p2^3 p1^1000")) == "p1^1000 p2^3"
