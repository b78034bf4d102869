import json

import pytest
from hypothesis import example, given, strategies as st

from bosonfermion.boson import parse_boson, schur
from bosonfermion.correspondence import sigma
from bosonfermion.fermion import basis_state, vacuum
from bosonfermion.geometry import (
    DegreeUnderflow,
    LocalizedClass,
    NonDivisibleCoefficient,
    QuiverClass,
    bilinear_form,
    cup,
    eta,
    eta_inverse,
    euler_class,
    fundamental_class,
    geometric_boson,
    hecke_e,
    hecke_f,
    integrate,
    normalized_class,
    parse_quiver,
    phi,
    phi_inverse,
    point_variety_dimension,
    power_sum_class,
    pullback,
    pushforward,
    quiver_form,
    tau,
    weight_of,
)
from bosonfermion.partitions import (
    Partition,
    dimension_vector,
    hook_product,
    partitions_of,
    partitions_up_to,
    z_factor,
)
from bosonfermion.scalars import TLaurent, TScalar, parse_tscalar, rat


def P(*parts) -> Partition:
    return Partition(parts)


def ts(text: str) -> TScalar:
    return parse_tscalar(text)


# --- Euler classes -----------------------------------------------------------------

def test_euler_class_examples():
    assert euler_class(P()) == TScalar.one()
    assert euler_class(P(1)) == ts("-t^2")
    assert euler_class(P(2, 1)) == ts("-9*t^6")


def test_euler_class_closed_form():
    for shape in partitions_up_to(10):
        n = shape.size()
        expected = TScalar.monomial((-1) ** n * hook_product(shape) ** 2, 2 * n)
        assert euler_class(shape) == expected


# --- push/pull/cup/integrate ----------------------------------------------------------

def test_pushforward_pullback():
    for shape in partitions_up_to(6):
        pushed = pushforward(shape, TScalar.one())
        assert pullback(pushed, shape) == euler_class(shape)
    assert pushforward(P(1), TScalar.one()).terms == {P(1): ts("-t^2")}


def test_cup_disjoint_supports():
    a = fundamental_class(P(2))
    b = fundamental_class(P(1, 1))
    assert cup(a, b).is_zero()
    with pytest.raises(ValueError):
        cup(a, fundamental_class(P(1)))


def test_integrate_examples():
    for shape in partitions_up_to(6):
        assert integrate(fundamental_class(shape)) == TScalar.one()
    lam = P(2, 1)
    squared = cup(normalized_class(lam), normalized_class(lam))
    assert integrate(squared) == TScalar.monomial(-1)
    assert integrate(LocalizedClass.zero(3)) == TScalar.zero()


def test_normalized_class_examples():
    assert pullback(normalized_class(P()), P()) == TScalar.one()
    assert pullback(normalized_class(P(1)), P(1)) == ts("t")
    assert pullback(normalized_class(P(2, 1)), P(2, 1)) == ts("3*t^3")


def test_bilinear_form_examples():
    for n in range(6):
        for a in partitions_of(n):
            for b in partitions_of(n):
                value = bilinear_form(normalized_class(a), normalized_class(b))
                assert value == TScalar.monomial(1 if a == b else 0)
    lam = P(2, 1)
    fund = fundamental_class(lam)
    assert bilinear_form(fund, fund) == TScalar.monomial(-1) * euler_class(lam)
    assert bilinear_form(fund, LocalizedClass.zero(3)) == TScalar.zero()


# The fixed-point sum behind integrate and bilinear_form, against a plain
# TScalar sum; a restriction over t + 1 or t + 2 takes the Q(t) route.
_restriction_values = st.builds(
    lambda num, den, exponent, over: TScalar.monomial(rat(num, den), exponent) / over,
    st.integers(-20, 20).filter(bool),
    st.integers(1, 12),
    st.integers(-3, 6),
    st.sampled_from([TScalar.one(), ts("t + 1"), ts("t + 2"), ts("3*t^2")]),
)


@st.composite
def localized_classes(draw, n):
    shapes = draw(st.lists(st.sampled_from(partitions_of(n)), unique=True))
    return LocalizedClass(n, {shape: draw(_restriction_values) for shape in shapes})


@st.composite
def class_pairs(draw):
    n = draw(st.integers(0, 5))
    return draw(localized_classes(n)), draw(localized_classes(n))


def _plain_integral(alpha: LocalizedClass) -> TScalar:
    total = TScalar.zero()
    for shape, value in alpha.terms.items():
        total = total + value / euler_class(shape)
    return total


@given(class_pairs())
@example((LocalizedClass.zero(3), LocalizedClass.zero(3)))
@example((fundamental_class(P(2)), fundamental_class(P(1, 1))))
@example((
    LocalizedClass(3, {P(3): ts("(1/2)*t^3"), P(2, 1): ts("t / (t + 1)")}),
    LocalizedClass(3, {P(2, 1): ts("-3*t^2"), P(1, 1, 1): ts("7/3")}),
))
def test_fixed_point_sum_matches_a_plain_tscalar_sum(pair):
    alpha, beta = pair
    assert integrate(alpha) == _plain_integral(alpha)
    sign = TScalar.monomial(-1 if alpha.n % 2 else 1)
    assert bilinear_form(alpha, beta) == sign * integrate(cup(alpha, beta))
    assert bilinear_form(alpha, beta) == sign * _plain_integral(cup(alpha, beta))


# bilinear_form pairs two classes whose restrictions are all c * t^n as integer
# vectors with per-degree Euler weights, and any other pair by the fixed-point sum.
_coordinates = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool).map(
    lambda f: rat(f.numerator, f.denominator)
)


@st.composite
def graded_class_pairs(draw):
    """(alpha, beta, integral) on X_n, n <= 8: every restriction is c * t^n when
    integral, else one restriction of one class is a Q(t) value or c * t^(n+1)."""
    n = draw(st.integers(0, 8))
    shapes = partitions_of(n)
    restrictions = [
        {shape: TScalar.monomial(draw(_coordinates), n)
         for shape in draw(st.lists(st.sampled_from(shapes), unique=True, max_size=12))}
        for _ in range(2)
    ]
    integral = draw(st.booleans())
    if not integral:
        c = draw(_coordinates)
        off = draw(st.sampled_from([TScalar.monomial(c, n + 1), TScalar.monomial(c, n) / ts("t + 1")]))
        restrictions[draw(st.integers(0, 1))][draw(st.sampled_from(shapes))] = off
    return _read(n, restrictions[0]), _read(n, restrictions[1]), integral


def _read(n: int, restrictions: dict) -> LocalizedClass:
    """The class as the CLI reads it: from JSON, which keeps the integer form
    of a class whose restrictions are all c * t^n."""
    return LocalizedClass.from_json({"n": n, "restrictions": {str(s): str(v) for s, v in restrictions.items()}})


@given(graded_class_pairs())
@example((normalized_class(P(2, 1)), normalized_class(P(2, 1)), True))
@example((power_sum_class(P(2, 1)), fundamental_class(P(2, 1)), False))
def test_bilinear_form_is_the_localization_sum_on_both_routes(case):
    alpha, beta, integral = case
    total = TScalar.zero()
    for shape in alpha.terms.keys() & beta.terms.keys():
        total = total + alpha.terms[shape] * beta.terms[shape] / euler_class(shape)
    assert bilinear_form(alpha, beta) == TScalar.monomial((-1) ** alpha.n) * total
    assert (alpha._form is not None and beta._form is not None) == integral


@pytest.mark.parametrize("n", [12, 20])
def test_the_two_routes_of_bilinear_form_agree_on_a_dense_pair(n):
    """A dense pair of c * t^n classes takes the integer route; a Q(t)
    restriction added where the other class is zero changes no shared point,
    but sends the pair through integrate(cup(...))."""
    shapes = partitions_of(n)
    alpha = _read(n, {shape: TScalar.monomial(rat(i % 7 - 3 or 5, i % 4 + 1), n)
                      for i, shape in enumerate(shapes[1:])})
    beta = _read(n, {shape: TScalar.monomial(rat(i % 5 - 2 or 3, i % 3 + 2), n)
                     for i, shape in enumerate(shapes)})
    off = _read(n, {**beta.terms, shapes[0]: TScalar.monomial(1, n) / ts("t + 1")})
    assert alpha._form is not None and beta._form is not None and off._form is None
    value = bilinear_form(alpha, beta)
    assert bilinear_form(alpha, off) == bilinear_form(off, alpha) == value
    assert value == TScalar.monomial((-1) ** n) * integrate(cup(alpha, beta))


# --- Hecke operators ----------------------------------------------------------------------

def test_hecke_examples():
    start = QuiverClass.unit(P())
    one_box = hecke_f(0, start)
    assert one_box == parse_quiver("t*1@[1]")
    assert hecke_e(0, one_box) == start
    assert hecke_f(1, one_box) == parse_quiver("t^2*1@[2]")
    assert hecke_f(-1, one_box) == parse_quiver("t^2*1@[1,1]")
    assert hecke_f(5, one_box).is_zero()


def test_hecke_e_divisibility():
    with pytest.raises(NonDivisibleCoefficient):
        hecke_e(0, QuiverClass.unit(P(1)))
    # no removable box of that residue: no divisibility demand is made
    assert hecke_e(3, QuiverClass.unit(P(1))).is_zero()


def test_hecke_highest_weight():
    for k in range(-5, 6):
        assert hecke_e(k, QuiverClass.unit(P())).is_zero()


def test_quiver_class_requires_polynomial_coefficients():
    with pytest.raises(ValueError):
        QuiverClass({P(1): TLaurent({-1: rat(1)})})


# --- weights and dimensions ------------------------------------------------------------------

def test_weight_examples():
    assert weight_of(P()) == {0: 1}
    assert weight_of(P(1)) == {-1: 1, 0: -1, 1: 1}
    # consistency with corner counts: +1 per addable, -1 per removable residue
    assert weight_of(P(2, 1)) == {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1}


def test_point_variety_dimension():
    for shape in partitions_up_to(10):
        assert point_variety_dimension(dimension_vector(shape)) == 0
    # a non-partition dimension vector has negative dimension
    assert point_variety_dimension({0: 2}) == -4


# --- tau, eta, phi ------------------------------------------------------------------------------

def test_tau_examples():
    assert tau(vacuum(0)) == QuiverClass.unit(P())
    assert tau(basis_state(0, P(2, 1))) == parse_quiver("t^3*1@[2,1]")
    mixed = basis_state(0, P(1)) + basis_state(0, P(2))
    assert tau(mixed) == parse_quiver("t*1@[1] + t^2*1@[2]")
    with pytest.raises(ValueError):
        tau(vacuum(1))


def test_eta_examples():
    assert eta(parse_quiver("t*1@[1]")) == normalized_class(P(1))
    assert eta(QuiverClass.zero()).is_zero()
    with pytest.raises(ValueError):
        eta(parse_quiver("t*1@[1] + t^2*1@[2]"))


def test_eta_inverse_examples():
    assert eta_inverse(normalized_class(P(2, 1))) == parse_quiver("t^3*1@[2,1]")
    for shape in partitions_up_to(6):
        c = QuiverClass.graded_unit(shape)
        assert eta_inverse(eta(c)) == c
        assert eta(eta_inverse(normalized_class(shape))) == normalized_class(shape)
    # a genuinely localized element is rejected
    bad = LocalizedClass(1, {P(1): ts("1 / (t + 1)")})
    with pytest.raises(ValueError):
        eta_inverse(bad)


def test_eta_isometry_small():
    for n in range(5):
        for a in partitions_of(n):
            for b in partitions_of(n):
                ca, cb = QuiverClass.graded_unit(a), QuiverClass.graded_unit(b)
                lhs = bilinear_form(eta(ca), eta(cb))
                assert lhs == TScalar.monomial(quiver_form(ca, cb))


def test_quiver_form_reads_only_a_rational_multiple_of_the_graded_unit():
    assert quiver_form(parse_quiver("3*t*1@[1]"), parse_quiver("2^-1*t*1@[1]")) == rat(3, 2)
    for text in ["t^2*1@[1]", "1@[1]", "(t + t^2)*1@[1]"]:
        with pytest.raises(ValueError, match=r" at \[1\] is not a rational multiple of t\^1$"):
            quiver_form(parse_quiver(text), parse_quiver("t*1@[1]"))


def test_phi_examples():
    assert phi(normalized_class(P(1))) == parse_boson("p1")
    both = normalized_class(P(2)) + normalized_class(P(1, 1))
    assert phi(both) == parse_boson("p1^2")
    assert phi_inverse(parse_boson("p2")) == normalized_class(P(2)) - normalized_class(P(1, 1))
    with pytest.raises(ValueError):
        phi_inverse(parse_boson("p1 + p2"))
    with pytest.raises(ValueError):
        phi(LocalizedClass(1, {P(1): ts("t^2")}))


def test_phi_round_trip():
    for shape in partitions_up_to(6):
        assert phi(phi_inverse(schur(shape))) == schur(shape)


# --- geometric bosons ------------------------------------------------------------------------------

def test_geometric_boson_examples():
    vac_class = normalized_class(P())
    assert geometric_boson(-1, vac_class) == normalized_class(P(1))
    assert geometric_boson(-1, normalized_class(P(1))) == normalized_class(P(2)) + normalized_class(P(1, 1))
    assert geometric_boson(1, normalized_class(P(1))) == vac_class
    assert geometric_boson(0, normalized_class(P(1))) == LocalizedClass.zero(1)
    with pytest.raises(DegreeUnderflow):
        geometric_boson(2, normalized_class(P(1)))


def test_power_sum_class_pairing():
    for n in range(5):
        for a in partitions_of(n):
            for b in partitions_of(n):
                value = bilinear_form(power_sum_class(a), power_sum_class(b))
                expected = TScalar.monomial(z_factor(a) if a == b else 0)
                assert value == expected


def test_geometric_bosons_commute_with_transport():
    # the transported operator matches multiplication/derivation across phi
    from bosonfermion.boson import oscillator

    for shape in partitions_up_to(5):
        beta = normalized_class(shape)
        for k in (-2, -1, 1):
            if k > shape.size():
                continue
            assert phi(geometric_boson(k, beta)) == oscillator(k, phi(beta))


# --- form values: one integer vector per class --------------------------------------------------------

def _agrees_with_its_dict_copy(beta: LocalizedClass) -> LocalizedClass:
    """The class built from its terms, which takes the Q(t) paths, checked
    against the form value it copies."""
    copy = LocalizedClass(beta.n, dict(beta.terms))
    assert beta._form is not None and copy._form is None
    assert beta == copy and copy == beta
    assert hash(beta) == hash(copy)
    text = str(beta)  # json.dumps of to_json
    assert str(copy) == text and beta.to_json() == json.loads(text)
    sign = TScalar.monomial((-1) ** beta.n)
    assert bilinear_form(beta, beta) == sign * integrate(cup(copy, copy))
    return copy


def test_form_values_agree_with_their_dict_copies():
    """Each normalized class, power-sum class, eta of a graded unit and phi
    inverse of S_shape / (h(shape) + 1) (whose form has a denominator) up to
    10 boxes is a form value, and so is each geometric boson image; each one
    agrees with the copy built from its terms, and the geometric bosons of
    the two agree."""
    for shape in partitions_up_to(10):
        scaled = phi_inverse(schur(shape).scale(rat(1, hook_product(shape) + 1)))
        for beta in (normalized_class(shape), power_sum_class(shape), eta(QuiverClass.graded_unit(shape)), scaled):
            copy = _agrees_with_its_dict_copy(beta)
            # read back from its text, the class keeps the form it printed
            assert LocalizedClass.from_json(beta.to_json())._form == beta._form
            for k in range(-4, 5):
                if k > beta.n:
                    for value in (beta, copy):
                        with pytest.raises(DegreeUnderflow):
                            geometric_boson(k, value)
                    continue
                image = geometric_boson(k, beta)
                assert image == geometric_boson(k, copy) and geometric_boson(k, copy) == image
                if k:
                    _agrees_with_its_dict_copy(image)


def test_geometric_bosons_past_the_schur_degrees_take_the_sparse_path():
    """p_{-2} on a form value of 19 boxes has degree 21, past the forms: the
    image is the sparse class, which agrees with the dict copy's image."""
    beta = _read(19, {P(19): ts("t^19"), P(18, 1): ts("2*t^19")})
    assert beta._form is not None
    image = geometric_boson(-2, beta)
    assert image._form is None and image.n == 21
    assert image == geometric_boson(-2, LocalizedClass(19, dict(beta.terms)))
    assert geometric_boson(2, image)._form is not None


def test_form_values_differ_by_their_denominator():
    """Two forms with the same numerators over different denominators differ."""
    half, whole = phi_inverse(parse_boson("(1/2)*p1")), phi_inverse(parse_boson("p1"))
    assert half._form == (2, {0: 1}) and whole._form == (1, {0: 1})
    assert half != whole and whole != half


def test_differences_and_rational_multiples_of_form_values_keep_the_form():
    """heisenberg-geometric compares p_k p_l beta - p_l p_k beta with k beta:
    the difference of two form values and a nonzero rational multiple of one
    are form values, which agree with the values of their dict copies."""
    for n in range(5):
        values = [make(shape) for make in (normalized_class, power_sum_class) for shape in partitions_of(n)]
        for beta in values:
            copy = LocalizedClass(n, dict(beta.terms))
            for gamma in values:
                difference = beta - gamma
                assert difference == copy - LocalizedClass(n, dict(gamma.terms))
                _agrees_with_its_dict_copy(difference)
            for factor in (3, -2, rat(-5, 6), rat(2, 9)):
                scaled = beta.scale(factor)
                assert scaled == copy.scale(factor)
                _agrees_with_its_dict_copy(scaled)
            assert (beta - beta)._form == (1, {}) and (beta - beta).is_zero()
            assert beta.scale(0)._form is None and beta.scale(0).is_zero()


# --- the plane model -----------------------------------------------------------------------------------

def test_c2_toy_reads_x1():
    # X_1 is the plane: the normalized class of its one fixed point is the
    # curve class, restricting to t = -t^-1 times the point class -t^2
    point = P(1)
    curve = normalized_class(point)
    assert curve.terms == {point: ts("t")}
    assert fundamental_class(point).terms == {point: ts("-t^2")}
    # a form value against a class built from its terms, both ways
    curve_by_terms = fundamental_class(point).scale(ts("-t^-1"))
    assert curve._form is not None and curve_by_terms._form is None
    assert curve == curve_by_terms and curve_by_terms == curve
    assert pullback(curve, point) != ts("-t")
    assert euler_class(point) == ts("-t^2")


# --- the commuting square --------------------------------------------------------------------------------

def test_commuting_square_small():
    for shape in partitions_up_to(6):
        state = basis_state(0, shape)
        assert phi(eta(tau(state))) == sigma(state)


# --- serialization ----------------------------------------------------------------------------------------

def test_quiver_text_round_trip():
    for text in ["t*1@[1]", "t^2*1@[2] + t^2*1@[1,1]", "1@[]", "0"]:
        assert str(parse_quiver(text)) == text
    c = QuiverClass({P(2): TLaurent({2: rat(1), 0: rat(-1)}), P(1, 1): TLaurent({0: rat(-3)})})
    assert parse_quiver(str(c)) == c


def test_quiver_json_round_trip():
    c = tau(basis_state(0, P(2, 1)) + basis_state(0, P(1)).scale(-2))
    assert QuiverClass.from_json(c.to_json()) == c


def test_localized_json_round_trip():
    beta = phi_inverse(parse_boson("p2 p1"))
    data = beta.to_json()
    assert set(data["restrictions"]) == {str(s) for s in partitions_of(3)}
    assert LocalizedClass.from_json(data) == beta
    assert LocalizedClass.from_json(json.loads(json.dumps(data))) == beta


def test_localized_json_rejects_a_negative_degree():
    with pytest.raises(ValueError, match=r"^n must be at least 0, got -1$"):
        LocalizedClass.from_json({"n": -1, "restrictions": {}})
    # the library itself may still build the zero class of a negative degree
    assert LocalizedClass.zero(-1).is_zero()


# --- the sparse base --------------------------------------------------------------------------------------

def test_localized_class_keeps_its_space_through_the_base_operators():
    for n in range(4):
        beta = LocalizedClass(n, {shape: ts("t + 1") for shape in partitions_of(n)})
        assert (beta - beta).n == (-beta).n == beta.scale(0).n == n
        assert beta - beta == beta.scale(0) == LocalizedClass.zero(n)
        assert beta - beta != LocalizedClass.zero(n + 1)
        assert beta.scale(2) == beta + beta == -(-beta - beta)


def test_localized_class_rejects_another_space_or_size():
    a, b = fundamental_class(P(2)), fundamental_class(P(1))
    with pytest.raises(ValueError, match="different spaces: n=2 vs n=1"):
        a + b
    with pytest.raises(ValueError, match="different spaces: n=2 vs n=1"):
        a - b
    with pytest.raises(ValueError, match=r"^partition \[1\] does not have size 2$"):
        LocalizedClass(2, {P(2): ts("t"), P(1): ts("t")})
    with pytest.raises(ValueError, match=r"^partition \[1\] does not have size 2$"):
        pullback(a, P(1))


def test_equal_localized_classes_hash_equal():
    a = normalized_class(P(2)) - normalized_class(P(1, 1))
    b = phi_inverse(parse_boson("p2"))
    assert a == b and a is not b and hash(a) == hash(b)
    assert hash(LocalizedClass.zero(2) - LocalizedClass.zero(2)) == hash(LocalizedClass.zero(2))
    assert len({a, b, LocalizedClass.zero(2), LocalizedClass.zero(3)}) == 3


def test_quiver_json_rejects_malformed_input():
    for data in ({"coefficients": {"[1]": 7}}, []):
        with pytest.raises(ValueError):
            QuiverClass.from_json(data)
