import ast
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import islice
from math import isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import bosonfermion
from bosonfermion import (
    BosonPolynomial,
    FermionState,
    GlMatrix,
    LocalizedClass,
    QuiverClass,
    alpha,
    basis_state,
    eta,
    gl_action,
    oscillator,
    parse_boson,
    phi,
    power_sum,
    psi,
    psi_star,
    sigma,
)
from bosonfermion.boson import from_schur
from bosonfermion.partitions import partitions_of
from bosonfermion.scalars import (
    Rational,
    TLaurent,
    TScalar,
    MAX_CACHED_PRIMES,
    _cofactors,
    _prime_below,
    _primes,
    format_rational,
    integer_numerators,
    integer_row,
    pairing,
    parse_tlaurent,
    parse_tscalar,
    rat,
)


def ts(text: str) -> TScalar:
    return parse_tscalar(text)


rationals = st.fractions(
    min_value=-(2**32), max_value=2**32, max_denominator=2**16
).map(lambda f: Rational(f.numerator, f.denominator))


@st.composite
def laurents(draw, allow_zero=True):
    size = draw(st.integers(min_value=0 if allow_zero else 1, max_value=4))
    exps = draw(st.lists(st.integers(-8, 8), min_size=size, max_size=size, unique=True))
    coeffs = draw(st.lists(rationals, min_size=size, max_size=size))
    return TLaurent({e: c for e, c in zip(exps, coeffs)})


@st.composite
def tscalars(draw):
    num = draw(laurents())
    den = draw(laurents(allow_zero=False))
    if den.is_zero():
        den = TLaurent.one()
    return TScalar(num, den)


def sympy_expr(sympy, value: TLaurent):
    """The Laurent polynomial as a sympy expression in t, for sympy as the independent reference."""
    t = sympy.Symbol("t")
    return sum((sympy.Rational(int(v.numerator), int(v.denominator)) * t**k
                for k, v in value.terms.items()), sympy.Integer(0))


# --- rationals -------------------------------------------------------------------

def test_rational_formatting():
    assert str(rat(3)) == "3"
    assert str(rat(-1, 3)) == "-1/3"
    assert str(rat(4, 8)) == "1/2"


def _exact(value) -> bool:
    """An int or a backend Rational: never a bool or a float."""
    return type(value) is int or type(value) is Rational


@given(st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30).filter(bool), st.booleans())
@example(0, 1, False)
@example(6, -3, False)
@example(-3, -4, False)
@example(2**70, 2**69, False)
def test_rat_is_an_int_exactly_when_the_denominator_divides(n, d, multiple):
    if multiple:  # half the draws divide
        n *= d
    value = rat(n, d)
    assert _exact(value)
    assert (type(value) is int) == (n % d == 0)
    assert value == Rational(n, d) and hash(value) == hash(Rational(n, d))
    if type(value) is Rational:  # in lowest terms over a positive denominator
        assert value.denominator > 1 and str(value) == str(Rational(n, d))


@given(st.fractions(), st.integers(-50, 50).filter(bool))
@example(Fraction(4, 2), 1)
@example(Fraction(1, 2), 2)
def test_rat_of_a_rational_keeps_its_value(f, d):
    value = Rational(f.numerator, f.denominator)
    for exact, expected in ((rat(value), value), (rat(value, d), value / d)):
        assert _exact(exact)
        assert (type(exact) is int) == (expected.denominator == 1)
        assert exact == expected and hash(exact) == hash(expected)


@pytest.mark.parametrize("args", [(True,), (False,), (True, 2), (Rational(6, 3),), ("5/10",)])
def test_rat_never_returns_a_bool(args):
    value = rat(*args)
    assert _exact(value) and value == Rational(*args)


def test_an_integral_sum_or_scale_acts_as_its_int():
    # + and scale do not pass through rat, so an integral value can stay a backend rational
    half = parse_boson("(1/2)*p1")
    for whole in (half + half, half.scale(2)):
        (c,) = whole.terms.values()
        assert type(c) is Rational
        assert c == 1 and hash(c) == hash(1) and format_rational(c) == "1"
        assert whole == power_sum((1,)) and str(whole) == "p1"


def test_rat_refuses_a_float():
    for args in [(0.5,), (1, 2.0), (1.0, 3)]:
        with pytest.raises(TypeError, match="^a float is not an exact coefficient"):
            rat(*args)
    with pytest.raises(TypeError):
        power_sum(()).scale(1 / 3)  # every _coerce is rat


def test_rat_refuses_a_zero_denominator():
    for n in (0, 1, -3):
        with pytest.raises(ZeroDivisionError):
            rat(n, 0)


# --- no word of operators makes a float coefficient ---------------------------------

def _coefficients(value):
    """The rational coefficients of a value, down through Laurent and Q(t) values."""
    if isinstance(value, TScalar):
        yield from _coefficients(value.num)
        yield from _coefficients(value.den)
    else:
        for c in value.terms.values():
            yield from _coefficients(c) if isinstance(c, (TLaurent, TScalar)) else [c]


exact_numbers = st.one_of(st.integers(-5, 5), rationals)
indices = st.integers(-2, 2)
small_shapes = st.integers(0, 3).flatmap(lambda n: st.sampled_from(partitions_of(n)))


def _sum_of(draw, terms):
    """The sum of 1 to 3 drawn terms."""
    parts = [draw(terms) for _ in range(draw(st.integers(1, 3)))]
    return sum(parts[1:], parts[0])


def _state(draw):
    return _sum_of(draw, st.builds(lambda m, shape, c: basis_state(m, shape).scale(c),
                                   st.integers(-1, 1), small_shapes, exact_numbers))


def _polynomial(draw):
    return _sum_of(draw, st.builds(lambda shape, c: power_sum(shape).scale(c), small_shapes, exact_numbers))


def _graded_class(draw, n):
    """A fixed-point class of size n: a sum of c * t^n * 1_shape."""
    return _sum_of(draw, st.builds(lambda shape, c: QuiverClass.graded_unit(shape).scale(TLaurent.term(c)),
                                   st.sampled_from(partitions_of(n)), exact_numbers))


def _schur_terms(draw):
    return [((0, draw(small_shapes)), draw(exact_numbers)) for _ in range(draw(st.integers(1, 3)))]


_WORD_OPS = {  # value type -> {operator: (value, draw) -> value}
    FermionState: {
        "psi": lambda s, draw: psi(draw(indices), s),
        "psi_star": lambda s, draw: psi_star(draw(indices), s),
        "alpha": lambda s, draw: alpha(draw(indices), s),
        "gl_action": lambda s, draw: gl_action(GlMatrix({(draw(indices), draw(indices)): draw(exact_numbers)}), s),
        "+": lambda s, draw: s + _state(draw),
        "-": lambda s, draw: s - _state(draw),
        "scale": lambda s, draw: s.scale(draw(exact_numbers)),
        "sigma": lambda s, draw: sigma(s),
    },
    BosonPolynomial: {
        "oscillator": lambda f, draw: oscillator(draw(indices), f),
        "+": lambda f, draw: f + _polynomial(draw),
        "-": lambda f, draw: f - _polynomial(draw),
        "scale": lambda f, draw: f.scale(draw(exact_numbers)),
        "*": lambda f, draw: f * _polynomial(draw),
        "/": lambda f, draw: f / BosonPolynomial.constant(draw(exact_numbers.filter(bool))),
        "from_schur": lambda f, draw: f + from_schur(_schur_terms(draw)),
    },
    QuiverClass: {
        "+": lambda c, draw: c + _graded_class(draw, c.homogeneous_size()),
        "scale": lambda c, draw: c.scale(draw(exact_numbers)),
        "/": lambda c, draw: c / TLaurent.term(draw(exact_numbers.filter(bool))),
        "eta": lambda c, draw: eta(c),
    },
    LocalizedClass: {
        "+": lambda beta, draw: beta + eta(_graded_class(draw, beta.n), beta.n),
        "scale": lambda beta, draw: beta.scale(draw(exact_numbers)),
        "phi": lambda beta, draw: phi(beta),
    },
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_no_word_of_operators_makes_a_float_coefficient(data):
    draw = data.draw
    value = draw(st.sampled_from([_state, _polynomial, lambda d: _graded_class(d, d(st.integers(0, 3)))]))(draw)
    for _ in range(draw(st.integers(1, 5))):
        if value.is_zero():
            break  # a zero class forgets its size
        name = draw(st.sampled_from(sorted(_WORD_OPS[type(value)])))
        value = _WORD_OPS[type(value)][name](value, draw)
        assert all(map(_exact, _coefficients(value))), (name, value)


# --- Laurent arithmetic ------------------------------------------------------------

def test_laurent_basics():
    t = TLaurent.t()
    assert (t * TLaurent.t(-1)) == TLaurent.one()
    assert (TLaurent.term(-1, 2) + TLaurent.term(1, 2)).is_zero()
    assert TLaurent.term(3, 2).shift(-2) == TLaurent.term(3)


def test_laurent_negative_powers_invert_only_nonzero_rationals():
    assert TLaurent.term(-3) ** -2 == TLaurent.term(rat(1, 9))
    assert type((TLaurent.term(rat(1, 2)) ** -1).terms[0]) is int  # 2, through rat
    for value in (TLaurent.zero(), TLaurent.t(), TLaurent({0: 1, 1: 1})):
        with pytest.raises(ValueError, match="divides only by a nonzero rational"):
            value ** -1


def test_laurent_format():
    assert str(TLaurent.term(-9, 6)) == "-9*t^6"
    assert str(TLaurent({1: rat(1), -1: rat(1)})) == "t + t^-1"
    assert str(TLaurent({2: rat(1), 0: rat(-1)})) == "t^2 - 1"
    assert str(TLaurent.zero()) == "0"
    assert str(TLaurent.t()) == "t"


# --- field arithmetic ---------------------------------------------------------------

def test_scalar_examples():
    assert ts("t") * ts("t^-1") == TScalar.one()
    assert ts("-t^2") + ts("t^2") == TScalar.zero()
    n, h = 3, 3
    num = TScalar.monomial(h, n) ** 2
    den = TScalar.monomial((-1) ** n * h * h, 2 * n)
    assert num / den == TScalar.monomial(-1)


def test_monomial_examples():
    assert TScalar.monomial(1, 0) == TScalar.one()
    assert str(TScalar.monomial(-1, -1)) == "-t^-1"
    assert str(TScalar.monomial(-9, 6)) == "-9*t^6"


def test_polynomial_predicates():
    value = ts("(t^2 + 1) / t")
    assert value == ts("t + t^-1")


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ts("1") / TScalar.zero()
    with pytest.raises(ZeroDivisionError):
        TScalar(TLaurent.one(), TLaurent.zero())


def test_gcd_cancellation():
    # (t^2 - 1)/(t - 1) reduces to t + 1
    num = TLaurent({2: rat(1), 0: rat(-1)})
    den = TLaurent({1: rat(1), 0: rat(-1)})
    assert TScalar(num, den) == ts("t + 1")
    # denominators are monic with nonzero constant term
    value = TScalar(TLaurent.one(), TLaurent({3: rat(2), 1: rat(2)}))
    assert value == ts("1 / (2*t^3 + 2*t)")
    assert 0 in value.den.terms
    assert value.den.terms[value.den.max_exp()] == 1


# A quotient of two Laurent polynomials by a one-term divisor c*t^e skips the
# gcd; it must still be the canonical form, which sympy computes independently.

@given(laurents(), rationals.filter(bool), st.integers(-8, 8))
def test_division_by_a_monomial_is_canonical(a, c, e):
    dividend, divisor = TScalar(a), TScalar.monomial(c, e)
    quotient = dividend / divisor
    canonical = TScalar(a, TLaurent.term(c, e))
    assert (quotient.num, quotient.den) == (canonical.num, canonical.den)
    assert quotient.is_laurent() and quotient * divisor == dividend


@settings(max_examples=60, deadline=None)
@given(laurents(), rationals.filter(bool), st.integers(-8, 8))
def test_division_by_a_monomial_matches_sympy(a, c, e):
    sympy = pytest.importorskip("sympy")
    quotient = TScalar(a) / TScalar.monomial(c, e)
    assert quotient.is_laurent()
    expected = sympy.cancel(sympy_expr(sympy, a) / sympy_expr(sympy, TLaurent.term(c, e)))
    assert sympy.expand(expected - sympy_expr(sympy, quotient.num)) == 0


@settings(deadline=None)
@given(tscalars(), tscalars())
def test_quotient_times_divisor_is_the_dividend(a, b):
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=1000, deadline=None)
@given(tscalars(), tscalars(), tscalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == TScalar.zero()
    if not a.is_zero():
        assert a / a == TScalar.one()
        assert (TScalar.one() / a) * a == TScalar.one()


@given(tscalars())
def test_canonical_form_idempotent(value):
    again = TScalar(value.num, value.den)
    assert again.num == value.num and again.den == value.den


@given(tscalars())
def test_scalar_parse_round_trip(value):
    assert parse_tscalar(str(value)) == value


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_tscalar("t +")
    with pytest.raises(ValueError):
        parse_tscalar("x")
    with pytest.raises(ValueError):
        parse_tlaurent("1 / (t + 1)")


# --- the modular gcd ---------------------------------------------------------------

P = 2**31 - 1  # the first prime of the modular gcd


def times(x: list[int], y: list[int]) -> list[int]:
    """The product of two integer coefficient lists."""
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return out


def test_primes_run_down_from_two_to_the_31_minus_one():
    primes = list(islice(_primes(), 3))
    assert primes[0] == P
    by_trial_division = [
        n for n in range(P, primes[-1] - 1, -1) if all(n % d for d in range(2, isqrt(n) + 1))
    ]
    assert by_trial_division == primes


def test_an_unlucky_image_is_passed_over():
    # modulo P the image of gcd(t + 1, t + 1 + P) is t + 1; the next image is 1
    assert str(ts(f"(t + 1) / (t + {1 + P})")) == f"(t + 1) / (t + {1 + P})"
    # the image t + 2 modulo P is right; modulo the next prime q the image
    # (t + 1)(t + 2) has a higher degree and must not enter the lift
    q = list(islice(_primes(), 2))[1]
    value = ts(f"(t + 1)*(t + 2) / ((t + {1 + q})*(t + 2))")
    assert str(value) == f"(t + 1) / (t + {1 + q})"


def test_a_prime_dividing_both_leading_coefficients_is_skipped():
    # modulo P the common factor P*t + 1 is 1 and the images t + 2, t + 3 are
    # coprime: an image there would certify a gcd of 1
    assert str(ts(f"({P}*t + 1)*(t + 2) / (({P}*t + 1)*(t + 3))")) == "(t + 2) / (t + 3)"
    assert _cofactors([2, 2 * P + 1, P], [3, 3 * P + 1, P]) == ([2, 1], [3, 1])


def test_a_common_factor_with_large_coefficients_takes_several_primes():
    # a lift above 2^93 needs a modulus above 2^94: at least four primes
    h = f"({2**95 + 1}*t^2 - {3**60}*t + {2**94 + 7})"
    assert str(ts(f"(t - 1)*{h} / ((2*t + 1)*{h})")) == "(1/2*t - 1/2) / (t + 1/2)"
    h = [2**94 + 7, -(3**60), 2**95 + 1]
    assert _cofactors(times(h, [-1, 1]), times(h, [1, 2])) == ([-1, 1], [1, 2])


def test_primes_past_the_cached_list_serve_uncached():
    # a lift above 2^2500 takes more than MAX_CACHED_PRIMES primes of 31 bits
    h = [2**2500 + 1, 1]
    assert _cofactors(times(h, [1, 1]), times(h, [-2, 1])) == ([1, 1], [-2, 1])
    assert _prime_below.cache_info().currsize == MAX_CACHED_PRIMES


def test_a_long_walk_keeps_the_leading_steps_memoised():
    h = [2**2500 + 1, 1]
    a, b = times(h, [1, 1]), times(h, [-2, 1])
    _prime_below.cache_clear()
    _cofactors(a, b)
    misses = _prime_below.cache_info().misses
    assert misses == MAX_CACHED_PRIMES
    assert _cofactors(a, b) == ([1, 1], [-2, 1])
    assert _prime_below.cache_info().misses == misses


def test_interleaved_prime_walks_do_not_disturb_each_other():
    _prime_below.cache_clear()
    lone = list(islice(_primes(), 5))
    assert lone == sorted(set(lone), reverse=True)
    _prime_below.cache_clear()
    g1, g2 = _primes(), _primes()
    walked1 = list(islice(g1, 1))
    walked2 = list(islice(g2, 2))
    walked1 += islice(g1, 2)
    assert walked1 == lone[:3] and walked2 == lone[:2]
    # the 2^94-coefficient case needs at least four primes
    h = [2**94 + 7, -(3**60), 2**95 + 1]
    assert _cofactors(times(h, [-1, 1]), times(h, [1, 2])) == ([-1, 1], [1, 2])


def test_concurrent_cold_gcds_agree():
    h = [2**2500 + 1, 1]
    a, b = times(h, [1, 1]), times(h, [-2, 1])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _prime_below.cache_clear()
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(lambda _: _cofactors(a, b), range(4)))
            assert results == [([1, 1], [-2, 1])] * 4
    finally:
        sys.setswitchinterval(interval)


def test_signs_and_constants():
    # gcds with negative coefficients, and negative leading coefficients
    assert _cofactors(times([-1, 1], [2, 1]), times([-1, 1], [3, 1])) == ([2, 1], [3, 1])
    # g = t - 2 has a positive leading coefficient, so the cofactors change sign
    assert _cofactors(times([2, -1], [5, 1]), times([2, -1], [7, -1])) == ([-5, -1], [-7, 1])
    assert str(ts("(2 - t)*(t + 5) / ((2 - t)*(t + 7))")) == "(t + 5) / (t + 7)"
    assert str(ts("(t^2 - 1) / (1 - t)")) == "-t - 1"
    assert str(ts("(-t^2 + 3*t - 2) / (-2*t^2 + 2)")) == "(1/2*t - 1) / (t + 1)"
    # a constant numerator, and a constant input to the gcd
    assert str(ts("3 / (-2*t - 4)")) == "-3/2 / (t + 2)"
    assert str(ts("-5*t^3 / (t^2 + 1)")) == "-5*t^3 / (t^2 + 1)"
    assert _cofactors([-1], [1, 0, 1]) == ([-1], [1, 0, 1])
    assert _cofactors([1, 0, 1], [3]) == ([1, 0, 1], [3])
    # a constant denominator never reaches the gcd
    assert str(ts("(-t^2 - 1) / 5")) == "-1/5*t^2 - 1/5"


@settings(max_examples=60, deadline=None)
@given(*[laurents(allow_zero=False).filter(bool)] * 3)
def test_a_common_factor_cancels_as_in_sympy(f, g, h):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    value = TScalar(f * h, g * h)
    assert value == TScalar(f, g)
    # sympy's reduced p / q is ours times a unit c * t^k that makes q monic
    p, q = sympy.fraction(sympy.cancel(sympy_expr(sympy, f * h) / sympy_expr(sympy, g * h)))
    q = sympy.Poly(q, t)
    unit = q.LC() * t ** min(exponent for (exponent,) in q.monoms())
    assert sympy.expand(q.as_expr() / unit - sympy_expr(sympy, value.den)) == 0
    assert sympy.expand(p / unit - sympy_expr(sympy, value.num)) == 0


# --- the two exact-sum kernels ---------------------------------------------------

sparse = st.dictionaries(st.integers(0, 8), rationals.filter(bool), max_size=6)


@given(sparse, sparse, st.dictionaries(st.integers(0, 8), st.integers(-5, 5)))
@example({}, {}, {})
@example({1: Rational(1, 2)}, {}, {})
@example({}, {2: Rational(3)}, {})
@example({1: Rational(1, 2), 3: Rational(-2)}, {2: Rational(3), 4: Rational(1, 7)}, {})
def test_pairing_is_the_weighted_sum_over_shared_keys(f, g, weights):
    read = []

    def weight(key):
        read.append(key)
        return weights.get(key, 1)

    def over_lcd(terms: dict) -> tuple[int, dict]:
        common, numerators = integer_numerators(terms.values())
        return common, dict(zip(terms, numerators))

    direct = sum((f[key] * g[key] * weights.get(key, 1) for key in f.keys() & g.keys()), Rational(0))
    assert pairing(over_lcd(f), over_lcd(g), weight) == direct
    assert sorted(read) == sorted(f.keys() & g.keys())
    assert pairing(over_lcd(g), over_lcd(f), weight) == direct
    # the rational terms themselves, over 1, as the sparse values pair
    assert pairing((1, f), (1, g), weight) == direct


@given(st.lists(rationals, max_size=8))
def test_integer_numerators_share_the_least_common_denominator(coeffs):
    common, numerators = integer_numerators(coeffs)
    assert common == lcm(*(int(c.denominator) for c in coeffs))
    assert all(type(a) is int and Rational(a, common) == c for a, c in zip(numerators, coeffs))
    assert len(numerators) == len(coeffs)


@given(st.integers(1, 720), st.lists(st.integers(-10**6, 10**6), max_size=8))
@example(1, [])
@example(6, [0, 0])
@example(36, [18, 18, 0, -12])
def test_integer_row_is_over_the_least_common_denominator(common, numerators):
    reduced, row = integer_row(common, numerators)
    assert reduced == lcm(*(Rational(a, common).denominator for a in numerators))
    assert all(type(a) is int and Rational(a, reduced) == Rational(b, common) for a, b in zip(row, numerators))
    assert len(row) == len(numerators)


@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-5, 5)), max_size=8),
       st.integers(1, 12), st.integers(1, 12))
@example([(1, 2, 1), (0, 5, 2), (3, 1, 3)], 2, 3)
def test_pairing_of_dense_rows_is_the_weighted_dot_product(entries, common_f, common_g):
    f, g, weights = ([entry[i] for entry in entries] for i in range(3))
    direct = sum((Rational(x * y * w, common_f * common_g) for x, y, w in entries), Rational(0))
    assert pairing((common_f, f), (common_g, g), weights.__getitem__) == direct


def test_only_scalars_clears_denominators():
    """Every lcm of denominators goes through integer_numerators."""
    package = Path(bosonfermion.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py")) if path.name != "scalars.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\blcm\(|\.denominator\b", line)
    ]
    assert offenders == []


def test_only_linear_writes_the_integer_block():
    """A value's _block is written by linear.BlockCombination alone, when it
    builds the value: no other module stores to the attribute or names it
    in a string (as setattr would)."""
    package = Path(bosonfermion.__file__).parent
    writes = {
        path.name: [
            node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "_block" and isinstance(node.ctx, ast.Store)
            or isinstance(node, ast.Constant) and node.value == "_block"
        ]
        for path in sorted(package.glob("*.py"))
    }
    assert writes.pop("linear.py")
    assert {name: lines for name, lines in writes.items() if lines} == {}
