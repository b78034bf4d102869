import importlib
import inspect
import pkgutil

import pytest

import bosonfermion
from bosonfermion.boson import BosonPolynomial, power_sum
from bosonfermion.fermion import FermionState, alpha, basis_state, psi, psi_star
from bosonfermion.geometry import (
    LocalizedClass,
    QuiverClass,
    fundamental_class,
    hecke_e,
    hecke_f,
    normalized_class,
)
from bosonfermion.linear import LazyTerms, LinearCombination, accumulate, power
from bosonfermion.partitions import Partition
from bosonfermion.scalars import TLaurent, TScalar, parse_tscalar, rat


def test_accumulate_sums_and_drops_zeros():
    assert accumulate([("a", rat(1)), ("b", rat(2)), ("a", rat(-1)), ("c", rat(0))]) == {"b": 2}
    into = {"a": rat(1)}
    assert accumulate([("a", rat(-1))], into) is into and into == {}
    t = TLaurent.t()
    assert accumulate([(1, t), (1, -t), (2, TLaurent.zero())]) == {}


def test_lazy_terms_build_their_dict_once_on_first_read():
    built = []

    def build(source):
        built.append(source)
        return {key: rat(1) for key in source}

    terms = LazyTerms(build, "ab")
    assert built == []
    assert terms == {"a": 1, "b": 1} and {"a": 1, "b": 1} == terms
    assert "a" in terms and "c" not in terms and terms.get("c") is None and terms["b"] == 1
    assert len(terms) == 2 and sorted(terms) == ["a", "b"] and dict(terms.items()) == {"a": 1, "b": 1}
    assert built == ["ab"]
    with pytest.raises(TypeError):
        terms["c"] = rat(1)


def test_zero_test_is_truthiness():
    assert not TLaurent.zero() and TLaurent.t()
    assert not TScalar.zero() and TScalar.one()


def test_power_by_squaring_matches_repeated_products():
    x = TLaurent({0: rat(1), 1: rat(2)})
    product = TLaurent.one()
    for n in range(9):
        assert x**n == power(x, n) == product
        product = product * x
    assert parse_tscalar("(t + 1)^-2") == TScalar.one() / (parse_tscalar("t + 1") * parse_tscalar("t + 1"))


def test_trusted_constructor_adopts_the_dict():
    terms = {(0, Partition((1,))): rat(3)}
    state = FermionState._make(terms)
    assert state.terms is terms
    assert state == basis_state(0, Partition((1,))).scale(3)
    assert FermionState({(0, Partition()): 0}).is_zero()


def test_only_linear_combinations_are_sparse():
    """Every class of the package with its own + sums on the one base; TScalar
    is a field element, not a sparse vector."""
    modules = [importlib.import_module(f"bosonfermion.{info.name}")
               for info in pkgutil.iter_modules(bosonfermion.__path__)]
    offenders = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and "__add__" in vars(cls)
        and not issubclass(cls, LinearCombination) and cls is not TScalar
    ]
    assert offenders == []


def _values_and_zeros():
    """(nonzero value, zero of its type) for each sparse type the sweeps add."""
    shape = Partition((2, 1))
    return [
        (basis_state(1, shape).scale(rat(1, 2)) + basis_state(1, Partition((3,))), FermionState.zero()),
        (power_sum(shape) + power_sum(Partition((3,))).scale(2), BosonPolynomial.zero()),
        (QuiverClass.graded_unit(shape) + QuiverClass.unit(Partition((3,))), QuiverClass.zero()),
        (normalized_class(shape) + fundamental_class(Partition((3,))), LocalizedClass.zero(3)),
        (TLaurent({-1: rat(2), 3: rat(1, 3)}), TLaurent.zero()),
    ]


@pytest.mark.parametrize("x, z", _values_and_zeros(), ids=lambda value: type(value).__name__)
def test_a_zero_operand_changes_no_value(x, z):
    assert z.is_zero() and not x.is_zero()
    assert x + z == x and z + x == x
    assert x - z == x and z - x == -x
    assert -z == z and (-z).is_zero()
    assert z.scale(rat(3)) == z and z.scale(0) == z
    assert type(x + z) is type(z + x) is type(-z) is type(x)


def test_the_sweep_operators_send_a_zero_to_a_zero_of_its_type():
    state, quiver = FermionState.zero(), QuiverClass.zero()
    for j in (-2, 0, 3):
        for image in (psi(j, state), psi_star(j, state), alpha(j, state)):
            assert type(image) is FermionState and image.is_zero()
        for image in (hecke_e(j, quiver), hecke_f(j, quiver)):
            assert type(image) is QuiverClass and image.is_zero()


def test_adding_zeros_on_different_spaces_still_raises():
    with pytest.raises(ValueError, match="different spaces"):
        LocalizedClass.zero(2) + LocalizedClass.zero(3)
    with pytest.raises(ValueError, match="different spaces"):
        LocalizedClass.zero(2) - LocalizedClass.zero(3)
    with pytest.raises(ValueError, match="different spaces"):
        normalized_class(Partition((2,))) + LocalizedClass.zero(3)
