import importlib
import inspect
import pkgutil

import bosonfermion
from bosonfermion.fermion import FermionState, basis_state
from bosonfermion.linear import LinearCombination, accumulate, power
from bosonfermion.partitions import Partition
from bosonfermion.scalars import TLaurent, TScalar, parse_tscalar, rat


def test_accumulate_sums_and_drops_zeros():
    assert accumulate([("a", rat(1)), ("b", rat(2)), ("a", rat(-1)), ("c", rat(0))]) == {"b": 2}
    into = {"a": rat(1)}
    assert accumulate([("a", rat(-1))], into) is into and into == {}
    t = TLaurent.t()
    assert accumulate([(1, t), (1, -t), (2, TLaurent.zero())]) == {}


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
