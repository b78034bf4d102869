"""Guard of the exported surface: each name bosonfermion/__init__.py exports is
reached from the CLI, from verify or from a code span of README, or is listed
below with the reason it stays exported.  Each public method of an exported
package class is reached, or is listed below with its reason: an instance
method is called as .name somewhere in the package or named in README, and a
classmethod or staticmethod is named as Class.name there, for its class or a
package subclass of it."""

import ast
import re
from pathlib import Path
from types import FunctionType

import bosonfermion

PACKAGE = Path(bosonfermion.__file__).parent
README = PACKAGE.parents[1] / "README.md"
READERS = [PACKAGE / "cli.py", PACKAGE / "verify.py"]

# Exported names that cli.py, verify.py and README's code spans do not name, each with its reason.
KEPT_FOR_LIBRARY_USE = {
    "ChargedMonomial": "the (charge, partition) key of every FermionState term",
    "NonDivisibleCoefficient": "what hecke_e raises when a coefficient leaves Q[t]; callers catch it by name",
    "parse_tscalar": "reads the Q(t) restriction values a LocalizedClass is built from",
}

# Public methods (Class.method) that no package code calls and README does not name, each with its reason.
METHODS_KEPT_FOR_LIBRARY_USE = {
    "BosonPolynomial.from_json": "perfbench/workloads._check re-reads the --json output of the boson commands",
    "FermionState.from_json": "perfbench/workloads._check re-reads the --json output of the fermion commands",
    "QuiverClass.from_json": "perfbench/workloads._check re-reads the --json output of the fixed-point commands",
    "BosonPolynomial.one": "linear.power starts from base.one(), the unit of the product",
    "GlMatrix.zero": "inherited from LinearCombination, the zero of every combination",
}


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _reached(name: str) -> bool:
    """Named in cli.py or verify.py, or in a fenced block or inline code span
    of README; README prose can use a name as a plain word."""
    spans = re.findall(r"```.*?```|`[^`]+`", README.read_text(), re.S)
    text = "\n".join([*(path.read_text() for path in READERS), *spans])
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def test_every_exported_name_is_reached_or_has_a_reason():
    exported = _exported()
    assert all(hasattr(bosonfermion, name) for name in exported)
    unlisted = [name for name in exported if not _reached(name) and name not in KEPT_FOR_LIBRARY_USE]
    assert unlisted == [], "exported but neither reached nor listed with a reason"


def test_the_guard_table_lists_only_unreached_exports():
    exported = set(_exported())
    for name in KEPT_FOR_LIBRARY_USE:
        assert name in exported, f"{name} is not exported"
        assert not _reached(name), f"{name} is reached; drop it from the table"


def _public_methods() -> dict[str, bool]:
    """{Class.method: whether it is bound to the class} for each public method
    that an exported package class defines or inherits from a package class;
    a classmethod or staticmethod is bound to the class, an instance method is not."""
    methods = {}
    for name in _exported():
        cls = getattr(bosonfermion, name)
        if not isinstance(cls, type) or not cls.__module__.startswith("bosonfermion"):
            continue
        own = {attr: isinstance(value, (classmethod, staticmethod))
               for base in reversed(cls.__mro__) if base.__module__.startswith("bosonfermion")
               for attr, value in vars(base).items()
               if not attr.startswith("_") and isinstance(value, (FunctionType, classmethod, staticmethod))}
        methods.update((f"{name}.{attr}", own[attr]) for attr in sorted(own))
    return methods


def _package_subclasses(cls: type) -> list[type]:
    """cls and every class of the package derived from it."""
    found = [cls]
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("bosonfermion"):
            found += _package_subclasses(sub)
    return found


def _method_reached(method: str, of_class: bool) -> bool:
    """An instance method is reached when .name appears in package code or
    name in README; a classmethod or staticmethod only when Class.name does,
    for its class or a package subclass of it."""
    owner, _, attr = method.rpartition(".")
    code, readme = "\n".join(path.read_text() for path in PACKAGE.glob("*.py")), README.read_text()
    if not of_class:
        return re.search(rf"\.{attr}\b", code) is not None or re.search(rf"\b{attr}\b", readme) is not None
    names = "|".join(cls.__name__ for cls in _package_subclasses(getattr(bosonfermion, owner)))
    return re.search(rf"\b(?:{names})\.{attr}\b", f"{code}\n{readme}") is not None


def test_every_public_method_is_called_or_has_a_reason():
    unlisted = [m for m, of_class in _public_methods().items()
                if not _method_reached(m, of_class) and m not in METHODS_KEPT_FOR_LIBRARY_USE]
    assert unlisted == [], "public but neither called nor listed with a reason"


def test_the_method_table_lists_only_uncalled_methods():
    methods = _public_methods()
    for method in METHODS_KEPT_FOR_LIBRARY_USE:
        assert method in methods, f"{method} is not a public method of an exported class"
        assert not _method_reached(method, methods[method]), f"{method} is called; drop it from the table"
