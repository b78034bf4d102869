"""Guard of the exported surface: each name bosonfermion/__init__.py exports is
reached from the CLI, from verify or from README, or is listed below with the
reason it stays exported."""

import ast
import re
from pathlib import Path

import bosonfermion

PACKAGE = Path(bosonfermion.__file__).parent
READERS = [PACKAGE / "cli.py", PACKAGE / "verify.py", PACKAGE.parents[1] / "README.md"]

# Exported names that cli.py, verify.py and README.md do not name, each with its reason.
KEPT_FOR_LIBRARY_USE = {
    "ChargedMonomial": "the (charge, partition) key of every FermionState term",
    "NonDivisibleCoefficient": "what hecke_e raises when a coefficient leaves Q[t]; callers catch it by name",
    "parse_tscalar": "reads the Q(t) restriction values a LocalizedClass is built from",
}


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _reached(name: str) -> bool:
    text = "\n".join(path.read_text() for path in READERS)
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
