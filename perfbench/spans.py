"""Span recorder for the traced benchmark run.

Untraced runs never import this module.  A traced child process calls
``instrument`` once after importing the package: it wraps each listed public
function at every place the package binds it (module globals, and dicts of
operators such as ``cli._FERMION_OPS``), because ``geometry``, ``verify`` and
``correspondence`` import ``schur``, ``psi`` and the others by name and a
wrapper on the defining module alone would miss most calls.

Spans are kept in memory as flat arrays (name, parent, start, end) and reduced
to per-layer totals once, at the end of the run.  A span's self time is its
duration minus the durations of its direct children; spans nest strictly
because the package is single-threaded.
"""

import functools
import time
from array import array

# (span name, module, attribute).  Several functions may share one span name;
# a call into a span name from inside a span of the same name is folded into
# the outer span, so ``calls`` counts entries into the layer from outside it.
TARGETS = [
    ("scalars.tscalar_new", "scalars", "TScalar.__init__"),
    *[("partitions", "partitions", name) for name in (
        "parse_partition", "boxes", "residue", "arm", "leg", "hook", "hook_product",
        "dimension_vector", "z_factor", "addable_corners", "removable_corners",
        "addable_boxes", "removable_boxes", "add_box", "remove_box", "cartan_apply",
        "monomial_indices", "shape_from_indices", "partitions_of", "partitions_up_to",
    )],
    ("boson.schur", "boson", "schur"),
    ("boson.schur", "boson", "schur_jacobi_trudi"),
    ("boson.schur_expand", "boson", "schur_expand"),
    ("boson.oscillator", "boson", "oscillator"),
    ("boson.hall_form", "boson", "hall_form"),
    ("fermion.psi", "fermion", "psi"),
    ("fermion.psi", "fermion", "psi_star"),
    ("fermion.alpha", "fermion", "alpha"),
    ("fermion.gl_action", "fermion", "gl_action"),
    ("fermion.gl_action", "fermion", "chevalley_e"),
    ("fermion.gl_action", "fermion", "chevalley_f"),
    ("fermion.hermitian_form", "fermion", "hermitian_form"),
    ("geometry.geometric_boson", "geometry", "geometric_boson"),
    ("geometry.hecke", "geometry", "hecke_e"),
    ("geometry.hecke", "geometry", "hecke_f"),
    ("geometry.phi", "geometry", "phi"),
    ("geometry.phi", "geometry", "phi_inverse"),
    ("geometry.eta", "geometry", "tau"),
    ("geometry.eta", "geometry", "eta"),
    ("geometry.eta", "geometry", "eta_inverse"),
    ("geometry.bilinear_form", "geometry", "bilinear_form"),
    ("geometry.normalized_class", "geometry", "normalized_class"),
    ("correspondence.sigma", "correspondence", "sigma"),
    ("correspondence.sigma", "correspondence", "sigma_inverse"),
    ("cli.build_parser", "cli", "build_parser"),
    *[("cli.parse", module, name) for module, name in (
        ("scalars", "parse_tscalar"), ("scalars", "parse_tlaurent"),
        ("boson", "parse_boson"), ("fermion", "parse_fermion"), ("geometry", "parse_quiver"),
    )],
    *[("cli.format", module, name) for module, name in (
        ("scalars", "format_tlaurent"), ("boson", "format_boson"),
        ("fermion", "format_fermion"), ("geometry", "format_quiver"),
    )],
]

# The memo tables read through cache_info(); a table a later version deletes
# reads as empty.
CACHES = [
    ("partitions", "hook_product"),
    ("partitions", "partitions_of"),
    ("boson", "elementary_schur"),
    ("boson", "schur_jacobi_trudi"),
    ("boson", "_mono_schur_index"),
    ("fermion", "_unit_action"),
    ("fermion", "_alpha_moves"),
    ("geometry", "euler_class"),
    ("geometry", "normalized_class"),
    ("geometry", "_boson_on_basis"),
]

SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in TARGETS))


class SpanRecorder:
    """Records nested spans in memory; ``paused`` stops recording."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.paused = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        span_id = self._id(name)
        stack = self._stack
        name_ids = self.name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused or (stack and name_ids[stack[-1]] == span_id):
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        return span_totals(self.names, self.name_id, self.parent, self.start, self.end)


def span_totals(names, name_id, parent, start, end) -> dict[str, dict[str, float]]:
    """Per span name: number of spans and summed self time."""
    count = len(start)
    child_time = [0.0] * count
    for i in range(count):
        if parent[i] >= 0:
            child_time[parent[i]] += end[i] - start[i]
    out = {name: {"calls": 0, "self_s": 0.0} for name in names}
    for i in range(count):
        row = out[names[name_id[i]]]
        row["calls"] += 1
        row["self_s"] += end[i] - start[i] - child_time[i]
    return out


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    return owner, attr, getattr(owner, attr, None)


def instrument(recorder: SpanRecorder, package) -> None:
    """Wrap every TARGETS function at each of its bindings.  Functions missing
    from the package are skipped."""
    modules = [package] + [getattr(package, name) for name in
                           ("scalars", "partitions", "boson", "fermion", "geometry",
                            "correspondence", "verify", "cli")]
    for span, module_name, dotted in TARGETS:
        owner, attr, original = _resolve(getattr(package, module_name), dotted)
        if original is None:
            continue
        wrapped = recorder.wrap(span, original)
        if "." in dotted:  # a method: its class is its only binding
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                elif isinstance(value, dict):
                    for dict_key, item in list(value.items()):
                        if item is original:
                            value[dict_key] = wrapped


def cache_stats(package) -> dict[str, dict[str, float]]:
    """hit ratio and entry count of each memo table (0 and 0 when absent)."""
    out = {}
    for module_name, attr in CACHES:
        table = getattr(getattr(package, module_name), attr, None)
        while table is not None and not hasattr(table, "cache_info"):
            table = getattr(table, "__wrapped__", None)  # under a span wrapper
        hits = misses = entries = 0
        if table is not None:
            info = table.cache_info()
            hits, misses, entries = info.hits, info.misses, info.currsize
        lookups = hits + misses
        out[f"{module_name}.{attr}"] = {
            "hit_ratio": hits / lookups if lookups else 0.0,
            "entries": entries,
        }
    return out
