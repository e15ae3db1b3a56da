"""Spans around the public functions of each eqdeg layer, from outside.

The package has no tracing of its own, so `install` replaces each listed
function, in every eqdeg module that holds a reference to it (modules
import names with `from .x import f`), by a wrapper that records a span.
Spans are recorded only while a request is open, so the benchmark's own
output checks between requests leave no trace.

A span is [layer, start, end, parent span index, request id, group order
or None]; only lattice spans carry the order.  Layer self
time is the duration of its spans minus the time covered by their child
spans; the request root spans keep whatever no layer claims.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

ROOT = "request"

# layer -> (module, public names); the layer names are those of the
# package modules, so per-layer metrics read as module names.
LAYERS = {
    "groups": ("eqdeg.groups", ("make_trivial", "make_cyclic",
                                "make_dihedral", "make_sign_group",
                                "make_permutation_group", "direct_product",
                                "dihedral_rotation_action")),
    "lattice": ("eqdeg.lattice", ("subgroup_poset",)),
    "naming": ("eqdeg.naming", ("class_base_name",)),
    "reps": ("eqdeg.reps", ("gamma_irreps_in", "minus_irrep",
                            "maximal_orbit_types")),
    "spectral": ("eqdeg.spectral", ("spectral_table", "matrix_spectrum",
                                    "interpret")),
    "degrees": ("eqdeg.degrees", ("degree_for_character",)),
    "bifurcation": ("eqdeg.bifurcation", ("critical_values",
                                          "local_invariant")),
    "cli": ("eqdeg.cli", ("validate_config", "render_text")),
}
BURNSIDE_METHODS = ("__mul__", "__rmul__")
LAYER_NAMES = (*LAYERS, "burnside")


class Tracer:
    """In-memory span recorder plus the counters read at layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.max_order = 0
        self.request: int | None = None
        self._stack: list[int] = []

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter(), 0.0, parent,
                           self.request, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def tag(self, value) -> None:
        """Attach a value to the innermost open span."""
        self.spans[self._stack[-1]][5] = value

    def begin_request(self, request_id: int) -> int:
        self.request = request_id
        return self.open(ROOT)

    def end_request(self, idx: int) -> None:
        self.close(idx)
        self.request = None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "max_order": self.max_order}, fh)

    def wrap(self, layer: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            idx = self.open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out)
            return out
        return traced


def _replace_everywhere(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if name != "eqdeg" and not name.startswith("eqdeg."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every listed function; eqdeg.cli must already be imported."""
    import eqdeg.burnside
    import eqdeg.cli  # noqa: F401  (loads every module that holds a name)
    import eqdeg.groups

    poset_cache = sys.modules["eqdeg.lattice"].subgroup_poset

    def group_built(out) -> None:
        group = out[0] if isinstance(out, tuple) else out
        if isinstance(group, eqdeg.groups.FiniteGroup):
            tracer.max_order = max(tracer.max_order, group.order)

    def poset_counted(fn):
        # classes are counted on cache misses only: built, not looked up
        @functools.wraps(fn)
        def counted(group):
            before = poset_cache.cache_info()
            poset = fn(group)
            after = poset_cache.cache_info()
            if tracer.request is not None:
                tracer.tag(group.order)
                tracer.counts["lattice.cache_hits"] += after.hits - before.hits
                if after.misses > before.misses:
                    tracer.counts["lattice.classes"] += len(poset)
            return poset
        return counted

    def blocks(table) -> None:
        tracer.counts["spectral.neg_blocks"] += len(table.negative_lambdas)

    def points(found) -> None:
        tracer.counts["bifurcation.points"] += len(found)

    hooks = {"spectral_table": blocks, "critical_values": points}
    for layer, (module_name, names) in LAYERS.items():
        module = sys.modules[module_name]
        for name in names:
            original = getattr(module, name)
            inner = poset_counted(original) if layer == "lattice" else original
            hook = group_built if layer == "groups" else hooks.get(name)
            _replace_everywhere(original, tracer.wrap(layer, inner, hook))

    cls = eqdeg.burnside.BurnsideElement
    mul = tracer.wrap("burnside", cls.__mul__)
    for name in BURNSIDE_METHODS:
        setattr(cls, name, mul)


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per layer not covered by that span's child spans."""
    out = {layer: 0.0 for layer in (*LAYER_NAMES, ROOT)}
    for span, own in zip(spans, _own_times(spans)):
        out[span[0]] += own
    return out


def lattice_by_order(spans: list[list]) -> dict[int, tuple[float, int]]:
    """Lattice self seconds and call count per group order."""
    out: dict[int, tuple[float, int]] = {}
    for span, own in zip(spans, _own_times(spans)):
        if span[0] == "lattice":
            secs, calls = out.get(span[5], (0.0, 0))
            out[span[5]] = (secs + own, calls + 1)
    return dict(sorted(out.items()))


def _own_times(spans: list[list]) -> list[float]:
    own = [end - start for _layer, start, end, *_rest in spans]
    for _layer, start, end, parent, *_rest in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans outside a request, or not inside their parent's interval."""
    errors = []
    for idx, (layer, start, end, parent, req, _order) in enumerate(spans):
        if end < start:
            errors.append(f"span {idx} ({layer}) ends before it starts")
        if (parent < 0) != (layer == ROOT):
            errors.append(f"span {idx} ({layer}) is not inside a request")
        elif parent >= 0:
            p_layer, p_start, p_end, _pp, p_req, _po = spans[parent]
            if not (p_start <= start and end <= p_end and req == p_req):
                errors.append(f"span {idx} ({layer}) escapes its parent "
                              f"{parent} ({p_layer})")
    return errors


def call_counts(spans: list[list]) -> Counter:
    return Counter(span[0] for span in spans)
