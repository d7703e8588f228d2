"""Spans around pqsurf's public functions, for the traced pass.

``install`` replaces each function named in ``LAYERS`` by a recording
wrapper in every pqsurf module namespace that binds it, so internal calls
(``surface.quotient_singularities`` called from ``jacobian``, say) are
counted as well as the benchmark's own.  Spans stay in memory and are
written as JSON lines when the pass ends; ``layer_metrics`` turns a span
file into per-pass self times and call counts.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

# metric prefix -> the (module, function) pairs whose spans it sums
LAYERS = {
    "descfile.parse": (
        ("descfile", "parse_description"),
        ("descfile", "resolve_group"),
        ("descfile", "build_explicit_vector"),
    ),
    "groups.closure": (("groups", "group_from_generators"), ("groups", "catalog_group")),
    "chars.table": (("chars", "character_table"),),
    "chars.rational": (("chars", "rational_characters"),),
    "chars.induced": (("chars", "induced_trivial"),),
    "covering.search": (("covering", "search_generating_vectors"),),
    "covering.validate": (("covering", "validate"),),
    "covering.hurwitz": (("covering", "hurwitz_character"),),
    "covering.fixed_points": (("covering", "fixed_point_data"),),
    "catalog.select_pair": (("catalog", "select_pair"),),
    "catalog.row_witnesses": (("catalog", "row_witnesses"),),
    "surface.singularities": (("surface", "quotient_singularities"),),
    "surface.euler": (("surface", "euler_characteristic"),),
    "surface.geometric_genus": (("surface", "geometric_genus"),),
    "surface.chevalley_weil": (("surface", "chevalley_weil"),),
    "jacobian.isotypical": (("jacobian", "isotypical_dimensions"),),
    "jacobian.pairing": (("jacobian", "k3_pairing"),),
    "jacobian.motive": (("jacobian", "motive_h2_decomposition"),),
    "lattice.signature": (("lattice", "signature"),),
    "lattice.discriminant": (("lattice", "discriminant_group"),),
    "lattice.embed": (("lattice", "k3_embeddable"), ("lattice", "nikulin_embeds")),
    "analysis.analyze_pair": (("analysis", "analyze_pair"),),
    "analysis.render": (("analysis", "render_text"), ("analysis", "to_json")),
}

# layers whose call count is reported next to their self time
COUNTED = (
    "chars.induced",
    "covering.validate",
    "covering.hurwitz",
    "covering.fixed_points",
    "surface.singularities",
    "surface.geometric_genus",
    "surface.chevalley_weil",
    "jacobian.isotypical",
    "jacobian.pairing",
)

IMPORT_SPAN = "cli.import"
SEARCH = "covering.search_generating_vectors"


def _scan_size(group, base_genus, orders) -> int:
    """|G|^(2 g0) times #{g : ord g = m_i} over the free monodromies: the
    tuple count the search's docstring gives for its scan."""
    size = group.order ** (2 * base_genus)
    for m in tuple(orders)[:-1]:
        size *= sum(1 for g in group.elements if g.order() == m)
    return size


class Recorder:
    """Spans of one pass: (id, parent id, name, start ns, end ns), plus
    attributes for search spans."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[tuple] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._next = 1

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a span timed elsewhere (the import, before tracing starts)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self._next, parent, name, start_ns, end_ns))
        self._next += 1

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, fn, name: str):
        recorder = self
        search_args = inspect.signature(fn) if name == SEARCH else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with recorder.span(name) as sid:
                result = fn(*args, **kwargs)
            if search_args is not None:
                call = search_args.bind(*args, **kwargs).arguments
                recorder.attrs[sid] = {
                    "orbits": len(result),
                    "scan": _scan_size(call["group"], call["base_genus"], call["orders"]),
                }
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                record = {
                    "trace": self.trace_id,
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                }
                if sid in self.attrs:
                    record["attrs"] = self.attrs[sid]
                fh.write(json.dumps(record) + "\n")


def install(recorder: Recorder, package) -> None:
    """Wrap every function in ``LAYERS`` wherever a pqsurf module binds it."""
    wrappers = {}
    for pairs in LAYERS.values():
        for module_name, func_name in pairs:
            module = sys.modules[f"{package.__name__}.{module_name}"]
            original = getattr(module, func_name)
            wrappers[id(original)] = (original, recorder.wrap(original, f"{module_name}.{func_name}"))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package.__name__ and not mod_name.startswith(package.__name__ + "."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def layer_metrics(path) -> dict[str, float]:
    """Self time per layer, call counts and the search rate for one pass."""
    spans = []
    attrs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            spans.append(rec)
            if "attrs" in rec:
                attrs[rec["id"]] = rec["attrs"]
    child_ns: dict[int, int] = {}
    for rec in spans:
        if rec["parent"] is not None:
            child_ns[rec["parent"]] = child_ns.get(rec["parent"], 0) + rec["end_ns"] - rec["start_ns"]
    prefix_of = {
        f"{module_name}.{func_name}": prefix
        for prefix, pairs in LAYERS.items()
        for module_name, func_name in pairs
    }
    self_ns = {prefix: 0 for prefix in LAYERS}
    calls = {prefix: 0 for prefix in LAYERS}
    import_ns = 0
    scan = orbits = 0
    for rec in spans:
        own = rec["end_ns"] - rec["start_ns"] - child_ns.get(rec["id"], 0)
        if rec["name"] == IMPORT_SPAN:
            import_ns += own
            continue
        prefix = prefix_of.get(rec["name"])
        if prefix is None:
            continue
        self_ns[prefix] += own
        calls[prefix] += 1
        if rec["id"] in attrs:
            scan += attrs[rec["id"]]["scan"]
            orbits += attrs[rec["id"]]["orbits"]
    out = {"cli.import_s": import_ns / 1e9}
    for prefix in LAYERS:
        out[f"{prefix}_s"] = self_ns[prefix] / 1e9
    for prefix in COUNTED:
        out[f"{prefix}_calls"] = calls[prefix]
    search_s = self_ns["covering.search"] / 1e9
    out["covering.search_tuples_per_s"] = scan / search_s if search_s > 0 else 0.0
    out["covering.search_orbits"] = orbits
    return out
