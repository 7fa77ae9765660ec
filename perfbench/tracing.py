"""Traced-run shim: spans around the public functions of every ccomb layer.

`Tracer.install` replaces each traced function at every place it is bound:
the defining module, every ccomb module that imported it by name, the
package namespace, and dict tables such as ``cli.PRODUCT_KINDS`` and
``verify.SUITES``. Methods are patched on their class. A span records
(name, start, end, parent); spans stay in memory in flat arrays and are
written out once by `Tracer.write`. Self time is a span's duration minus
the durations of its direct children. Work counts are computed after a
span closes, and their cost is charged to a pseudo-child of the parent, so
counting does not inflate any layer's self time.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("linalg", "graphs", "products", "series", "independence", "io", "cli", "verify")


def _max(counts, key, value):
    if value > counts.get(key, 0):
        counts[key] = value


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


# -- work counters: (counts, args, kwargs, result, parent_group) -> None ------


def _count_sparse_apply(counts, args, kwargs, result, parent):
    cols, vec = args[0], args[1]
    _add(counts, "linalg.sparse_apply.terms", sum(len(cols[c]) for c in vec))
    if parent == "independence.evaluator":
        _add(counts, "independence.evaluator.applies", 1)


def _count_sparse_columns(counts, args, kwargs, result, parent):
    a = args[0]
    _add(counts, "linalg.sparse_columns.cells", a.rows * a.cols)
    _add(counts, "linalg.sparse_columns.nonzeros", sum(len(c) for c in result))


def _cells_out(key):
    def count(counts, args, kwargs, result, parent):
        _add(counts, key, result.rows * result.cols)

    return count


def _count_matmul(counts, args, kwargs, result, parent):
    a, b = args
    _add(counts, "linalg.matmul.mults", a.rows * a.cols * b.cols)


def _count_adjacency(counts, args, kwargs, result, parent):
    color = args[1] if len(args) > 1 else kwargs.get("color")
    if color is None and hasattr(args[0], "colored_edges"):
        return  # the two per-color child calls already counted their cells
    _add(counts, "graphs.adjacency_matrix.cells_out", result.rows * result.cols)


def _count_walks(counts, args, kwargs, result, parent):
    _add(counts, "graphs.brute_force_closed_walks.walks", result)


def _count_product(counts, args, kwargs, result, parent):
    _add(counts, "products.product.vertices_out", result.vertex_count)


def _count_decomposition(counts, args, kwargs, result, parent):
    _max(counts, "products.decomposition.ambient_dim_max", result.ambient_dim)
    _add(counts, "products.decomposition.ambient_cells", result.ambient_dim**2)


def _count_bits(counts, args, kwargs, result, parent):
    bits = 0
    for c in result.coeffs:
        if c:
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    _max(counts, "series.coeff_bits_max", bits)


def _count_realize(counts, args, kwargs, result, parent):
    _max(counts, "independence.realize.ambient_dim_max", result.dim)


def _is_matrix_product(args, kwargs):
    return type(args[1]) is type(args[0])


def _functional_miss(args, kwargs):
    self, names = args
    return tuple(names) not in self._cache


# (module, attribute, group, counter). An attribute "Class.method" is patched
# on the class. The group is the metric prefix: several functions that do
# one job (the seven products, the four decompositions) share one group.
_PRODUCTS = (
    "star_product", "comb_product", "orthogonal_product", "comb_at_product",
    "c_comb_product", "comb_loop_product", "essential_loop_product",
    "c_comb_loop_product",
)
_DECOMPOSITIONS = (
    "essential_decomposition", "c_comb_decomposition",
    "essential_loop_decomposition", "c_comb_loop_decomposition",
)
SPEC = (
    ("linalg", "sparse_apply", "linalg.sparse_apply", _count_sparse_apply),
    ("linalg", "sparse_columns", "linalg.sparse_columns", _count_sparse_columns),
    ("linalg", "kron", "linalg.kron", _cells_out("linalg.kron.cells_out")),
    ("linalg", "direct_sum", "linalg.direct_sum", _cells_out("linalg.direct_sum.cells_out")),
    ("linalg", "Matrix.__mul__", "linalg.matmul", _count_matmul),
    ("linalg", "Matrix.__add__", "linalg.matadd", _cells_out("linalg.matadd.cells")),
    ("linalg", "Matrix.__sub__", "linalg.matadd", _cells_out("linalg.matadd.cells")),
    ("linalg", "state_moments", "linalg.state_moments", None),
    ("linalg", "subspace_restrict", "linalg.subspace_restrict", None),
    ("graphs", "adjacency_matrix", "graphs.adjacency_matrix", _count_adjacency),
    ("graphs", "root_moments", "graphs.root_moments", None),
    ("graphs", "brute_force_closed_walks", "graphs.brute_force_closed_walks", _count_walks),
    ("graphs", "count_d_walks", "graphs.count_d_walks", None),
    *(("products", f, "products.product", _count_product) for f in _PRODUCTS),
    *(("products", f, "products.decomposition", _count_decomposition) for f in _DECOMPOSITIONS),
    *(("products", f, "products.isomorphism", None)
      for f in ("superposition_map", "comb_at_collapse_map", "relabel_isomorphic")),
    ("series", "moments_to_F", "series.moments_to_F", _count_bits),
    ("series", "F_to_moments", "series.F_to_moments", _count_bits),
    ("series", "compose_F", "series.compose_F", _count_bits),
    ("series", "additive_convolve", "series.additive_convolve", _count_bits),
    ("series", "multiplicative_convolve", "series.multiplicative_convolve", _count_bits),
    ("series", "eta_from_moments", "series.eta_from_moments", _count_bits),
    ("series", "coefficient_formula", "series.coefficient_formula", None),
    ("independence", "oracle_moment", "independence.oracle_moment", None),
    ("independence", "oracle_cmonotone", "independence.oracle_cmonotone", None),
    ("independence", "oracle_cmonotone_all_orders", "independence.oracle_cmonotone_all_orders", None),
    ("independence", "ModelFunctional.__call__", "independence.functional", None),
    ("independence", "AlgebraModel.element_product", "independence.element_product", None),
    *(("independence", f, "independence.realize", _count_realize)
      for f in ("realize_pair", "realize_cmonotone_pair", "realize_cmonotone_family")),
    ("independence", "Realization.moment", "independence.evaluator", None),
    ("independence", "WordMomentEvaluator.moment", "independence.evaluator", None),
    ("io", "parse_graph", "io.parse_graph", None),
    ("io", "parse_moment_table", "io.parse_moment_table", None),
    ("io", "format_graph", "io.format_graph", None),
    ("io", "to_dot", "io.to_dot", None),
    ("cli", "main", "cli.main", None),
    ("verify", "products_suite", "verify.products", None),
    ("verify", "transforms_suite", "verify.transforms", None),
    ("verify", "independence_suite", "verify.independence", None),
)
# Spans that only run when a predicate on the arguments holds; otherwise the
# original is called untraced (scalar * Matrix is not a matrix product).
_WHEN = {"Matrix.__mul__": _is_matrix_product}
# Hooks that look at the arguments before the call; the result is counted.
_BEFORE = {"ModelFunctional.__call__": ("independence.functional.misses", _functional_miss)}


def verify_checks(verify_module) -> list:
    """Every check_* function of the verify module, in definition order."""
    return [
        name
        for name, value in vars(verify_module).items()
        if name.startswith("check_") and callable(value)
    ]


class Tracer:
    """In-memory span recorder plus per-group call, self-time and work counts."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # open span indices
        self._child: list = []  # child time accumulated per open span
        self._groups: list = []  # group of each name id
        self.calls: dict = {}
        self.self_s: dict = {}
        self.wall_s: dict = {}
        self.counts: dict = {}
        self._patches: list = []  # (container, key, original)

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str, group: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._groups.append(group)
        return self._name_ids[name]

    def span_wrapper(self, fn, name: str, group: str, counter=None, when=None, before=None):
        nid = self._name_id(name, group)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            flag = before[1](args, kwargs) if before is not None else False
            stack, child = tracer._stack, tracer._child
            parent = stack[-1] if stack else -1
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent)
            stack.append(idx)
            child.append(0.0)
            start = perf_counter()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.span_end[idx] = end
                stack.pop()
                inner = child.pop()
                duration = end - start
                tracer.calls[group] = tracer.calls.get(group, 0) + 1
                tracer.self_s[group] = tracer.self_s.get(group, 0.0) + duration - inner
                tracer.wall_s[group] = tracer.wall_s.get(group, 0.0) + duration
                if child:
                    child[-1] += duration
            if counter is not None or flag:
                t0 = perf_counter()
                if flag:
                    _add(tracer.counts, before[0], 1)
                if counter is not None:
                    parent_group = (
                        tracer._groups[tracer.span_name[parent]] if parent >= 0 else None
                    )
                    counter(tracer.counts, args, kwargs, return_value, parent_group)
                if child:
                    child[-1] += perf_counter() - t0
            return return_value

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- installing ---------------------------------------------------------

    def _targets(self, modules: dict) -> list:
        """(original function, container, key, span name, group, counter, when, before)
        for the definition site of every traced function."""
        targets = []
        verify = modules["verify"]
        spec = list(SPEC) + [
            ("verify", name, f"verify.{name}", None) for name in verify_checks(verify)
        ]
        for mod_name, attr, group, counter in spec:
            module = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                container, key = cls, meth
                original = vars(cls)[meth]
            else:
                container, key = module, attr
                original = getattr(module, attr)
            targets.append(
                (original, container, key, f"{mod_name}.{attr}", group, counter,
                 _WHEN.get(attr), _BEFORE.get(attr))
            )
        return targets

    def install(self, package) -> None:
        """Wrap every traced function of an imported ccomb package at every
        binding site inside the package's modules."""
        modules = ccomb_modules(package)
        wrappers = {}
        for original, container, key, name, group, counter, when, before in self._targets(modules):
            if id(original) not in wrappers:
                wrappers[id(original)] = self.span_wrapper(
                    original, name, group, counter, when, before
                )
            self._set(container, key, wrappers[id(original)])
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, key, wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._patches.append((value, k, v))
                            value[k] = wrappers[id(v)]

    def _set(self, container, key, value) -> None:
        self._patches.append((container, key, vars(container)[key]))
        setattr(container, key, value)

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    # -- reporting ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the four raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": [
                ["name", self.span_name.typecode],
                ["parent", self.span_parent.typecode],
                ["start", self.span_start.typecode],
                ["end", self.span_end.typecode],
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def ccomb_modules(package) -> dict:
    """The package and its layer modules, keyed by layer name."""
    out = {"__init__": package}
    for layer in LAYERS + ("fixtures",):
        out[layer] = sys.modules[f"{package.__name__}.{layer}"]
    return out


def layer_metrics(tracer: Tracer, verify_module) -> dict:
    """The per-layer metric table of one traced pass, keyed by metric name."""
    calls, self_s, wall, counts = tracer.calls, tracer.self_s, tracer.wall_s, tracer.counts
    m: dict = {}

    def c(group):
        m[f"{group}.calls"] = (calls.get(group, 0), "count")

    def s(group):
        m[f"{group}.self_s"] = (self_s.get(group, 0.0), "s")

    def n(key, unit="count"):
        m[key] = (counts.get(key, 0), unit)

    def ratio(num, den):
        return num / den if den else 0.0

    c("linalg.sparse_apply"); s("linalg.sparse_apply"); n("linalg.sparse_apply.terms")
    c("linalg.sparse_columns"); s("linalg.sparse_columns"); n("linalg.sparse_columns.cells")
    m["linalg.sparse_columns.density"] = (
        ratio(counts.get("linalg.sparse_columns.nonzeros", 0),
              counts.get("linalg.sparse_columns.cells", 0)), "1")
    c("linalg.kron"); s("linalg.kron"); n("linalg.kron.cells_out")
    s("linalg.direct_sum"); n("linalg.direct_sum.cells_out")
    c("linalg.matmul"); s("linalg.matmul"); n("linalg.matmul.mults")
    s("linalg.matadd"); n("linalg.matadd.cells")
    s("linalg.state_moments")
    s("linalg.subspace_restrict")
    c("graphs.adjacency_matrix"); s("graphs.adjacency_matrix"); n("graphs.adjacency_matrix.cells_out")
    c("graphs.root_moments"); s("graphs.root_moments")
    c("graphs.brute_force_closed_walks"); s("graphs.brute_force_closed_walks")
    n("graphs.brute_force_closed_walks.walks")
    s("graphs.count_d_walks")
    c("products.product"); s("products.product"); n("products.product.vertices_out")
    c("products.decomposition"); s("products.decomposition")
    n("products.decomposition.ambient_dim_max"); n("products.decomposition.ambient_cells")
    s("products.isomorphism")
    s("series.moments_to_F"); s("series.F_to_moments")
    c("series.compose_F"); s("series.compose_F")
    c("series.additive_convolve"); s("series.additive_convolve")
    c("series.multiplicative_convolve"); s("series.multiplicative_convolve")
    s("series.eta_from_moments")
    c("series.coefficient_formula"); s("series.coefficient_formula")
    n("series.coeff_bits_max", "bit")
    c("independence.oracle_moment"); s("independence.oracle_moment")
    c("independence.oracle_cmonotone"); s("independence.oracle_cmonotone")
    s("independence.oracle_cmonotone_all_orders")
    fcalls = calls.get("independence.functional", 0)
    misses = counts.get("independence.functional.misses", 0)
    c("independence.functional"); n("independence.functional.misses")
    m["independence.functional.hit_ratio"] = (ratio(fcalls - misses, fcalls), "1")
    s("independence.element_product")
    c("independence.realize"); s("independence.realize"); n("independence.realize.ambient_dim_max")
    m["independence.evaluator.moments"] = (calls.get("independence.evaluator", 0), "count")
    n("independence.evaluator.applies"); s("independence.evaluator")
    c("io.parse_graph"); s("io.parse_graph")
    s("io.parse_moment_table"); s("io.format_graph"); s("io.to_dot")
    c("cli.main"); s("cli.main")
    for suite in ("products", "transforms", "independence"):
        m[f"verify.{suite}.wall_s"] = (wall.get(f"verify.{suite}", 0.0), "s")
    for name in verify_checks(verify_module):
        m[f"verify.{name}.wall_s"] = (wall.get(f"verify.{name}", 0.0), "s")
    return m
