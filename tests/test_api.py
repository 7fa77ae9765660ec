"""The public surface: each name has one binding, in its own module."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import ccomb

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(ccomb.__path__))


def test_package_binds_no_function_or_class():
    tree = ast.parse(Path(ccomb.__file__).read_text(encoding="utf-8"))
    docstring, *rest = tree.body
    assert isinstance(docstring, ast.Expr)
    assert isinstance(docstring.value, ast.Constant)
    assert [type(node).__name__ for node in rest] == ["Assign"]
    (version,) = rest
    assert [target.id for target in version.targets] == ["__version__"]
    assert isinstance(version.value, ast.Constant)


def test_every_all_entry_is_bound_in_its_module():
    assert MODULES, "no ccomb modules found"
    for name in MODULES:
        module = importlib.import_module(f"ccomb.{name}")
        for public in getattr(module, "__all__", ()):
            assert public in vars(module), (name, public)


def test_importing_series_loads_no_other_ccomb_module():
    code = (
        "import sys, ccomb.series\n"
        "print(' '.join(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'ccomb')))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.split() == ["ccomb", "ccomb.series"]


def test_coefficient_formula_shares_no_helper_with_the_series_kernels():
    # the formula route does its own scaling: a scaling bug in the kernels'
    # helpers must make the engine route and the formula route disagree
    tree = ast.parse((ROOT / "src" / "ccomb" / "series.py").read_text("utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    private = {name for name in functions if name.startswith("_")}
    assert {"_mul", "_recip", "_power_sum", "_dilation", "_dilate"} <= private
    used = {
        n.id for n in ast.walk(functions["coefficient_formula"])
        if isinstance(n, ast.Name)
    }
    assert used & set(functions) == {"compositions"}


def _graphs_reach(root: str, forbidden: set) -> set:
    """Every graphs function `root` reaches by name; none may name one of
    `forbidden`, also not through a helper of the module."""
    tree = ast.parse((ROOT / "src" / "ccomb" / "graphs.py").read_text("utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    reached, todo = set(), [root]
    while todo:
        name = todo.pop()
        reached.add(name)
        named = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(functions[name])
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        assert not named & forbidden, (root, name, named & forbidden)
        todo.extend(named & set(functions) - reached)
    return reached


def test_walk_counters_stay_off_the_moment_kernel():
    # the walk route is the operator route's independent witness, and the
    # brute-force counters the walk kernel's: a kernel bug must make them
    # disagree, so no counter reaches either kernel
    kernels = {
        "sparse_apply", "sparse_moments", "adjacency_columns",
        "adjacency_matrix", "root_moments", "two_step_moments",
        "_walk_moments", "_walk_step",
    }
    for counter in ("_closed_walks", "brute_force_closed_walks", "count_d_walks"):
        reached = _graphs_reach(counter, kernels)
        assert {"_closed_walks", "_neighbor_lists", "_vertex"} <= reached


def test_the_walk_kernel_stays_off_the_operator_kernel():
    # root_moments and two_step_moments count on neighbor lists: a fault in
    # linalg's kernel or in the operator columns leaves them alone
    operator = {
        "sparse_apply", "sparse_moments", "sparse_transpose", "adjacency_columns",
    }
    for walks in ("root_moments", "two_step_moments"):
        reached = _graphs_reach(walks, operator)
        helpers = {"_walk_moments", "_walk_step", "_neighbor_lists", "_vertex"}
        assert reached == {walks} | helpers


def test_every_zip_in_verify_is_strict():
    # a check that zips its words with a route's values must fail when the
    # route comes back short, not pass on the words it got; `zip_longest`
    # in `_pairwise` pads and compares, so it is not a `zip` here
    tree = ast.parse((ROOT / "src" / "ccomb" / "verify.py").read_text("utf-8"))
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "zip"
    ]
    assert calls
    for call in calls:
        strict = [k.value for k in call.keywords if k.arg == "strict"]
        assert [getattr(v, "value", None) for v in strict] == [True], call.lineno


def test_decompositions_build_no_product_graph():
    # the operator route reads the two factors alone: a product builder bug
    # must make it disagree with the walks, so nothing it reaches in its own
    # module names a builder or a gluing helper
    tree = ast.parse((ROOT / "src" / "ccomb" / "products.py").read_text("utf-8"))
    defs = {
        n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
    }
    builders = {
        "star_product", "comb_product", "orthogonal_product", "comb_at_product",
        "c_comb_product", "comb_loop_product", "essential_loop_product",
        "c_comb_loop_product", "ADDITIVE_WALK_PRODUCTS",
        "_glue", "_two_leg", "_comb", "_comb_at", "_c_comb",
    }
    assert builders - {"ADDITIVE_WALK_PRODUCTS"} <= set(defs)
    roots = (
        "realize_graph_pair", "essential_decomposition", "c_comb_decomposition",
        "essential_loop_decomposition", "c_comb_loop_decomposition",
    )
    for root in roots:
        reached, todo = set(), [root]
        while todo:
            name = todo.pop()
            reached.add(name)
            named = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(defs[name])
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            assert not named & builders, (root, name, named & builders)
            todo.extend(named & set(defs) - reached)
    assert {"_decomposition", "OperatorDecomposition"} <= reached


def test_independence_imports_only_linalg_from_the_package():
    # its realizations and oracles are model-level: graphs reach them only
    # through products
    tree = ast.parse((ROOT / "src" / "ccomb" / "independence.py").read_text("utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                package.add(node.module or ".")  # `from . import x` too
            elif node.module.split(".")[0] == "ccomb":
                package.add(node.module)
        elif isinstance(node, ast.Import):
            package.update(a.name for a in node.names if a.name.startswith("ccomb"))
    assert package == {"linalg"}


def test_the_plan_and_the_evaluator_share_no_scaling_helper():
    # the oracle route and the realization route each scale their Fraction
    # inputs to ints on their own: a scaling bug in one must make the two
    # disagree, so nothing one class reaches in its module is reached by the
    # other, and each names the stdlib lcm and Fraction itself; a module
    # table, such as the plan's split functions, counts as reached too
    tree = ast.parse((ROOT / "src" / "ccomb" / "independence.py").read_text("utf-8"))
    defs = {
        n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
    }
    defs |= {
        t.id: n
        for n in tree.body
        if isinstance(n, ast.Assign)
        for t in n.targets
        if isinstance(t, ast.Name)
    }

    def reached(root):
        seen, todo = set(), [root]
        while todo:
            name = todo.pop()
            seen.add(name)
            named = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(defs[name])
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            todo.extend(named & set(defs) - seen)
        return seen

    plan, evaluator = reached("WordPlan"), reached("WordMomentEvaluator")
    assert {"collapse_word", "_first_local_max"} <= plan
    assert "HalfWordPlan" in evaluator
    assert not plan & evaluator, plan & evaluator
    for cls in ("WordPlan", "WordMomentEvaluator"):
        named = {n.id for n in ast.walk(defs[cls]) if isinstance(n, ast.Name)}
        assert {"lcm", "Fraction"} <= named, cls


def _named(tree, strings: bool) -> set:
    """The names a module's code reads: loaded names, attributes, imported
    names and, with `strings`, string constants (and their dotted parts)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def test_every_all_entry_has_a_reader():
    # no dead API: each public name is read in its own module, or named in
    # another ccomb module, a script or the benchmark harness (string
    # constants count: perfbench's tracer resolves names from strings)
    sources = {
        path: ast.parse(path.read_text("utf-8"))
        for folder in ("src/ccomb", "scripts", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    }
    assert len(sources) > len(MODULES)
    unread = []
    for name in MODULES:
        own = ROOT / "src" / "ccomb" / f"{name}.py"
        named = _named(sources[own], strings=False)
        for path, tree in sources.items():
            if path != own:
                named |= _named(tree, strings=True)
        module = importlib.import_module(f"ccomb.{name}")
        unread += [(name, p) for p in getattr(module, "__all__", ()) if p not in named]
    assert not unread, unread
