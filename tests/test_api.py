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
