"""Module boundaries of the package, read from the source.

No module imports another module's private (``_``-prefixed) name, not even
inside a function.  No module imports ``dataclasses``: value classes derive
from ``levy_core.record.Record``, and a fresh ``import levy_emm.cli`` loads
no ``dataclasses`` module.  No module imports ``scipy`` (the runtime needs
numpy only, and a fresh ``import levy_emm.cli`` loads no scipy module):
every integral against a jump measure goes through the package's own
kernel in ``levy_core/quadrature.py``.  No module imports ``extreal``:
a moment function's value is a float, ``inf`` or NaN where it is not
finite.  That layer is also the only caller of a
measure's ``density``/``log_density`` outside the measures themselves, so
no integrand multiplies by a jump density on its own, and the only caller
of ``math.fsum``, so no module sums an integrand over a measure's atoms on
its own.  Inside that layer one function reads a density and one call sums
atoms: every integral goes through its one region rule.  Only
``levy_core/measures.py`` compares against a tail-decay kind string; every
other module reads a tail through ``side(s)`` and its ``cutoff``.  No
module keeps an import it does not use.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "levy_emm"
_MODULES = sorted(_PACKAGE.rglob("*.py"))
#: a package's ``__init__`` imports names to re-export them
_NOT_INIT = [p for p in _MODULES if p.name != "__init__.py"]
_QUADRATURE = _PACKAGE / "levy_core" / "quadrature.py"
_MEASURES = _PACKAGE / "levy_core" / "measures.py"


def _module_name(path: Path) -> str:
    parts = path.relative_to(_PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path):
    """Yield ``(imported module, imported name or None)`` for every import
    statement in the file, relative imports resolved."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                yield module, alias.name


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


@pytest.mark.parametrize("path", _MODULES,
                         ids=[_module_name(p) for p in _MODULES])
def test_no_private_cross_module_imports(path):
    bad = [f"{module}.{name or ''}" for module, name in _imports(path)
           if module.split(".")[0] == "levy_emm"
           and any(_is_private(part)
                   for part in module.split(".") + [name or ""])]
    assert not bad, f"{_module_name(path)} imports private names: {bad}"


@pytest.mark.parametrize("path", _MODULES,
                         ids=[_module_name(p) for p in _MODULES])
def test_no_module_imports_scipy_integrate(path):
    uses = [(module, name) for module, name in _imports(path)
            if module.startswith("scipy.integrate")
            or (module == "scipy" and name == "integrate")]
    assert not uses, f"{_module_name(path)} imports scipy.integrate: {uses}"


@pytest.mark.parametrize("path", _MODULES,
                         ids=[_module_name(p) for p in _MODULES])
def test_no_module_imports_scipy(path):
    uses = [(module, name) for module, name in _imports(path)
            if module.split(".")[0] == "scipy"]
    assert not uses, f"{_module_name(path)} imports scipy: {uses}"


def _loaded_by_cli_import(package: str) -> str:
    """The modules of ``package`` that a fresh ``import levy_emm.cli``
    loads, as a printed sorted list."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_PACKAGE.parent)] + ([env["PYTHONPATH"]]
                                  if env.get("PYTHONPATH") else []))
    code = ("import sys, levy_emm.cli; print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] == {package!r}))")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


@pytest.mark.parametrize("path", _MODULES,
                         ids=[_module_name(p) for p in _MODULES])
def test_no_module_imports_extreal(path):
    uses = [(module, name) for module, name in _imports(path)
            if "extreal" in module.split(".") or name == "extreal"]
    assert not uses, f"{_module_name(path)} imports extreal: {uses}"


def test_cli_import_loads_no_scipy():
    out = _loaded_by_cli_import("scipy")
    assert out == "[]", out


@pytest.mark.parametrize("path", _MODULES,
                         ids=[_module_name(p) for p in _MODULES])
def test_no_module_imports_dataclasses(path):
    uses = [(module, name) for module, name in _imports(path)
            if module.split(".")[0] == "dataclasses"]
    assert not uses, f"{_module_name(path)} imports dataclasses: {uses}"


def test_cli_import_loads_no_dataclasses():
    out = _loaded_by_cli_import("dataclasses")
    assert out == "[]", out


@pytest.mark.parametrize("path", _MODULES,
                         ids=[_module_name(p) for p in _MODULES])
def test_only_the_kernel_evaluates_densities(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = sorted({node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("density", "log_density")})
    assert path in (_QUADRATURE, _MEASURES) or not calls, (
        f"{_module_name(path)} evaluates a jump density on lines {calls}")


@pytest.mark.parametrize("path", _MODULES,
                         ids=[_module_name(p) for p in _MODULES])
def test_only_the_kernel_sums_atoms(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    # ``math.fsum``, or a ``from math import fsum``
    uses = sorted({node.lineno for node in ast.walk(tree)
                   if (isinstance(node, ast.Attribute) and node.attr == "fsum")
                   or (isinstance(node, ast.alias) and node.name == "fsum")})
    assert path == _QUADRATURE or not uses, (
        f"{_module_name(path)} uses math.fsum on lines {uses}")


def _top_level_users(path: Path, used) -> dict:
    """``{top-level name: lines}`` of the module's top-level statements
    that hold a node for which ``used(node)`` is true."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    users = {}
    for stmt in tree.body:
        lines = sorted({node.lineno for node in ast.walk(stmt) if used(node)})
        if lines:
            users[getattr(stmt, "name", f"line {stmt.lineno}")] = lines
    return users


def test_one_density_reader_in_the_kernel():
    readers = _top_level_users(
        _QUADRATURE, lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("density", "log_density"))
    assert list(readers) == ["_density_product"], readers


def test_one_atom_sum_in_the_kernel():
    sums = _top_level_users(
        _QUADRATURE, lambda node: (isinstance(node, ast.Attribute)
                                   and node.attr == "fsum")
        or (isinstance(node, ast.alias) and node.name == "fsum"))
    assert [len(lines) for lines in sums.values()] == [1], sums


def _tail_kinds() -> set:
    """The kind strings of ``TailDecay``: the string constants that
    ``measures.py`` binds at its top level."""
    tree = ast.parse(_MEASURES.read_text(encoding="utf-8"))
    return {node.value.value for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)}


def test_tail_kinds_are_read_from_measures():
    assert _tail_kinds() == {"bounded", "superexp", "exp", "poly",
                             "exp_image"}


@pytest.mark.parametrize("path", _MODULES,
                         ids=[_module_name(p) for p in _MODULES])
def test_only_measures_compares_tail_kinds(path):
    kinds = _tail_kinds()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = sorted({node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Compare)
                    for const in ast.walk(node)
                    if isinstance(const, ast.Constant)
                    and isinstance(const.value, str) and const.value in kinds})
    assert path == _MEASURES or not lines, (
        f"{_module_name(path)} compares against a tail kind on lines {lines}")


def _exported(tree: ast.Module) -> set:
    """The names listed in the module's ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {e.value for e in node.value.elts
                    if isinstance(e, ast.Constant)}
    return set()


@pytest.mark.parametrize("path", _NOT_INIT,
                         ids=[_module_name(p) for p in _NOT_INIT])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in bound.items()
                    if name not in used | _exported(tree))
    assert not unused, f"{_module_name(path)} never uses {unused}"
