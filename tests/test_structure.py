"""Module boundaries of the package, read from the source.

No module imports another module's private (``_``-prefixed) name, not even
inside a function, and no module imports ``scipy.integrate``: every
integral against a jump measure goes through the package's own kernel in
``levy_core/quadrature.py``.  That layer is also the only caller of a
measure's ``density``/``log_density`` outside the measures themselves, so
no integrand multiplies by a jump density on its own.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "levy_emm"
_MODULES = sorted(_PACKAGE.rglob("*.py"))
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
def test_only_the_kernel_evaluates_densities(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = sorted({node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("density", "log_density")})
    assert path in (_QUADRATURE, _MEASURES) or not calls, (
        f"{_module_name(path)} evaluates a jump density on lines {calls}")
