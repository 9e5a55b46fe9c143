"""Module boundaries of the package, read from the source.

No module imports another module's private (``_``-prefixed) name, not even
inside a function, and only the quadrature layer calls into
``scipy.integrate``: every integral against a jump measure goes through
``levy_core/quadrature.py``, whose ``_quad`` is the one caller of
``scipy.integrate.quad`` and is reached only from the origin policy.  That
layer is also the only caller of a measure's ``density``/``log_density``
outside the measures themselves, so no integrand multiplies by a jump
density on its own.
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
def test_only_quadrature_imports_scipy_integrate(path):
    uses = [(module, name) for module, name in _imports(path)
            if module.startswith("scipy.integrate")
            or (module == "scipy" and name == "integrate")]
    assert path == _QUADRATURE or not uses, (
        f"{_module_name(path)} imports scipy.integrate: {uses}")


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


class _Callers(ast.NodeVisitor):
    """Names of the functions that call one of ``callees`` (``<module>``
    for a call at module level): the innermost enclosing function, or the
    top-level one with ``outermost``."""

    def __init__(self, callees, outermost: bool = False) -> None:
        self.callees = callees
        self.outermost = outermost
        self.stack = ["<module>"]
        self.callers = set()

    def visit_FunctionDef(self, node) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        if ast.unparse(node.func) in self.callees:
            self.callers.add(self.stack[min(1, len(self.stack) - 1)]
                             if self.outermost else self.stack[-1])
        self.generic_visit(node)


def _callers(path: Path, callees, outermost: bool = False) -> set:
    visitor = _Callers(callees, outermost)
    visitor.visit(ast.parse(path.read_text(encoding="utf-8"),
                            filename=str(path)))
    return visitor.callers


def test_quadpack_has_one_seam():
    """Every QUADPACK call goes through ``quadrature._quad``, so a panel
    rule or a replacement kernel changes one function."""
    found = {(_module_name(path), name) for path in _MODULES
             for name in _callers(path, ("quad", "integrate.quad",
                                         "scipy.integrate.quad"))}
    assert found == {("levy_emm.levy_core.quadrature", "_quad")}, found


def test_quadpack_only_at_the_origin():
    """Only the origin policy reaches QUADPACK: tails and bounded panels
    are integrated by the vectorised Gauss–Kronrod rule."""
    found = _callers(_QUADRATURE, ("_quad",), outermost=True)
    assert found == {"one_sided_integral", "_classify_origin"}, found
