"""Every cross-reference in a ``clik`` docstring names something that exists.

A ``:func:``, ``:meth:``, ``:class:``, ``:data:`` or ``:attr:`` target
resolves if it is an attribute chain of the docstring's module, of the
class whose body holds the docstring (inherited names included, and a
field that the class only annotates), or a dotted ``clik.`` path.  A
leading ``~`` and a trailing ``()`` are dropped.
"""

import ast
import importlib
import re
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "clik"

ROLE = re.compile(r":(?:func|meth|class|data|attr):`~?([^`]+)`")


def references(path):
    """``(line, scope, target)`` of every cross-reference in the docstrings
    of ``path``: ``scope`` the names of the classes around the docstring,
    outermost first."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            for match in ROLE.finditer(doc or ""):
                found.append((getattr(node, "lineno", 1), scope,
                              match.group(1).strip().removesuffix("()")))
        for child in ast.iter_child_nodes(node):
            visit(child, scope + (child.name,)
                  if isinstance(child, ast.ClassDef) else scope)

    visit(ast.parse(path.read_text()), ())
    return found


def lookup(owner, dotted: str) -> bool:
    """Whether ``dotted`` is an attribute chain of ``owner``; the last link
    may be a field that a class only annotates."""
    *head, last = dotted.split(".")
    try:
        owner = reduce(getattr, head, owner)
    except AttributeError:
        return False
    return hasattr(owner, last) or any(
        last in getattr(cls, "__annotations__", {})
        for cls in getattr(owner, "__mro__", ()))


def resolves(module, scope, target: str) -> bool:
    owners = [module]
    if scope:
        owners.append(reduce(getattr, scope, module))
    if any(lookup(owner, target) for owner in owners):
        return True
    parts = target.split(".")
    if parts[0] == "clik":
        for cut in range(len(parts) - 1, 0, -1):
            try:
                owner = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            return lookup(owner, ".".join(parts[cut:]))
    return False


def unresolved(path, module):
    """``line: target`` of each reference in ``path`` that does not
    resolve, ``module`` being the module imported from it."""
    return [f"{line}: {target}" for line, scope, target in references(path)
            if not resolves(module, scope, target)]


def test_every_docstring_reference_resolves():
    bad = []
    for path in sorted(SRC.glob("*.py")):
        name = "clik" if path.stem == "__init__" else "clik." + path.stem
        bad += [f"{path.name}:{ref}"
                for ref in unresolved(path, importlib.import_module(name))]
    assert not bad


def test_the_check_sees_a_stale_reference(tmp_path, monkeypatch):
    # a negative control: the check must flag what it exists to catch
    path = tmp_path / "refmod.py"
    path.write_text(
        '"""See :func:`present`, :func:`gone` and :class:`Kept`."""\n'
        "def present():\n"
        '    """Calls :meth:`Kept.run` and :meth:`Kept.lost`."""\n'
        "class Kept:\n"
        '    """Its :meth:`run`, :attr:`field`, :meth:`sums` and\n'
        '    :func:`clik.models.feature_statistic`."""\n'
        "    field: int\n"
        "    def run(self):\n"
        '        """Not :func:`clik.models.nothing_here`."""\n')
    monkeypatch.syspath_prepend(str(tmp_path))
    assert unresolved(path, importlib.import_module("refmod")) == [
        "1: gone", "2: Kept.lost", "4: sums", "8: clik.models.nothing_here"]


#: The modules of ``clik``, by the name a README reference roots at.
MODULES = [p.stem for p in sorted(SRC.glob("*.py"))
           if not p.stem.startswith("_")]
DOTTED = re.compile(r"`((?:clik|" + "|".join(MODULES)
                    + r")(?:\.\w+)+)(?:\(\))?`")


def unresolved_names(text):
    """``line: name`` of each backticked dotted name in ``text``, rooted at
    ``clik`` or a ``clik`` module, that does not resolve."""
    clik = importlib.import_module("clik")
    return [f"{line}: {name}"
            for line, row in enumerate(text.splitlines(), start=1)
            for name in DOTTED.findall(row)
            if not resolves(clik, (), name if name.startswith("clik.")
                            else "clik." + name)]


def test_every_readme_name_resolves():
    text = (ROOT / "README.md").read_text()
    assert len(DOTTED.findall(text)) >= 10
    assert not unresolved_names(text)


def test_the_readme_check_sees_a_stale_name():
    # a negative control: a deleted helper and a missing attribute are
    # flagged; a file name and another package's names are not read
    text = ("The gate is `cli._check_memory`, not `cli._check_grid`;\n"
            "see `clik.fit`, `clik.nothing_here()`, `models.NoiseMap`,\n"
            "`verify_report.csv` and `np.linalg.eigvals`.\n")
    assert unresolved_names(text) == ["1: cli._check_grid",
                                      "2: clik.nothing_here"]
