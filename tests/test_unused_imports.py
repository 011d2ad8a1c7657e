"""Every name a ``clik`` module imports is used in that module.

A name counts as used where the module reads it (a bare name, or the
root of an attribute chain) or lists it in ``__all__``.  The benchmark's
tracer (``perfbench/tracing.py``) wraps some functions where another
module imported them, so its ``(module, attr)`` targets are exempt: such
an import exists for the tracer alone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "clik"


def traced_imports(monkeypatch):
    """``(module name, attr)`` of every module the tracer wraps a name in."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    return {(owner.__name__, attr) for owners, _ in tracing.TARGETS.values()
            for owner, attr in owners}


def unused_imports(path):
    """Names ``path`` imports and never reads or exports."""
    tree = ast.parse(path.read_text())
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(set(imported) - used)


def test_every_imported_name_is_used(monkeypatch):
    exempt = traced_imports(monkeypatch)
    unused = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
              for name in unused_imports(path)
              if ("clik." + path.stem, name) not in exempt]
    assert not unused


def test_the_check_sees_an_unused_import(tmp_path):
    # a negative control: the check must flag what it exists to catch
    module = tmp_path / "mod.py"
    module.write_text("import os\nfrom .models import (a, b as c)\n"
                      "__all__ = ['a']\n")
    assert unused_imports(module) == ["c", "os"]
