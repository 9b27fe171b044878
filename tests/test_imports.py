"""No module re-exports another's names: every name a `scoredyn` module
binds by `from .x import ...` is read in that module.

The package's `__init__` is left out, since re-exporting is its job. The
only unread imports are the module attributes that `perfbench/trace_child.py`
wraps by name, so that its tracer sees the calls made through them.
"""

import ast
from pathlib import Path

import scoredyn as sd

SRC = Path(sd.__file__).parent

TRACED = {
    ("cli", "balance_fractions"),
    ("ingest", "atomic_write_text"),
    ("predict", "lead_scoring_function"),
    ("predict", "point_value_distribution"),
    ("predict", "tempo_profile"),
    ("simulate", "lead_dispersion"),
}


def unread_imports(path: Path) -> set[str]:
    """The names bound by the module's relative imports that it never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_every_relative_import_is_read_where_it_is_bound():
    unread = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name in unread_imports(path)
    }
    assert unread == TRACED


def test_the_scan_sees_an_unread_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from .core import _count, _seconds\n\nx = _count\n", encoding="utf-8")
    assert unread_imports(module) == {"_seconds"}
