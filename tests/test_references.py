"""Every top-level function and class of the package is used by the package
itself: one that only tests call is code to delete, not to keep."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "archtext"

# Public entry points that nothing in the package calls: the release gate
# (tests/test_acceptance.py) or perfbench calls them.
ENTRY_POINTS = {
    ("autodiff", "finite_diff"),
    ("catalog", "mentioned_ops"),
    ("evaluate", "bacd_score"),
    ("graph", "attention_mask"),
    ("model", "encode_text"),
    ("training", "mam_loss"),
    ("training", "total_loss"),
}

_DEFS = (ast.FunctionDef, ast.ClassDef)


def _reference_names(node: ast.AST) -> Counter:
    """The names that the Name and Attribute nodes under `node` refer to."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_top_level_definition_is_referenced():
    defs, refs = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in module.body:
            names = _reference_names(stmt)
            if isinstance(stmt, _DEFS):
                defs.append((path.stem, stmt.name))
                names[stmt.name] = 0   # its own definition's uses do not count
            refs.update(names)
    assert len(defs) > 100
    unused = [d for d in defs if not refs[d[1]] and d not in ENTRY_POINTS]
    assert unused == []
    # an entry point the package came to call needs no exemption
    assert [d for d in sorted(ENTRY_POINTS) if refs[d[1]]] == []
