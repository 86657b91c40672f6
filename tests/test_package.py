import ast
from pathlib import Path

import alhflow

ROOT = Path(__file__).resolve().parents[1]

#: Public names kept although neither the package nor the acceptance tests
#: read them, each with its reason.
_UNREAD_KEPT = {
    # the paper's Hölder step; the strict Penrose scenario is to call it
    "holder_bound",
    # puts knots into the map's partition, and is the one user of scipy
    "tabulated_potential",
    # the sympy curvature oracle checks it, and perfbench's POINTWISE layer names it
    "ricci_components",
}


def test_public_names_resolve_once():
    assert len(set(alhflow.__all__)) == len(alhflow.__all__)
    for name in alhflow.__all__:
        assert getattr(alhflow, name) is not None


def test_every_public_name_is_read():
    # a public name that only its own unit tests call is surface to retire
    read = set()
    for path in [*sorted((ROOT / "src" / "alhflow").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert sorted(set(alhflow.__all__) - read - _UNREAD_KEPT) == []
    # an exception that gains a reader, or leaves __all__, goes from the list
    assert _UNREAD_KEPT <= set(alhflow.__all__) - read
