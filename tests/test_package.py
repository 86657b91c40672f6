import ast
import dataclasses
import inspect
import sys
import textwrap
from pathlib import Path

import alhflow
from alhflow import cli

ROOT = Path(__file__).resolve().parents[1]

#: Public names kept although neither the package nor the acceptance tests
#: read them, each with its reason.
_UNREAD_KEPT = {
    # the sympy curvature oracle checks it, and perfbench's POINTWISE layer names it
    "ricci_components",
}

#: Public class members kept although no reader above reads them, each with
#: its reason.
_UNREAD_MEMBERS_KEPT = {
    # the mpmath oracle tests of test_substitution.py need c itself: rho
    # cannot give it without cancellation
    "SubstitutionMap.deviation_scale",
}

#: Top-level modules the package may import besides the standard library.
_THIRD_PARTY = {"numpy"}

#: Module constants of a run-time rule, each with the one module that may read it.
_RULE_OWNERS = {"MASS_SLACK": "geometry.py", "ARCCOSH_BELOW": "asymptotics.py"}


def _package_sources():
    return sorted((ROOT / "src" / "alhflow").glob("*.py"))


def _trees(paths):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def _reads_self_as_dict(cls: ast.ClassDef) -> bool:
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "asdict" and len(node.args) == 1
               and isinstance(node.args[0], ast.Name) and node.args[0].id == "self"
               for node in ast.walk(cls))


def _reads():
    """(names, attributes) that the package and the acceptance tests read.
    A class that calls asdict(self) reads every field it declares."""
    names, attributes = set(), set()
    for tree in _trees([*_package_sources(), ROOT / "tests" / "test_acceptance.py"]):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.ClassDef) and _reads_self_as_dict(node):
                attributes |= {stmt.target.id for stmt in node.body
                               if isinstance(stmt, ast.AnnAssign)}
    return names, attributes


def _init_attributes(cls):
    """Names that the class's own __init__ assigns as self.<name>."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    return {node.attr for init in tree.body[0].body
            if isinstance(init, ast.FunctionDef) and init.name == "__init__"
            for node in ast.walk(init)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def _public_members(cls):
    """Public methods, properties and fields that the class itself defines,
    and the public attributes its __init__ sets."""
    members = set(vars(cls)) | _init_attributes(cls)
    if dataclasses.is_dataclass(cls):
        members |= {f.name for f in dataclasses.fields(cls)}
    return {name for name in members if not name.startswith("_")}


def test_public_names_resolve_once():
    assert len(set(alhflow.__all__)) == len(alhflow.__all__)
    for name in alhflow.__all__:
        assert getattr(alhflow, name) is not None


def test_every_public_name_is_read():
    # a public name that only its own unit tests call is surface to retire
    names, attributes = _reads()
    read = names | attributes
    assert sorted(set(alhflow.__all__) - read - _UNREAD_KEPT) == []
    # an exception that gains a reader, or leaves __all__, goes from the list
    assert _UNREAD_KEPT <= set(alhflow.__all__) - read


def test_every_public_member_is_read():
    # a field, property or method of a public class is read as an attribute
    _, attributes = _reads()
    unread = {f"{name}.{member}"
              for name in alhflow.__all__ if inspect.isclass(getattr(alhflow, name))
              for member in _public_members(getattr(alhflow, name))
              if member not in attributes}
    assert sorted(unread - _UNREAD_MEMBERS_KEPT) == []
    assert _UNREAD_MEMBERS_KEPT <= unread


def _enclosing_functions(tree):
    """The name of the innermost function around each node, by node id."""
    owner = {}
    for function in ast.walk(tree):  # outer functions first, so inner ones win
        if isinstance(function, ast.FunctionDef):
            owner.update((id(node), function.name) for node in ast.walk(function))
    return owner


def _reads_curvature_sign(node) -> bool:
    return any(isinstance(side, ast.Attribute) and side.attr == "curvature_sign"
               for side in (node.left, *node.comparators))


def _orders(node) -> bool:
    return any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)


def _orders_genus_against_zero(node) -> bool:
    sides = (node.left, *node.comparators)
    return (_orders(node)
            and any(isinstance(side, ast.Constant) and side.value == 0 for side in sides)
            and any(isinstance(side, ast.Name) and side.id == "genus"
                    or isinstance(side, ast.Attribute) and side.attr == "genus"
                    for side in sides))


def _orders_against_domain_start(node) -> bool:
    return (_orders(node)
            and any(isinstance(side, ast.Attribute) and side.attr == "domain_start"
                    for side in (node.left, *node.comparators)))


def _compares_phi_call(node) -> bool:
    return any(isinstance(side, ast.Call) and isinstance(side.func, ast.Attribute)
               and side.func.attr == "phi" for side in (node.left, *node.comparators))


def test_each_rule_has_one_owner():
    # a rule's constant is read only where the rule is enforced, the
    # curvature sign is compared only by ConformalInfinity.require_sign,
    # genus >= 0 is tested only by ConformalInfinity itself, a radius is
    # ordered against domain_start only by RadialPotential.require_inside,
    # and the CLI restates no domain rule by testing the sign of phi
    readers, comparers, genus_testers, domain_testers = set(), set(), set(), set()
    phi_testers = set()
    for path, tree in zip(_package_sources(), _trees(_package_sources())):
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and _reads_curvature_sign(node):
                comparers.add((path.name, owner.get(id(node))))
            if isinstance(node, ast.Compare) and _orders_genus_against_zero(node):
                genus_testers.add((path.name, owner.get(id(node))))
            if isinstance(node, ast.Compare) and _orders_against_domain_start(node):
                domain_testers.add((path.name, owner.get(id(node))))
            if isinstance(node, ast.Compare) and _compares_phi_call(node):
                phi_testers.add((path.name, owner.get(id(node))))
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = {node.id}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names = {node.attr}
            else:
                continue
            readers |= {(name, path.name) for name in names & _RULE_OWNERS.keys()}
    assert sorted(readers) == sorted(_RULE_OWNERS.items())
    assert comparers == {("geometry.py", "require_sign")}
    assert genus_testers == {("geometry.py", "__post_init__")}
    assert domain_testers == {("geometry.py", "require_inside")}
    assert sorted(t for t in phi_testers if t[0] == "cli.py") == []


def test_each_artifact_is_named_once():
    # a kind's data file is spelled only in its registry entry: the runner
    # writes at the path it is given, and the report lists what the entry names
    artifacts = [spec.artifact for spec in cli._KINDS.values()]
    spelled = []
    for path, tree in zip(_package_sources(), _trees(_package_sources())):
        registry = {id(node) for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
                    and any(isinstance(target, ast.Name) and target.id == "_KINDS"
                            for target in assign.targets)
                    for node in ast.walk(assign.value)}
        spelled += [(path.name, node.value, id(node) in registry) for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value in artifacts]
    assert sorted(spelled) == sorted(("cli.py", name, True) for name in artifacts)


def test_imports_numpy_alone():
    # besides the standard library the package runs on numpy only
    imported = set()
    for tree in _trees(_package_sources()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert sorted(imported - set(sys.stdlib_module_names) - _THIRD_PARTY) == []
