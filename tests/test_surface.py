"""The library is its public surface: no public code that only tests call.

Every public top-level function and public method defined in
``src/rankmetric`` must be referenced outside its own definition and
``__init__``: in ``src/rankmetric``, ``scripts/`` or ``perfbench/`` (its
tests excluded).  Every parameter with a default, of any function in
``src/rankmetric``, must be passed by position or keyword by some call in
that same code.  Scalar references that only tests use belong in
``tests/reference.py``.

Limit: references and calls are matched by name, not resolved (a call of
``__init__`` by its class name).  A name used anywhere in that code counts
for every definition of that name, so a common name such as ``add``
(``Field.add``, ``np.add``) can hide an unused method or parameter.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rankmetric"

# Kept without a caller in the surface, one reason each.
ALLOWED = {
    "witness.certificate_from_jsonable": "reads back what `witness --out` writes; a `check` command needs it",
    "witness.WitnessCertificate.to_json": "the certificate's own text, which certificate_from_jsonable reads",
    "codes.ConstantRankCode.from_jsonable": "reads the constant-rank code that `construct` writes",
    "matfq.matrix_from_jsonable": "reads the matrix format of subspace bases in `construct` files",
}


def _references(tree: ast.AST) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names


def _modules() -> dict[Path, ast.Module]:
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _public_definitions(modules: dict[Path, ast.Module]):
    """(qualified name, def node) of each public function and method of the package."""
    for path, tree in modules.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item


def test_every_public_definition_has_a_caller_outside_the_tests():
    modules = _modules()
    assert {p.parent.name for p in modules} == {"rankmetric", "scripts", "perfbench"}
    total = Counter()
    for tree in modules.values():
        total.update(_references(tree))
    definitions = dict(_public_definitions(modules))
    assert set(ALLOWED) <= set(definitions), "an allowed name is no longer defined"
    unused = [
        name
        for name, node in definitions.items()
        if name not in ALLOWED and total[node.name] - _references(node)[node.name] <= 0
    ]
    assert not unused, f"public code called only from tests (move it to tests/reference.py or delete it): {unused}"


# Removed from the library as test-only code: deleted outright, or moved to
# tests/reference.py as the scalar references of cross-checks.
DELETED = {
    "matfq.MatrixFq": ["zeros", "identity", "add", "sub", "_minus_multiple", "scale", "hstack", "is_zero",
                       "_check_compatible", "transpose"],
    "matfq.Subspace": ["zero", "sum", "contains", "to_matrix"],
    "matfq": ["iter_rank_distances"],
    "ff.BaseField": ["elements"],
    "ff.Field": ["elements"],
    "linpoly.LinearizedPoly": ["monomial", "to_jsonable", "__add__", "__call__"],
    "linpoly": ["poly_from_jsonable"],
    "codes": ["lift_untransposed_cdc", "gabidulin_to_jsonable"],
    "codes.GabidulinCode": ["encode"],
    "codes.ConstantRankCode": ["iter_codewords"],
    "oracle": ["list_to_crc", "code_field", "code_size", "iter_codewords", "rank_leq", "_transform_work"],
}
MOVED = ["rank_decompose", "distance_sandwich_check", "column_space", "expand_to_matrix", "vector_from_matrix",
         "symbolic_product", "poly_sum", "max_list_scan"]


def _all_definitions(tree: ast.Module, prefix: str) -> set[str]:
    """Qualified names of the top-level functions and classes of a module and of their methods."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(f"{prefix}.{node.name}")
        if isinstance(node, ast.ClassDef):
            names.update(f"{prefix}.{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return names


def test_removed_code_is_gone_and_references_live_in_the_tests():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        defined |= _all_definitions(ast.parse(path.read_text()), path.stem)
    still = sorted(f"{owner}.{name}" for owner, names in DELETED.items() for name in names
                   if f"{owner}.{name}" in defined)
    assert not still, f"deleted code is defined again: {still}"
    in_package = sorted(name for name in MOVED if any(d.rsplit(".", 1)[-1] == name for d in defined))
    assert not in_package, f"scalar references defined in src/rankmetric: {in_package}"
    reference = _all_definitions(ast.parse((ROOT / "tests" / "reference.py").read_text()), "reference")
    assert {f"reference.{name}" for name in MOVED} <= reference


def _defaulted_parameters(modules: dict[Path, ast.Module]):
    """(qualified name, call name, position, parameter) of each parameter with a
    default of each function in the package.  A method's call name is its own
    and its positions skip ``self``; ``__init__`` is called by its class name.
    Keyword-only parameters have position None."""

    def visit(body, prefix: str, cls: str | None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}.{node.name}", node.name)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                skip = 1 if cls and not static else 0
                call = cls if node.name == "__init__" else node.name
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    yield f"{prefix}.{node.name}", call, i - skip, arg.arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{prefix}.{node.name}", call, None, arg.arg
                yield from visit(node.body, f"{prefix}.{node.name}", None)

    for path, tree in modules.items():
        if path.parent == PACKAGE:
            yield from visit(tree.body, path.stem, None)


def _passed(call: ast.Call, position: int | None, parameter: str) -> bool:
    """Whether ``call`` sets the parameter, by position, by keyword or through * or **."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) or i == position for i, a in enumerate(call.args[: position + 1]))


def test_every_defaulted_parameter_is_set_outside_the_tests():
    """A parameter with a default that no caller sets has one value in use:
    that value belongs in the code, not in the signature."""
    modules = _modules()
    calls = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    unset = [
        f"{qualified}({parameter})"
        for qualified, call, position, parameter in _defaulted_parameters(modules)
        if not any(_passed(c, position, parameter) for c in calls.get(call, ()))
    ]
    assert not unset, f"parameters whose default no caller outside the tests overrides: {unset}"
