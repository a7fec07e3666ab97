import ast
import importlib
from pathlib import Path

import fedconn
from fedconn import cli
from fedconn.reports import CheckError

SRC = Path(__file__).resolve().parent.parent / "src" / "fedconn"


def unused_imports(source: str):
    """Names bound by an import and never read as a name or an attribute base."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_imports_are_detected():
    source = "from __future__ import annotations\nimport os\nfrom .a import b, c\nc()\n"
    assert unused_imports(source) == [(2, "os"), (3, "b")]


def test_no_unused_imports():
    # __init__.py is skipped: its imports are the package's re-exports
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


# the lazy cochain layer lives in tests/reference_cochains.py, as a reference
MOVED = {
    "Cochain", "_as_cochain", "gerstenhaber", "hochschild_d", "hochschild_d1", "materialize",
    "operator_from_callable", "operator_from_values", "_tuples_of", "ReconstructionError",
}


def test_the_lazy_cochain_layer_is_not_in_the_package():
    assert MOVED.isdisjoint(fedconn.__all__)
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in MOVED:
                defined.setdefault(path.name, []).append(node.name)
    assert defined == {}


# a t-only value is a Poly over the empty roster, with no class of its own
T_ONLY = {"ParamPoly", "ParamRational", "PP_ONE", "PP_ZERO", "PR_ONE", "PR_ZERO", "as_coefficient"}


def bound_names(source: str):
    """Every name a module binds: functions, classes, assignment targets, imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return out


def test_the_t_only_classes_are_gone():
    assert T_ONLY.isdisjoint(fedconn.__all__)
    found = {path.name: sorted(bound_names(path.read_text(encoding="utf-8")) & T_ONLY)
             for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


# evaluators of sample functions, replaced by operators, and the Weyl
# contraction state loop, replaced by the Moyal layers; the loops are
# references in tests/reference_kernels.py
EVALUATORS = {"delta_Z", "laplacian", "_df_M_dg", "c1", "v_c1", "hamiltonian_vf",
              "symplectic_pair_difference_symmetric", "_contract"}


def test_the_evaluators_are_not_defined_again():
    assert EVALUATORS.isdisjoint(fedconn.__all__)
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in EVALUATORS:
                defined.setdefault(path.name, []).append(node.name)
    assert {name: hits for name, hits in defined.items() if hits} == {}


# a function, an h-series sum_k h^k p_k, is an arity-0 MultiDiffOp
FUNCTION_CLASSES = {"FormalFunction"}


def test_a_function_has_no_class_of_its_own():
    assert FUNCTION_CLASSES.isdisjoint(fedconn.__all__)
    found = {path.name: sorted(bound_names(path.read_text(encoding="utf-8")) & FUNCTION_CLASSES)
             for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


# a star product, a 2-cochain, is an arity-2 MultiDiffOp
STAR_CLASSES = {"StarTruncation"}


def test_a_star_has_no_class_of_its_own():
    assert STAR_CLASSES.isdisjoint(fedconn.__all__)
    multidiff = (SRC / "multidiff.py").read_text(encoding="utf-8")
    assert STAR_CLASSES.isdisjoint(bound_names(multidiff))


# bad input, which ends a run with exit 2; every other exception class of the
# package is a failed check of the math, which ends it as a FAIL line
INPUT_ERRORS = {"ScenarioError", "ExprError", "ExponentOverflowError"}


def exception_classes():
    """The exception classes that the class statements of the package define."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"fedconn.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            cls = getattr(module, node.name, None) if isinstance(node, ast.ClassDef) else None
            if isinstance(cls, type) and issubclass(cls, BaseException):
                out.append(cls)
    return out


def misfiled(classes):
    """The names of the classes that are neither bad input (a ValueError and
    no CheckError) nor a CheckError whose check the runner describes."""
    out = []
    for cls in classes:
        if cls.__name__ in INPUT_ERRORS:
            ok = issubclass(cls, ValueError) and not issubclass(cls, CheckError)
        else:
            ok = issubclass(cls, CheckError) and (cls.check is None or cls.check in cli.FAILURES)
        if not ok:
            out.append(cls.__name__)
    return out


def check_names(path):
    """The literal check names at the raise sites of one module: the second
    argument of a CheckError call, the first of a FedosovCheckError."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            at = {"CheckError": 1, "FedosovCheckError": 0}.get(node.func.id)
            if at is not None and len(node.args) > at and isinstance(node.args[at], ast.Constant):
                names.add(node.args[at].value)
    return names


def test_every_check_failure_is_a_check_error():
    classes = exception_classes()
    assert {cls.__name__ for cls in classes} >= INPUT_ERRORS
    assert misfiled(classes) == []
    assert set().union(*map(check_names, SRC.glob("*.py"))) <= set(cli.FAILURES)


def test_a_check_failure_outside_check_error_is_detected(tmp_path):
    class StrayError(AssertionError):
        pass

    class UnlistedError(CheckError):
        check = "no such check"

    assert misfiled([StrayError, UnlistedError, CheckError]) == ["StrayError", "UnlistedError"]
    stray = tmp_path / "stray.py"
    stray.write_text('raise CheckError("w", "no such check")\n'
                     'raise FedosovCheckError("r recursion", "w")\n')
    assert check_names(stray) == {"no such check", "r recursion"}
