"""Modules of the package reach each other through public names only, only
``oracle`` may start a thread, only ``kernels`` reads the near-singular
threshold, and every name the benchmark's tracer rebinds exists."""

import ast
import importlib
from pathlib import Path

import hartogs_bergman
from hartogs_bergman import cli

PACKAGE_DIR = Path(hartogs_bergman.__file__).parent

# Private names allowed to cross a module boundary, as (importing module,
# defining module, name) triples: none.
ALLOWED = set()

# Modules allowed to import a thread library: oracle's reproducing
# integrator is the one place with a helper thread.
THREAD_MODULES = {"concurrent", "threading"}
THREAD_IMPORTERS = {"oracle"}


def private_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            source = node.module
        elif node.level == 0 and node.module.startswith("hartogs_bergman."):
            source = node.module.split(".", 1)[1]
        else:
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                yield (path.stem, source, alias.name)


def test_no_private_cross_module_imports():
    found = {imp for path in PACKAGE_DIR.glob("*.py") for imp in private_imports(path)}
    assert found == ALLOWED


def imported_modules(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module is not None:
            yield node.module


def test_only_oracle_imports_a_thread_library():
    found = {
        path.stem
        for path in PACKAGE_DIR.glob("*.py")
        if any(name.split(".")[0] in THREAD_MODULES for name in imported_modules(path))
    }
    assert found <= THREAD_IMPORTERS


def names_used(path: Path):
    # Imported names, attribute names and bare names.
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id


def test_only_kernels_reads_the_near_singular_threshold():
    # Every other module asks kernels.near_singular, the one near-singular test.
    found = {
        path.stem
        for path in PACKAGE_DIR.glob("*.py")
        if "NEAR_SINGULAR_THRESHOLD" in set(names_used(path))
    }
    assert found == {"kernels"}


def test_only_the_formula_modules_name_the_kernel_constants():
    # kernels writes the closed forms, polynomials their coefficients and oracle
    # the basis norms; every other module asks kernels.kernel_factors or
    # kernels.fat_quadratic.  The package's export list re-exports the
    # coefficient polynomials.
    names = {"PI_SQ", "quad_coeff", "lin_coeff"}
    found = {
        path.stem
        for path in PACKAGE_DIR.glob("*.py")
        if path.stem != "__init__" and names & set(names_used(path))
    }
    assert found == {"kernels", "oracle", "polynomials"}


SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def spans_table(name: str) -> ast.expr:
    # The value of a top-level assignment in the tracer, read without importing it.
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == name)


def test_every_name_the_benchmark_traces_resolves():
    # REBINDS rows are (span, module, attr, recorder); the tracer also wraps the
    # CLI_COMMANDS entries of cli._COMMANDS, cli._emit and acceptance.ALL_CRITERIA.
    rebinds = [tuple(ast.literal_eval(e) for e in row.elts[1:3]) for row in spans_table("REBINDS").elts]
    commands = ast.literal_eval(spans_table("CLI_COMMANDS"))
    assert len(rebinds) == 20 and len(commands) == 4
    names = [*rebinds, ("cli", "_emit"), ("acceptance", "ALL_CRITERIA")]
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(f"hartogs_bergman.{module}"), attr)]
    missing += [f"cli._COMMANDS[{c!r}]" for c in commands if c not in cli._COMMANDS]
    assert missing == []
