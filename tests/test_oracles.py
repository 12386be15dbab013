"""Rules read off the production source, so they hold for every input, not
only the ones a test runs.

The paper's constructions in hsdual.paper are oracles only: no production
module imports hsdual.paper, hsdual.paper imports only the production names
PAPER_IMPORTS lists, and production builds Kronecker products only in
the functions named below, builds Choi's matrix only for the choi command and
eigensolves it nowhere, reads a BasisPair's H2 basis only in the functions
H2_READERS names, and reads the environment only in the functions ENV_READERS
names.  Each numeric bound is written in one place: a
float literal below 1e-6 appears only where the table below puts it, and the
acceptance criteria leave theirs to the property catalogue in hsdual.selftest,
every property of which they run.
"""

import ast
from pathlib import Path

import pytest

import hsdual
from hsdual import selftest

PACKAGE = Path(hsdual.__file__).resolve().parent

# The modules a CLI command other than selftest may load, and the entry.
PRODUCTION = ("cli", "io", "linalg", "vectorize", "superop", "entangle", "bench", "__main__")

# The production names hsdual.paper may import, by module-qualified name: the
# basis types, the bipartite-vector check, HSMap, the Kraus validator and
# linalg helpers, but no basis change, so the oracles build from the paper's
# sums and share no code with the closed forms they check.  The catalogue's
# _lift still runs production vec/devec, through lower_s, but only in the
# standard bases, where they are reshapes.
PAPER_IMPORTS = {
    "vectorize.Basis",
    "vectorize.BasisPair",
    "vectorize._check_bipartite",
    "superop.HSMap",
    "superop._kraus",
    "linalg.DimensionMismatchError",
    "linalg.adjoint",
    "linalg.as_matrix",
    "linalg.as_vector",
    "linalg.guard_entries",
    "linalg.kron",
}

# Production functions allowed to call kron, by module-qualified name.
KRON_CALLERS = {
    "vectorize.devec_jstar",  # its basis change, the one (d1*d2)^2 array left
}
# The guarded wrapper itself, whose body is the one np.kron call it wraps.
KRON_WRAPPER = "linalg.kron"

# Production functions allowed to build Choi's matrix, and to eigensolve a
# matrix for its PSD verdict, by module-qualified name.  check_cp reads the
# singular values of the stacked blocks instead, so only the choi command
# builds C, and nothing eigensolves it.
CHOI_CALLERS = {"cli.cmd_choi"}
PSD_CALLERS = set()

# Production functions allowed to read the H2 basis, the attribute b2 of a
# BasisPair, by module-qualified name.  The H2 basis cancels from every map,
# so production reads it only for d2; only devec's kron reads U2.  When that
# kron goes, devec_jstar leaves this set and KRON_CALLERS together.
H2_READERS = {"vectorize.BasisPair.d2", "vectorize.devec_jstar"}

# Production functions allowed to read an environment variable, by
# module-qualified name.  A limit or a mode is a constant or a flag instead.
ENV_READERS = set()

# Every float literal below 1e-6 in production, by module-qualified scope
# (the module itself for a module-level literal).
SMALL_LITERALS = sorted([
    ("linalg", 1e-10),  # TOL: the PSD, TP and Hermitian tolerance
    ("vectorize.Basis.__init__", 1e-10),  # unitary_defect bounds
    ("vectorize.Basis.adapted_to", 1e-10),
    ("cli._load_basis", 1e-8),
    ("entangle.rank_from_lambdas", 1e-10),  # the Schmidt rank cutoff
    ("entangle.schmidt", 1e-12),  # the phase cutoff
    ("entangle._check_unit", 1e-8),  # the unit-vector check
    ("bench.run_bench", 1e-8),  # the agreement bound of the two strategies
])

PAPER_NAMES = {name for name, module in hsdual._EXPORTS.items() if module == "paper"}

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
# Criterion 13 holds the CLI's own bounds, which are not catalogue properties.
CLI_CRITERION = "test_acceptance.test_criterion_13_cli_golden"


def parse(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def paper_imports(tree):
    """Every import in tree that loads hsdual.paper."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name == "hsdual.paper"]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".paper", "hsdual.paper"):
                found.append(module)
            elif module in (".", "hsdual"):
                found += [alias.name for alias in node.names if alias.name in PAPER_NAMES | {"paper"}]
    return found


def package_imports(tree):
    """Module-qualified name of each package name tree imports; a module
    imported whole reads as its own name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name.startswith("hsdual")}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("hsdual")):
            module = (node.module or "").removeprefix("hsdual").lstrip(".")
            found |= {f"{module}.{alias.name}".lstrip(".") for alias in node.names}
    return found


def scoped_nodes(node, scope):
    """Every node below node, with the module-qualified name of the
    function or class around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from scoped_nodes(child, f"{scope}.{child.name}")
            continue
        yield scope, child
        yield from scoped_nodes(child, scope)


def callers(tree, module, name):
    """Module-qualified name of the function around each call to a function
    called name, however imported."""
    found = []
    for scope, node in scoped_nodes(tree, module):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                found.append(scope)
    return found


def h2_readers(tree, module):
    """Module-qualified name of the function around each read of an attribute b2."""
    return [
        scope
        for scope, node in scoped_nodes(tree, module)
        if isinstance(node, ast.Attribute) and node.attr == "b2"
    ]


def env_readers(tree, module):
    """Module-qualified name of the function around each use of os.environ
    or os.getenv, however imported."""
    found = []
    for scope, node in scoped_nodes(tree, module):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in ("environ", "getenv"):
            found.append(scope)
    return found


def small_literals(tree, module):
    """(scope, value) of each float literal in tree below 1e-6, zero aside."""
    return [
        (scope, node.value)
        for scope, node in scoped_nodes(tree, module)
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value < 1e-6
    ]


def test_production_never_imports_the_paper_module():
    assert {module: paper_imports(parse(module)) for module in PRODUCTION} == dict.fromkeys(PRODUCTION, [])
    # selftest may, and does: the check sees its import.
    assert paper_imports(parse("selftest")) == [".paper"]


def test_paper_imports_only_the_listed_production_names():
    # Equality: no basis change imported, and no name listed that is no longer.
    assert package_imports(parse("paper")) == PAPER_IMPORTS


def test_production_calls_kron_only_where_listed():
    found = [scope for module in PRODUCTION for scope in callers(parse(module), module, "kron")]
    assert [scope for scope in found if scope not in KRON_CALLERS | {KRON_WRAPPER}] == []
    # The list names no function that has stopped calling kron.
    assert KRON_CALLERS | {KRON_WRAPPER} == set(found)


@pytest.mark.parametrize(
    "name,allowed",
    [
        pytest.param("choi_map", CHOI_CALLERS, id="choi_map"),
        pytest.param("psd_check", PSD_CALLERS, id="psd_check"),
    ],
)
def test_production_builds_and_eigensolves_choi_only_where_listed(name, allowed):
    # check --cp builds no Choi matrix: its verdict comes from the blocks.
    found = {scope for module in PRODUCTION for scope in callers(parse(module), module, name)}
    assert found == allowed


def test_production_reads_the_h2_basis_only_where_listed():
    readers = {scope for module in PRODUCTION for scope in h2_readers(parse(module), module)}
    # Equality: no read outside the set, and no name in it that has stopped reading.
    assert readers == H2_READERS


def test_production_reads_the_environment_only_where_listed():
    readers = {scope for module in PRODUCTION for scope in env_readers(parse(module), module)}
    assert readers == ENV_READERS


def test_production_writes_each_bound_once():
    found = sorted(pair for module in PRODUCTION for pair in small_literals(parse(module), module))
    assert found == SMALL_LITERALS


def test_acceptance_criteria_leave_bounds_to_the_catalogue():
    found = small_literals(ast.parse(ACCEPTANCE.read_text()), "test_acceptance")
    assert [pair for pair in found if pair[0] != CLI_CRITERION] == []


def test_acceptance_criteria_run_the_whole_catalogue():
    run = {
        node.attr
        for scope, node in scoped_nodes(ast.parse(ACCEPTANCE.read_text()), "test_acceptance")
        if scope.startswith("test_acceptance.test_criterion_")
        and scope != CLI_CRITERION
        and isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "catalogue"
    }
    assert run == {prop.__name__ for props in selftest.SUITES.values() for prop, *_ in props}
