"""The paper's constructions in hsdual.paper are oracles only.

No production module imports hsdual.paper, and production builds Kronecker
products only in the functions named below.  Both rules are read off the
source, so they hold for every input, not only the ones a test runs.
"""

import ast
from pathlib import Path

import hsdual

PACKAGE = Path(hsdual.__file__).resolve().parent

# The modules a CLI command other than selftest may load, and the entry.
PRODUCTION = ("cli", "io", "linalg", "vectorize", "superop", "entangle", "bench", "__main__")

# Production functions allowed to call kron, by module-qualified name.
KRON_CALLERS = {
    "vectorize._product_coefficients",  # the basis change of devec_jstar and partial_slice
}
# The guarded wrapper itself, whose body is the one np.kron call it wraps.
KRON_WRAPPER = "linalg.kron"

PAPER_NAMES = {name for name, module in hsdual._EXPORTS.items() if module == "paper"}


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


def kron_callers(tree, module):
    """Module-qualified name of the function around each call to a kron."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "kron":
                    found.append(scope)
            visit(child, scope)

    visit(tree, module)
    return found


def test_production_never_imports_the_paper_module():
    assert {module: paper_imports(parse(module)) for module in PRODUCTION} == dict.fromkeys(PRODUCTION, [])
    # selftest may, and does: the check sees its import.
    assert paper_imports(parse("selftest")) == [".paper"]


def test_production_calls_kron_only_where_listed():
    callers = [scope for module in PRODUCTION for scope in kron_callers(parse(module), module)]
    assert [scope for scope in callers if scope not in KRON_CALLERS | {KRON_WRAPPER}] == []
    # The list names no function that has stopped calling kron.
    assert KRON_CALLERS | {KRON_WRAPPER} == set(callers)
