"""Source hygiene of the package, read with the standard library's ast."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from chasedet.channel import WhitenedModel

from draws import iid_complex_gaussian

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chasedet"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _tree(module: str) -> ast.Module:
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _loaded(tree: ast.Module) -> set:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _defined(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = _tree(module)
    assert sorted(_imported(tree) - _loaded(tree)) == []


def _tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _tracing_wraps() -> tuple:
    return _tracing().WRAPS


def test_traced_names_are_module_globals():
    # The benchmark's tracer replaces module attributes by name, so each
    # traced function must be defined by its module or looked up there as a
    # global at call time; a call through another module would go untraced.
    missing = []
    for module, attr, *_ in _tracing_wraps():
        tree = _tree(module)
        if attr not in _defined(tree) | _loaded(tree):
            missing.append(f"{module}.{attr}")
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_traced_tuple_holds_only_wrap_targets(module):
    # A module's _TRACED tuple keeps names the tracer wraps there but the
    # module no longer calls; a name it does not wrap there would be a dead
    # import that the tuple hides from test_no_unused_imports.
    held = [
        elt.id
        for node in _tree(module).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_TRACED"
        for elt in node.value.elts
    ]
    wrapped = {attr for mod, attr, *_ in _tracing_wraps() if mod == module}
    assert sorted(set(held) - wrapped) == []


def _package_names_read(source: str) -> set:
    """Names a source takes from the chasedet package itself, not a submodule."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "chasedet" and not node.level:
            names.update(a.name for a in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "chasedet"
        ):
            names.add(node.attr)
    return names - set(MODULES)


def _readme_example() -> str:
    readme = (ROOT / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    return example


def test_public_surface_is_what_callers_use():
    # chasedet exports exactly the names the README example imports from it
    # and the ones perfbench reads as chasedet.<name>; the tests and every
    # other caller import from the submodules.
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    (exported,) = [
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    ]
    used = _package_names_read(_readme_example())
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _package_names_read(path.read_text())
    assert sorted(exported) == sorted(used)


def _import_names(module: str) -> list:
    """Every module and name an import statement of the module mentions."""
    names = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    return names


@pytest.mark.parametrize("module", ("chase", "lchase", "bchase"))
def test_detection_path_imports_no_oracle(module):
    # The oracle gates compare the detectors with chasedet.reference; a
    # detector that used the oracle would be compared with itself.
    assert [name for name in _import_names(module) if "reference" in name.split(".")] == []


@pytest.mark.parametrize("module", ("chase", "lchase", "bchase", "reference"))
def test_detection_path_imports_no_cost_model(module):
    # The cost model lives in chasedet.counters alone; a detector that
    # counted its own work would be a second model to keep in step with it.
    assert [name for name in _import_names(module) if "counters" in name.split(".")] == []


@pytest.mark.parametrize("detector", ("lchase", "bchase"))
def test_traced_context_count_is_streams_times_uses(detector):
    # The benchmark's tracer counts the contexts a detect call receives as
    # len(ctx) * len(ctx[0]), so prepared contexts must keep their
    # (streams, uses) leading axes.
    module = importlib.import_module(f"chasedet.{detector}")
    rng = np.random.default_rng(0)
    n_streams, n_rx, uses = 3, 4, 5
    h = iid_complex_gaussian(rng, (uses, n_rx, n_streams))
    y = iid_complex_gaussian(rng, (uses, n_rx))
    contexts = module.prepare_all_uses(WhitenedModel(y=y, h=h))
    counts = Counter()
    _tracing()._count_contexts(detector)(counts, (contexts,), None)
    assert counts == {f"{detector}.contexts": n_streams * uses}


def _top_level_definitions(tree: ast.Module):
    """Names of a module's functions and classes and of their classes'
    methods; dunder methods are called by the language, so they are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name


def _names_read(tree: ast.AST) -> set:
    """Names loaded, bare or as an attribute, outside a definition of that name."""
    names = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        if name is not None and name not in inside:
            names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return names


def test_every_definition_is_read_outside_tests():
    # A function, class or method that only tests call is dead weight: each
    # must be read by the package, by perfbench or by the README example.
    # Names are matched by name alone, not resolved.
    sources = [p.read_text() for p in PACKAGE.glob("*.py")]
    sources += [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    read = set().union(*(_names_read(ast.parse(src)) for src in sources + [_readme_example()]))
    unread = [
        f"{module}.{name}"
        for module in MODULES
        for name in _top_level_definitions(_tree(module))
        if name not in read
    ]
    assert unread == []


def test_single_process_run_loads_no_multiprocessing():
    # Only a pooled run needs the process-pool machinery, so importing the
    # package and validating a config leave multiprocessing unloaded.
    code = (
        "import sys, chasedet\n"
        "from chasedet.simcli import SimConfig, validate_config\n"
        "validate_config(SimConfig())\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
