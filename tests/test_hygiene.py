"""Source hygiene of the package, read with the standard library's ast."""

import ast
import importlib.util
import re
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
    readme = (ROOT / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    used = _package_names_read(example)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _package_names_read(path.read_text())
    assert sorted(exported) == sorted(used)


@pytest.mark.parametrize("module", ("chase", "lchase", "bchase"))
def test_detection_path_imports_no_oracle(module):
    # The oracle gates compare the detectors with chasedet.reference; a
    # detector that used the oracle would be compared with itself.
    names = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    assert [name for name in names if "reference" in name.split(".")] == []


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
