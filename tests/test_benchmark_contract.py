"""The benchmark still fits the package it runs.

``perfbench/tracing.py`` names public ``semidlab`` functions it wraps by
module and attribute; a traced run stops with ``TracePatchError`` when
one of them is gone. The workloads and the benchmark's own tests read
``semidlab`` module attributes directly. These tests read the benchmark's
files, edit nothing in them, and check that every wrapped name and every
attribute they read resolves, and that the wrappers install and restore
cleanly, so a deleted or renamed function fails here and not only in a
benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves():
    tracing = load_tracing()
    missing = [
        span for span, (module, attr) in tracing.WRAPPED_FUNCTIONS.items()
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.WRAPPED_FUNCTIONS and missing == []


def test_wrappers_install_and_restore():
    tracing = load_tracing()
    patcher = tracing.Patcher(tracing.Tracer())
    try:
        patcher.install()
    finally:
        patcher.restore()


def semidlab_references(source: str) -> list:
    """(line, module, attribute) of every ``semidlab`` module attribute that
    ``source`` reads: ``name.attr`` for a module bound by ``from semidlab
    import module`` or ``import semidlab.module as name``, and each name of
    ``from semidlab.module import name``."""
    tree = ast.parse(source)
    modules, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "semidlab":
            modules.update((a.asname or a.name, "semidlab." + a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("semidlab."):
            refs += [(node.lineno, node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            modules.update((a.asname, a.name) for a in node.names if a.name.startswith("semidlab.") and a.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            refs.append((node.lineno, modules[node.value.id], node.attr))
    return sorted(refs)


def unresolved(refs) -> list:
    return [ref for ref in refs if not hasattr(importlib.import_module(ref[1]), ref[2])]


def test_every_semidlab_attribute_the_benchmark_reads_resolves():
    refs = {path.name: semidlab_references(path.read_text(encoding="utf-8")) for path in sorted(PERFBENCH.glob("*.py"))}
    assert refs["workloads.py"] and refs["test_perfbench.py"]
    assert [(name, *ref) for name, r in refs.items() for ref in unresolved(r)] == []


def test_a_deleted_attribute_is_reported():
    source = (
        "import semidlab.tensor as T\n"
        "from semidlab import corpus\n"
        "from semidlab.rqvae import load_semid_table, save_rqvae_table\n"
        "corpus.drop_users(corpus.generate_users(T.relu))\n"
    )
    refs = semidlab_references(source)
    assert refs == [
        (3, "semidlab.rqvae", "load_semid_table"),
        (3, "semidlab.rqvae", "save_rqvae_table"),
        (4, "semidlab.corpus", "drop_users"),
        (4, "semidlab.corpus", "generate_users"),
        (4, "semidlab.tensor", "relu"),
    ]
    assert unresolved(refs) == [(3, "semidlab.rqvae", "save_rqvae_table"), (4, "semidlab.corpus", "drop_users")]


def test_only_reads_of_semidlab_modules_are_references():
    source = (
        "import numpy as np\n"
        "import semidlab.corpus\n"
        "from semidlab import ranker as r, rqvae\n"
        "r.score_candidates = np.zeros\n"
        "np.gone(rqvae.assign, r.RankerModel)\n"
    )
    assert semidlab_references(source) == [
        (5, "semidlab.ranker", "RankerModel"),
        (5, "semidlab.rqvae", "assign"),
    ]


def test_every_semidlab_import_of_the_benchmark_binds_a_module_the_walk_follows():
    # ``import semidlab.corpus`` unaliased, or a function taken by ``from
    # semidlab import``, would hide its reads from semidlab_references
    imports = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, a.name, a.asname) for a in node.names if a.name.split(".")[0] == "semidlab"]
            elif isinstance(node, ast.ImportFrom) and node.module == "semidlab":
                imports += [(path.name, "semidlab." + a.name, a.asname or a.name) for a in node.names]
    assert len(imports) >= 10
    assert [i for i in imports if i[2] is None] == []
    assert all(importlib.import_module(name).__name__ == name for _, name, _ in imports)
