"""The benchmark still fits the package it runs.

``perfbench/tracing.py`` names public ``semidlab`` functions it wraps by
module and attribute; a traced run stops with ``TracePatchError`` when
one of them is gone. The workloads and the benchmark's own tests read
``semidlab`` module attributes directly. These tests read the benchmark's
files, edit nothing in them, and check that every wrapped name and every
attribute they read resolves, that every call they make into ``semidlab``
binds to its callee's signature, and that the wrappers install and
restore cleanly, so a deleted or renamed function, a dropped keyword or a
changed arity fails here and not only in a benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
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


def semidlab_imports(tree: ast.Module) -> tuple[dict, dict]:
    """(modules, names) of a parsed source: each name ``from semidlab import
    module`` or ``import semidlab.module as name`` binds to its module, and
    each name ``from semidlab.module import name`` binds to (line, module,
    attribute)."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "semidlab":
            modules.update((a.asname or a.name, "semidlab." + a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("semidlab."):
            names.update((a.asname or a.name, (node.lineno, node.module, a.name)) for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update((a.asname, a.name) for a in node.names if a.name.startswith("semidlab.") and a.asname)
    return modules, names


def semidlab_references(source: str) -> list:
    """(line, module, attribute) of every ``semidlab`` module attribute that
    ``source`` reads: ``name.attr`` for a module bound by ``from semidlab
    import module`` or ``import semidlab.module as name``, and each name of
    ``from semidlab.module import name``."""
    tree = ast.parse(source)
    modules, names = semidlab_imports(tree)
    refs = list(names.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            refs.append((node.lineno, modules[node.value.id], node.attr))
    return sorted(refs)


def semidlab_calls(source: str) -> list:
    """(line, module, attribute chain, positional count, keyword names) of
    every call ``source`` makes to a ``semidlab`` name: ``module.f(...)``,
    ``module.Class.method(...)`` and ``f(...)`` for ``f`` taken by ``from
    semidlab.module import f``. The positional count is None for a call
    that unpacks ``*args``; ``**kwargs`` adds no keyword name."""
    tree = ast.parse(source)
    modules, names = semidlab_imports(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.insert(0, func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            continue
        if func.id in modules and chain:
            module = modules[func.id]
        elif func.id in names:
            _, module, attr = names[func.id]
            chain.insert(0, attr)
        else:
            continue
        positional = None if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
        keywords = tuple(k.arg for k in node.keywords if k.arg is not None)
        calls.append((node.lineno, module, ".".join(chain), positional, keywords))
    return sorted(calls, key=lambda call: call[:3])


def unbound(calls) -> list:
    """The calls whose positional count and keyword names do not bind to
    their callee's signature (``inspect.Signature.bind_partial``). A chain
    that does not resolve is left to ``unresolved``."""
    out = []
    for call in calls:
        _, module, chain, positional, keywords = call
        target = importlib.import_module(module)
        try:
            for attr in chain.split("."):
                target = getattr(target, attr)
        except AttributeError:
            continue
        try:
            inspect.signature(target).bind_partial(*[None] * (positional or 0), **dict.fromkeys(keywords))
        except TypeError:
            out.append(call)
    return out


def unresolved(refs) -> list:
    return [ref for ref in refs if not hasattr(importlib.import_module(ref[1]), ref[2])]


def test_every_semidlab_attribute_the_benchmark_reads_resolves():
    refs = {path.name: semidlab_references(path.read_text(encoding="utf-8")) for path in sorted(PERFBENCH.glob("*.py"))}
    assert refs["workloads.py"] and refs["test_perfbench.py"]
    assert [(name, *ref) for name, r in refs.items() for ref in unresolved(r)] == []


def test_every_semidlab_call_the_benchmark_makes_binds():
    calls = {path.name: semidlab_calls(path.read_text(encoding="utf-8")) for path in sorted(PERFBENCH.glob("*.py"))}
    chains = {call[2] for call in calls["workloads.py"]}
    assert {"click_loss_analog", "evaluate", "RankerModel.initialize", "RandomHash"} <= chains
    assert [(name, *call) for name, c in calls.items() for call in unbound(c)] == []


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


def test_a_call_that_no_longer_binds_is_reported():
    source = (
        "import numpy as np\n"
        "from semidlab import analysis, ranker as r\n"
        "from semidlab.corpus import inject_aa_pairs as copies\n"
        "analysis.aar_report(pairs, epsilon=1e-9)\n"
        "analysis.aar(0.1, 0.2, 0.3, 0.4)\n"
        "analysis.aar(*pair, 0.1, 0.2, eps=0.0)\n"
        "r.RankerModel.initialize(cfg, a, b).params\n"
        "r.RankerModel.initialize(cfg, a, b, c)\n"
        "copies(items, 3, window, seed=1, **more)\n"
        "copies(items, 3, window, salt=1)\n"
        "np.mean(r.score(model, [], True, 4)); r.gone(1); model.forward(x)\n"
    )
    calls = semidlab_calls(source)
    assert calls == [
        (4, "semidlab.analysis", "aar_report", 1, ("epsilon",)),
        (5, "semidlab.analysis", "aar", 4, ()),
        (6, "semidlab.analysis", "aar", None, ("eps",)),
        (7, "semidlab.ranker", "RankerModel.initialize", 3, ()),
        (8, "semidlab.ranker", "RankerModel.initialize", 4, ()),
        (9, "semidlab.corpus", "inject_aa_pairs", 3, ("seed",)),
        (10, "semidlab.corpus", "inject_aa_pairs", 3, ("salt",)),
        (11, "semidlab.ranker", "gone", 1, ()),
        (11, "semidlab.ranker", "score", 4, ()),
    ]
    # the starred call skips its positional check; the unresolved name is
    # the attribute walk's to report
    assert [call[0] for call in unbound(calls)] == [4, 5, 8, 10, 11]
    assert unbound(calls)[-1][2] == "score"


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
