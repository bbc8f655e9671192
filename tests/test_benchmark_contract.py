"""The benchmark's tracer still fits the package it wraps.

``perfbench/tracing.py`` names public ``semidlab`` functions it wraps by
module and attribute; a traced run stops with ``TracePatchError`` when
one of them is gone. These tests load the tracer by path, edit nothing
in it, and check that every wrapped name resolves and that the wrappers
install and restore cleanly, so a deleted or renamed traced function
fails here and not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
