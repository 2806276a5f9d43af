"""The end-to-end benchmark's layer tracer still finds every hook it patches.

``e2ebench/layers.py`` wraps engine, transport, messaging, node and store
methods by name.  A rename in ``src/`` would otherwise only surface when the
benchmark itself runs; here installing the tracer must resolve every name,
and uninstalling it must leave each patched class or module as it was.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

_E2EBENCH = Path(__file__).resolve().parent.parent / "e2ebench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(_E2EBENCH))
    import layers as module

    yield module
    sys.modules.pop("layers", None)


def test_install_resolves_every_hook_and_uninstall_restores_it(layers):
    # Every patched owner is a class or module the tracer imports by name.
    before = {
        id(owner): dict(vars(owner))
        for owner in vars(layers).values()
        if isinstance(owner, (type, types.ModuleType))
    }
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        patched = [(owner, attribute) for owner, attribute, _ in tracer._patches]
        assert patched
        for owner, attribute in patched:
            assert id(owner) in before
            assert vars(owner)[attribute] is not before[id(owner)].get(attribute)
    finally:
        tracer.uninstall()
    for owner, attribute in patched:
        if attribute in before[id(owner)]:
            assert vars(owner)[attribute] is before[id(owner)][attribute]
        else:
            # An inherited method: uninstall drops the override again.
            assert attribute not in vars(owner)

