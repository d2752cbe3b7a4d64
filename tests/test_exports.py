"""Every name a module of ``repro`` exports in ``__all__`` resolves."""

from __future__ import annotations

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    names = [repro.__name__] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, prefix=repro.__name__ + ".")]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{exported}" for exported in getattr(module, "__all__", ())
                    if not hasattr(module, exported)]
    assert len(names) > 50
    assert missing == []
