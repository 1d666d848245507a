"""Every name a ``repro`` module exports in ``__all__`` resolves.

A module's ``__all__`` is its public surface (``from module import *``
and the docs read it), so a name left behind by a deletion or a rename
must fail here rather than at a user's import.
"""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        missing += [
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not missing, missing
