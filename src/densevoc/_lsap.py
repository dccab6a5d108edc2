"""scipy's compiled assignment solver, without importing ``scipy.optimize``.

The package import of ``scipy.optimize`` costs about 0.4 s (it pulls in
``scipy.linalg``, ``scipy.special`` and the array-API layer), while the
solver is one extension file. This module loads that file directly. Its name
must end in ``_lsap``, the extension's init symbol being ``PyInit__lsap``.
Where the file is not found (another scipy layout), the public import is
used instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def _extension_path() -> str | None:
    spec = importlib.util.find_spec("scipy")  # locates the package, imports nothing
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_lsap" + suffix)
            if os.path.isfile(path):
                return path
    return None


_PATH = _extension_path()
if _PATH is None:
    from scipy.optimize import linear_sum_assignment
else:
    _self = sys.modules[__name__]
    _loader = importlib.machinery.ExtensionFileLoader(__name__, _PATH)
    _module = importlib.util.module_from_spec(importlib.util.spec_from_loader(__name__, _loader))
    _loader.exec_module(_module)
    sys.modules[__name__] = _self  # a single-phase extension registers itself under its name
    linear_sum_assignment = _module.linear_sum_assignment
