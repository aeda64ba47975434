"""The three compiled LAPACK and BLAS routines of the Newton step, loaded
from scipy's f2py extension modules without importing `scipy.linalg`.

`import scipy.linalg` costs about 0.23 s and 17 MB per process, mostly
scipy's array-API layer, for three routines: the in-place Cholesky
`dpotrf`, the triangular solve `dtrtrs` and the rank-2k update `dsyr2k`
(`alm`, `lagrangian`).  Every other decomposition of the package is
numpy's.  This module loads `scipy/linalg/_flapack` and `_fblas` as
anonymous extension modules: neither enters `sys.modules` and
`scipy/linalg/__init__.py` never runs.  The functions are the ones
`scipy.linalg.lapack` and `scipy.linalg.blas` re-export, so every result
keeps its bits.  It is the only module of the package that names scipy;
`tests/test_lapack.py` checks that and fails with the missing name if
scipy renames a wrapper.
"""

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import scipy  # runs scipy's platform set-up (DLL paths), not scipy.linalg

_FINDER = FileFinder(os.path.join(scipy.__path__[0], "linalg"),
                     (ExtensionFileLoader, EXTENSION_SUFFIXES))


def _extension(name: str):
    """The extension module scipy/linalg/<name>, executed but not registered,
    or the registered one where scipy.linalg was imported first."""
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = _FINDER.find_spec(fullname)
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled {fullname}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # CPython registers a single-phase extension module under its name, and a
    # later `import scipy.linalg` would then not bind it to the package
    sys.modules.pop(fullname, None)
    return module


_flapack, _fblas = _extension("_flapack"), _extension("_fblas")
dpotrf, dtrtrs = _flapack.dpotrf, _flapack.dtrtrs
dsyr2k = _fblas.dsyr2k
