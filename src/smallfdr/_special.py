"""SciPy's compiled special functions, loaded when a kernel first fetches one.

The functions come from ``scipy.special._ufuncs``, the compiled module that
``scipy.special`` re-exports.  Importing the ``scipy.special`` package also
loads SciPy's array-API layer, which costs about as much as the rest of a
command, so this module loads ``_ufuncs`` without running the package's
``__init__``: it puts a bare ``scipy.special`` package (path and spec, no
code run) in ``sys.modules`` for the import and always takes it out again.
It does so only while ``scipy.special`` is not imported yet and the process
has one thread, so that no other code can see the bare package.  Otherwise,
or when that load fails in any way, it runs ``from scipy import special``
and reads the same module as ``special._ufuncs``, so both ways serve the
same function objects and every result has the same bits.  A later
``import scipy.special`` reuses the loaded ``_ufuncs``.

Commands whose kernels call no special function (``bh``, ``lfdr --estimator
mle``) load none of SciPy.  Modules import this one as ``special`` and call
``special.betainc(...)``.  ``_ufuncs`` names digamma ``psi`` and has no
``polygamma``; the trigamma ``polygamma(1, a)`` is ``_zeta(2.0, a)``, which
SciPy multiplies by ``(-1.0)**2 * gamma(2.0)``, exactly 1.0.
"""


def _bare_ufuncs():
    """``scipy.special._ufuncs``, imported under a bare ``scipy.special`` package."""
    import importlib
    import importlib.util
    import sys

    package = importlib.util.module_from_spec(importlib.util.find_spec("scipy.special"))
    sys.modules["scipy.special"] = package
    try:
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        if sys.modules.get("scipy.special") is package:
            del sys.modules["scipy.special"]


def _load():
    """The ``_ufuncs`` module, without the package's ``__init__`` where that is safe."""
    import sys
    import threading

    if "scipy.special" not in sys.modules and threading.active_count() == 1:
        try:
            return _bare_ufuncs()
        except Exception:  # whatever a SciPy layout this load does not know raises
            pass
    from scipy import special

    return special._ufuncs


_ufuncs = None


def __getattr__(name: str):
    global _ufuncs
    if _ufuncs is None:
        _ufuncs = _load()
    value = getattr(_ufuncs, name)
    globals()[name] = value  # later lookups find it without this call
    return value
