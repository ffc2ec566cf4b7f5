"""``scipy.special``, imported when a kernel first fetches a function from it.

Importing ``scipy.special`` loads SciPy's array-API layer, which costs about
as much as the rest of ``import smallfdr.cli``; commands whose kernels call
no special function (``bh``, ``lfdr --estimator mle``) never pay for it.
Modules import this one as ``special`` and call ``special.betainc(...)``.
"""


def __getattr__(name: str):
    from scipy import special

    value = getattr(special, name)
    globals()[name] = value  # later lookups find it without this call
    return value
