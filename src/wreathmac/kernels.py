"""Select the compiled arithmetic kernels, falling back to pure Python.

Set ``WREATHMAC_PURE=1`` to force the pure-Python kernels
(``benchmarks/bench_kernels.py`` does so to compare the two backends).
The bivariate gcd ``bgcd`` is the pure-Python heuristic gcd under both
backends: it has no compiled twin.
"""

import os

from . import _kernels_py

if os.environ.get("WREATHMAC_PURE") == "1":
    _impl = _kernels_py
    BACKEND = "python"
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]

        BACKEND = "cython"
    except ImportError:
        _impl = _kernels_py
        BACKEND = "python"

pmul = _impl.pmul
padd = _impl.padd
pscale = _impl.pscale
bmul = _impl.bmul
bdivexact = _impl.bdivexact
btrim = _impl.btrim
bgcd = _kernels_py.bgcd
