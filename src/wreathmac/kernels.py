"""Select the compiled arithmetic kernels, falling back to pure Python.

Set ``WREATHMAC_PURE=1`` to force the pure-Python kernels
(``benchmarks/bench_kernels.py`` does so to compare the two backends).
"""

import os

if os.environ.get("WREATHMAC_PURE") == "1":
    from . import _kernels_py as _impl

    BACKEND = "python"
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]

        BACKEND = "cython"
    except ImportError:
        from . import _kernels_py as _impl

        BACKEND = "python"

pmul = _impl.pmul
padd = _impl.padd
pscale = _impl.pscale
umul = _impl.umul
uadd = _impl.uadd
uscale = _impl.uscale
ugcd = _impl.ugcd
udivexact = _impl.udivexact
bmul = _impl.bmul
bgcd = _impl.bgcd
bdivexact = _impl.bdivexact
bdivexact_u = _impl.bdivexact_u
bcontent = _impl.bcontent
bscale_u = _impl.bscale_u
btrim = _impl.btrim
