"""The arithmetic kernels that ``algebra`` calls, implemented in ``_kernels_py``.

The names are re-exported here, in a module of their own, so that a
profiler wrapping ``kernels.bgcd``, ``kernels.pmul`` or ``kernels.bdivexact``
counts the calls ``algebra`` makes and not the exact divisions that
``bgcd`` runs inside ``_kernels_py`` to prove each result.  Those divisions
are the only ones by a gcd: ``bgcd`` returns the gcd as a list that carries
their quotients, the cofactors, which ``algebra`` uses instead of dividing
again.
"""

from ._kernels_py import bdivexact, bgcd, padd, pmul, pscale

__all__ = ["BACKEND", "bdivexact", "bgcd", "padd", "pmul", "pscale"]

# the kernel implementation in use, as the benchmark worker reports it
BACKEND = "python"
