"""Exact engine for E-polynomials and conjectural mixed Hodge polynomials of
twisted character varieties of branched double covers, built on wreath
Macdonald polynomials and two-alphabet symmetric functions, with a
finite-field brute-force oracle for independent verification at small rank.
"""

__version__ = "0.1.0"

from .algebra import LaurentPoly, RatFun

__all__ = [
    "LaurentPoly",
    "RatFun",
    "__version__",
]
