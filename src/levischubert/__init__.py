"""Levi actions on type A Schubert varieties: stability, degree-1 heads,
toroidal necessary conditions, and parabolic factorizations."""

from . import bp, classify, grassmann, levi, sweeps, toroidal, weyl
from .grassmann import GrassmannSchubert
from .levi import HeadReport
from .weyl import Perm, RankLimitError

__version__ = "0.1.0"

__all__ = [
    "bp", "classify", "grassmann", "levi", "sweeps", "toroidal", "weyl",
    "GrassmannSchubert", "HeadReport", "Perm", "RankLimitError",
]
