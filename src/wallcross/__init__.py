"""Exact wall-crossing difference terms for Donaldson invariants of
algebraic surfaces with b+ = 1 and irregularity q >= 0, for walls of
length 0 and 1, with an independent cohomology-ring oracle.

The package namespace holds the API the README documents; every other name
is imported from its module (``wallcross.graded``, ``wallcross.oracle``, ...).
"""

__version__ = "0.1.0"

from .delta import evaluate
from .errors import (InvalidWallError, InvariantError, PreconditionError, RegimeError,
                     SchemaError, WallCrossError)
from .jacobian import DeltaValue, InsertionWord, PairingInput, Pairings, build_model, volume
from .walls import WallGeometry

__all__ = ["DeltaValue", "InsertionWord", "InvalidWallError", "InvariantError", "PairingInput",
           "Pairings", "PreconditionError", "RegimeError", "SchemaError", "WallCrossError",
           "WallGeometry", "build_model", "evaluate", "volume"]
