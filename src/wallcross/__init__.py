"""Exact wall-crossing difference terms for Donaldson invariants of
algebraic surfaces with b+ = 1 and irregularity q >= 0, for walls of
length 0 and 1, with an independent cohomology-ring oracle.

The package namespace holds the API the README documents; every other name
is imported from its module (``wallcross.graded``, ``wallcross.oracle``, ...).
"""

__version__ = "0.1.0"

from .closed import DeltaValue, delta_l0, delta_l1, delta_leading
from .delta import evaluate
from .errors import (InvalidWallError, InvariantError, PreconditionError, RegimeError,
                     SchemaError, WallCrossError)
from .jacobian import InsertionWord, PairingInput, Pairings, build_model, volume
from .oracle import delta_oracle_l1
from .walls import WallGeometry

__all__ = ["DeltaValue", "InsertionWord", "InvalidWallError", "InvariantError", "PairingInput",
           "Pairings", "PreconditionError", "RegimeError", "SchemaError", "WallCrossError",
           "WallGeometry", "build_model", "delta_l0", "delta_l1", "delta_leading",
           "delta_oracle_l1", "evaluate", "volume"]
