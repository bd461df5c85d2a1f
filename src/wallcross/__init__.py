"""Exact wall-crossing difference terms for Donaldson invariants of
algebraic surfaces with b+ = 1 and irregularity q >= 0, for walls of
length 0 and 1, with an independent cohomology-ring oracle."""

__version__ = "0.1.0"

from .chern import (ChernData, ch_direct_sum, ch_dual, chern_data_from_element,
                    chern_from_ch, segre_from_ch, total_chern)
from .closed import (DeltaValue, delta_l0, delta_l0_odd, delta_l1,
                     delta_leading, leading_insertion_class, segre_det_closed,
                     segre_det_determinant, segre_det_recursive,
                     segre_sum_closed)
from .delta import evaluate
from .errors import (InvalidWallError, InvariantError, ModelMismatchError,
                     PreconditionError, RegimeError, SchemaError, WallCrossError)
from .graded import (GradedElement, ModelSpec, SIGMA, exp_truncated, integrate,
                     integrate_jacobian, inverse_unit_series, term_list, to_json)
from .jacobian import (InsertionWord, PairingInput, Pairings, build_model,
                       e_alpha, e_divisor, e_gamma, e_zeta, e_zeta_beta,
                       jacobian_odd_integral, volume)
from .oracle import ch_extension_bundles, delta_oracle_l0, delta_oracle_l1
from .surfaces import (SurfaceData, custom_surface, enumerate_walls, odd_ruled,
                       product_ruled)
from .walls import (WallGeometry, complex_orientation_sign, wall_params,
                    wall_sign)

__all__ = [name for name in dir() if not name.startswith("_")]
