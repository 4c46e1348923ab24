"""renormlab: a numerical laboratory for period-doubling renormalization.

Modules
-------
series       truncated even power series (the analytic unimodal class)
renorm1d     1-D doubling renormalization, fixed point, linearization
renorm_nd    disks of the n-disk, renormalizability checks, refits
cascade      the polynomial map class MapND (any n >= 1), one-parameter
             families, orbits, doubling cascades, Lyapunov
attractor    nested Cantor-attractor atoms and scaling ratios
persistence  persistence function a, manifold chart b, shift law
cli          reproducible command-line experiments
"""

from .series import AnalyticUnimodal, cheb_nodes, evaluate, sup_distance, sup_norm
from .renorm1d import (FixedPointResult, LinearizationResult, lambda_of,
                       linearize, renormalize, residual, solve_fixed_point)
from .renorm_nd import (DiskND, DiskSearch, RenormCheck, ball_samples,
                        check_renormalizable, distance_to_standard,
                        renormalize_nd, search_renorm_disk, standard_fct_map)
from .cascade import (AccumulationEstimate, CascadeResult, DoubleDouble, MapND,
                      OneParamFamily, accumulation_parameter, cascade_tangents,
                      find_doubling_bifurcation, henon_family, linear_family,
                      logistic_family, lyapunov_exponent, orbit,
                      orbit_multiplier, periodic_orbit, recenter, run_cascade)
from .attractor import (AtomTree, atom_diameters, box_diameters, build_atoms,
                        scaling_ratios, verify_periodic_saddles)
from .persistence import (PersistenceChart, build_chart, chart_b, chart_gradient,
                          persistence_a, verify_shift_property)
from . import errors

__version__ = "0.1.0"
