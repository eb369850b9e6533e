"""Numerical laboratory for switched, delayed reaction-diffusion networks.

Subpackages: geometry (domains, grids, discrete Laplacian, Helmholtz solves),
model (network data and sampled assumption checks), certificates (stability
feasibility and search), stationary (elliptic solvers, energy minimization,
Newton by preconditioned GMRES), simulator (delayed integration, switching),
presets (benchmark systems), schema (system files and results), cli.
"""

from .certificates import (Certificate, check_uniqueness_A3, margin_matrices,
                           search_certificate, solve_rate_equation,
                           verify_certificate)
from .geometry import (Grid, RectDomain, apply_laplacian, eigenfunction,
                       first_eigenvalue, helmholtz_solve, l2_inner, l2_norm)
from .model import (Activation, Mode, SwitchedNetwork, Verdict,
                    check_A1_sampled, constant_delay, piecewise_cbrt,
                    piecewise_cbrt_antiderivative, signed_cbrt,
                    stationarity_map)
from .schema import (SystemFileError, dump_system, load_system,
                     write_field_csv, write_report, write_trajectory_csv)
from .simulator import (BlowUpError, DecayEstimate, History,
                        HistoryUnderrunError, SimConfig, Trajectory,
                        estimate_decay_rate, simulate, simulate_ode,
                        switching_decide)
from .stationary import (DivergenceError, StationaryProblem, energy_eval,
                         energy_gradient, find_stationary_multiplicity,
                         fixed_point_solve, residual, statement1_closed_form,
                         statement1_profile, variational_minimize)

__version__ = "1.0.0"
