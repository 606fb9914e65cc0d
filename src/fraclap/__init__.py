"""Fractional powers of graph Laplacians and the dynamics they drive.

Library layout:

- :mod:`fraclap.graphs`: graph loading and Laplacian construction.
- :mod:`fraclap.generators`: canonical test graphs.
- :mod:`fraclap.matfun`: fractional matrix powers (spectral and Schur).
- :mod:`fraclap.walks`: fractional jump kernels, walks, absorption,
  return probabilities.
- :mod:`fraclap.decay`: entry decay bounds and numerical range profiles.
- :mod:`fraclap.superdiff`: infinite-lattice solutions, stable limits,
  spreading exponents.
- :mod:`fraclap.consensus`: second-order consensus with fractional
  coupling.
- :mod:`fraclap.cli`: command-line driver.
"""

__version__ = "0.1.0"

from .consensus import (ConsensusConfig, ConsensusState, GammaBound,
                        TargetTrajectory, circle_relocation_config,
                        consensus_error_curve, gamma_lower_bound,
                        simulate_consensus, static_formation)
from .decay import (DecayReport, NumericalRangeProfile, distance_decay_slope,
                    numerical_range_profile, verify_decay_bounds,
                    verify_p_alpha_bound)
from .errors import ConvergenceError, GraphFormatError, NumericalError
from .generators import (cycle_graph, grid_graph, path_graph,
                         random_connected_graph, random_geometric_graph)
from .graphs import (DenseOperator, Graph, LaplacianKind, build_laplacian,
                     load_edge_list)
from .matfun import (FractionalPowerResult, MMatrixReport, SpectralData,
                     binomial_coefficients, exp_fractional_symmetric,
                     fractional_power, fractional_power_general,
                     fractional_power_series, fractional_power_symmetric,
                     matrix_exponential, schur_spectral_data,
                     symmetric_spectral_data, verify_m_matrix)
from .superdiff import (ExponentFit, LatticeSolution, StableParams,
                        WindowStats, fwhm, lattice_solution, lattice_symbol,
                        lattice_window_stats, stable_density,
                        stable_limit_params, superdiffusion_exponent,
                        verify_stable_limit)
from .walks import (AbsorptionResult, ReturnProbabilityCurve, TrajectoryResult,
                    TransitionKernel, absorption_time_samples,
                    cycle_entry_limit, cycle_fractional_entries,
                    evolve_continuous, expected_absorption_steps,
                    path_fractional_entries, path_transition_asymptotic,
                    return_probability, simulate_discrete,
                    stationary_distribution, transition_kernel)

__all__ = [name for name in dir() if not name.startswith("_")]
