"""specgap: spectral-gap brackets for spherically symmetric measures.

Closed-form two-sided bounds on the Poincare constant of log-concave and
heavy-tailed rotationally invariant measures on R^n, cross-validated by an
independent Sturm-Liouville eigensolver for the radial dynamics and by
Monte Carlo Rayleigh quotients.
"""

from .bounds_engine import (CandidateFunction, ExpPowerBrackets, LowerBound,
                            curvature_lower, exp_power_explicit,
                            gamma_ratio_bounds, moment_bracket,
                            radial_moment_lower, rayleigh_upper,
                            spectral_comparison, validate_candidate,
                            variational_lower, variational_potential,
                            weighted_comparison, weighted_curvature,
                            weighted_curvature_lower)
from .catalog import (FAMILY_NAMES, WEIGHT_NAMES, FamilySpec, ReferenceGap,
                      ball_potential, catalog_grid, cauchy_potential,
                      exp_power_potential, make_family, make_weight,
                      power_candidate, power_law_candidate, power_weight,
                      reference_gap)
from .errors import (ConvergenceError, DegenerateFunction,
                     DiscretizationError, DomainError, HypothesisFailed,
                     InvalidInput, NonIntegrable, SpecGapError,
                     TruncationWarning)
from .mc_sampler import (RayleighResult, SampleBatch, rayleigh_estimate,
                         sample_mu, sample_radius)
from .radial_model import (BoundBracket, RadialMeasure, RadialPotential,
                           Weight, build_measure, diagnostic_grid,
                           expectation, moment, tail_mass,
                           truncation_radius, validate_weight,
                           weighted_moment)
from .sl_eigensolver import (GapEstimate, GridSpec, residual_check,
                             spectral_gap)

__version__ = "0.1.0"
