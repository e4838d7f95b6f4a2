"""resodyn: spectral-Galerkin experiments for reaction-diffusion systems at
resonance.

The toolkit builds the analytic Dirichlet sine spectrum on an interval,
classifies modes against the spectral shifts, evaluates the kernel-weighted
resonance functionals, assembles homotopy-index exponents and
connecting-orbit predictions, and verifies the dynamical claims by direct
simulation: a priori bound conformance, the kernel blow-up mechanism, the
s=0 product-flow identity, and heteroclinic shooting.
"""

__version__ = "0.1.0"

from .connections import (ConnectionRecord, Equilibrium, ShootMiss,
                          discrete_linearization, find_equilibria,
                          liapunov_energy, shoot_connection,
                          unstable_directions, validate_potential)
from .decomposition import CountVector, SplitIndexSet, classify, counts, project
from .errors import (AmbiguousResonanceError, ConfigurationError,
                     DivergenceSignal, EvaluationError,
                     GradientStructureError, HypothesisError, ResodynError,
                     UnboundedModeError)
from .fields import (ConditionReport, NonlinearField, SampleGrid,
                     check_bounded, check_sign_condition, galerkin_F,
                     make_field, verify_limits)
from .indexcalc import (ConnectionVerdict, HomotopyType, LinearizationData,
                        connection_verdict, d_zero, index_K_infinity,
                        index_partition, nonresonance_at_origin, wedge)
from .resonance import (DegreeSets, LLReport, MarginTable, degree_sets,
                        evaluate_LL, guiding_margin, ll_functional)
from .semiflow import (AprioriBounds, BlowupReport, BoundReport, HomotopyBox,
                       IntegratorSettings, Trajectory, apriori_bounds,
                       blowup_demo, check_bounded_solution, homotopy_field,
                       integrate, integrate_ensemble, product_flow_check,
                       sample_states_in_box)
from .spectral import (Domain1D, GalerkinState, ProblemConfig,
                       SpectralBasis, apply_A, build_basis, fractional_norm,
                       semigroup_apply)

__all__ = [name for name in dir() if not name.startswith("_")]
