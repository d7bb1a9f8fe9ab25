"""Gramian fixed-point synthesis of steering controls for control-affine
systems.

The toolkit implements two trajectory-dependent Gramian steering maps --
the symmetric-Gramian (general) map and the mixed-Gramian minimum-energy
map -- iterated to a fixed point, on top of an adaptive 8th-order
Dormand-Prince integrator with dense output.
"""

from .baselines import chebyshev_reference_control, feedback_linearization_baseline
from .controls import (ClosedFormControl, ControlFunction, SynthesizedControl,
                       ZeroControl)
from .errors import (ConfigError, GramsynthError, InvalidQuadrature,
                     NonFiniteState, NotFullyActuated, OutOfSpan,
                     SingularGramian, StepLimitExceeded, UnknownSystem)
from .flow import (Trajectory, chain_input_products, flow_conjugate_profile,
                   flow_input_products, residual, solve_trajectory)
from .gramian import (GramianMatrix, GramianSolve,
                      assemble_mixed_from_samples,
                      assemble_symmetric_from_samples, solve_gramian)
from .harness import (ExperimentConfig, RunArtifact, run_baseline,
                      run_reference, run_scale, run_synthesize,
                      run_underactuated)
from .ode import (DenseSolution, OdeProblem, SolverConfig, adapt_step,
                  integrate)
from .picard import (IterationRecord, PicardResult, RunStatus,
                     SynthesisConfig, apply_map, control_energy,
                     endpoint_error, energy_certificate, run_picard)
from .quadrature import QuadratureRule, cumulative_simpson, simpson_rule
from .systems import (ControlAffineSystem, SteeringProblem, drift_flow,
                      linear_system, make_benchmark, mindy_like)

__version__ = "0.1.0"

__all__ = [
    "ClosedFormControl", "ConfigError", "ControlAffineSystem",
    "ControlFunction", "DenseSolution", "ExperimentConfig", "GramianMatrix",
    "GramianSolve", "GramsynthError", "InvalidQuadrature", "IterationRecord",
    "NonFiniteState", "NotFullyActuated", "OdeProblem", "OutOfSpan",
    "PicardResult", "QuadratureRule", "RunArtifact", "RunStatus",
    "SingularGramian", "SolverConfig", "SteeringProblem",
    "StepLimitExceeded", "SynthesisConfig", "SynthesizedControl",
    "Trajectory", "UnknownSystem", "ZeroControl", "adapt_step", "apply_map",
    "assemble_mixed_from_samples", "assemble_symmetric_from_samples",
    "chain_input_products", "chebyshev_reference_control", "control_energy",
    "cumulative_simpson", "drift_flow", "endpoint_error",
    "energy_certificate", "feedback_linearization_baseline",
    "flow_conjugate_profile", "flow_input_products", "integrate",
    "linear_system", "make_benchmark", "mindy_like", "residual",
    "run_baseline", "run_picard", "run_reference", "run_scale",
    "run_synthesize", "run_underactuated", "simpson_rule", "solve_gramian",
    "solve_trajectory",
]
