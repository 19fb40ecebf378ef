"""Minimal-length deformed quantum algebra and flux-phase corrections.

Natural units (hbar = c = 1) throughout the numerics; metric (+, -, -, -);
Dirac representation for all 4x4 matrices.
"""

from .clifford import FourVector, alpha, beta, gamma, on_shell_spinor, slash
from .errors import (
    ConfigError,
    DomainError,
    FieldEvaluationError,
    GeometryError,
    GupabError,
    SingularInputError,
)
from .field_geometry import (
    Arc,
    IntegralResult,
    Line,
    LoopPath,
    QuadratureSpec,
    Segment,
    SolenoidSpec,
    arc_segment,
    circle_loop,
    gauge_shift,
    line_integral,
    line_segment,
    loop_length,
    make_loop,
    polyline_loop,
    rectangle_loop,
    solenoid_field,
    solenoid_vector_potential,
)
from .gup_algebra import (
    CommutatorReport,
    MomentumGrid,
    UncertaintyReport,
    commutator_consistency_exponent,
    commutator_target,
    consistency_exponents,
    deform_momentum,
    gaussian_state,
    grid_operator_lab,
    jacobian_commutator,
    uncertainty_check,
)
from .phase_engine import (
    DispersionResult,
    ParticleSpec,
    PhaseResult,
    ab_phase,
    dispersion,
    gup_phase_matrix,
    gup_phase_projected,
    total_phase,
)
from .units import (
    GupParameter,
    UnitSystem,
    gup_from_a0,
    max_momentum,
    min_length,
)

__version__ = "0.1.0"
