"""Minimal-length deformed quantum algebra and flux-phase corrections.

Natural units (hbar = c = 1) throughout the numerics; metric (+, -, -, -);
Dirac representation for all 4x4 matrices.

``import gupab`` loads no submodule: each public name below, and each
submodule, is imported when it is first read (PEP 562), so a CLI command
loads only the modules it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the public names the package re-exports from it
    "clifford": ("FourVector", "alpha", "beta", "gamma", "on_shell_spinor", "slash"),
    "errors": (
        "ConfigError",
        "DomainError",
        "FieldEvaluationError",
        "GeometryError",
        "GupabError",
        "SingularInputError",
    ),
    "field_geometry": (
        "Arc",
        "Line",
        "LoopPath",
        "QuadratureSpec",
        "SolenoidSpec",
        "arc_segment",
        "circle_loop",
        "line_segment",
        "make_loop",
        "polyline_loop",
        "rectangle_loop",
    ),
    "gup_algebra": (
        "CommutatorReport",
        "MomentumGrid",
        "UncertaintyReport",
        "commutator_consistency_exponent",
        "commutator_target",
        "consistency_exponents",
        "deform_momentum",
        "gaussian_state",
        "grid_operator_lab",
        "jacobian_commutator",
        "uncertainty_check",
    ),
    "line_integrals": (
        "IntegralResult",
        "Segment",
        "gauge_shift",
        "line_integral",
        "loop_length",
        "solenoid_field",
        "solenoid_vector_potential",
    ),
    "phase_engine": (
        "DispersionResult",
        "ParticleSpec",
        "PhaseResult",
        "ab_phase",
        "dispersion",
        "gup_phase_matrix",
        "gup_phase_projected",
        "total_phase",
    ),
    "units": ("GupParameter", "UnitSystem", "gup_from_a0", "max_momentum", "min_length"),
}
_SUBMODULES = (*_EXPORTS, "cli_io", "verification")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the interpreter's own import, which binds the submodule here and which python -X importtime reports
    # (importlib.import_module's is not reported)
    __import__(f"{__name__}.{module}")
    value = getattr(globals()[module], name) if name in _MODULE_OF else globals()[module]
    globals()[name] = value  # later reads find it here
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
