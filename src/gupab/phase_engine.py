"""Flux phase, minimal-length correction, and dispersion.

Outside an ideal coil the vector potential is Phi grad(theta) / 2 pi, so the
flux phase of a field-free path is q Phi dtheta / 2 pi, where dtheta is the
azimuth the path sweeps about the solenoid axis. The charged particle
traverses the loop at constant speed v, so each spatial step |dr| is
accompanied by a time step dt = |dr| / v; contour integrals of four-vectors
are evaluated over that worldline. With on-shell kinematics (E, p t-hat(s))
along the unit tangent, the contraction with the worldline element reduces to

    p0 . dx = (E / v - p) |dr|,

and the correction integrand is the matrix -a q slash(p0(s)) (p0 . dx).
Since |dr| t-hat = dr, it integrates to -a q (E / v - p)(E L gamma^0 -
p dx . gamma), with L the path length and dx its end-to-end displacement
(zero on closed loops). The default reading projects the integrand onto the
comoving positive-energy spinor, for which slash(p0) u = m u collapses it to
-a q m (E / v - p) L; the raw matrix and a fixed-spinor projection are
exposed as alternatives. Lines and circular arcs give dtheta and L in closed
form (``field_geometry.loop_geometry``); a path with a generic curve falls
back to quadrature for the flux and the length. All phases are reported in
radians without 2 pi reduction. Natural units (hbar = c = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .clifford import alpha, beta, gamma
from .errors import DomainError, GeometryError, GupabError
from .field_geometry import (
    IntegralResult,
    LoopPath,
    QuadratureSpec,
    SolenoidSpec,
    loop_geometry,
    loop_length,
    solenoid_circulation,
)

_G0 = gamma(0)
_G_SPATIAL = np.stack([gamma(1), gamma(2), gamma(3)])
_ALPHA_ROWS = np.stack([alpha(1), alpha(2), alpha(3)]).reshape(3, 16)  # p3 @ rows = alpha.p, flattened


@dataclass(frozen=True)
class ParticleSpec:
    """Charge, mass, and constant traversal speed (natural units, v < 1)."""

    charge: float
    mass: float
    speed: float

    def __post_init__(self):
        if not (self.mass > 0.0):
            raise DomainError("m must be positive")
        if not (0.0 < self.speed < 1.0):
            raise DomainError("v must be in (0,1)")

    @property
    def lorentz_gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.speed * self.speed)

    @property
    def energy(self) -> float:
        return self.lorentz_gamma * self.mass

    @property
    def momentum(self) -> float:
        return self.lorentz_gamma * self.mass * self.speed


@dataclass(frozen=True)
class PhaseResult:
    """Standard flux phase, matrix correction, its projection, and the total."""

    standard_phase: float
    correction_matrix: np.ndarray
    projected_correction: float
    total_phase: float
    quadrature_error: float
    a: float

    def to_json_dict(self) -> dict:
        flat = []
        for entry in np.asarray(self.correction_matrix, dtype=complex).reshape(-1):
            flat.append([float(entry.real), float(entry.imag)])
        return {
            "standard_phase": float(self.standard_phase),
            "projected_correction": float(self.projected_correction),
            "total_phase": float(self.total_phase),
            "quadrature_error": float(self.quadrature_error),
            "a": float(self.a),
            "correction_matrix": flat,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PhaseResult":
        flat = np.asarray(payload["correction_matrix"], dtype=float)
        matrix = (flat[:, 0] + 1j * flat[:, 1]).reshape(4, 4)
        return cls(
            standard_phase=float(payload["standard_phase"]),
            correction_matrix=matrix,
            projected_correction=float(payload["projected_correction"]),
            total_phase=float(payload["total_phase"]),
            quadrature_error=float(payload["quadrature_error"]),
            a=float(payload["a"]),
        )


def _ab_integral(particle, solenoid, loop, quad) -> IntegralResult:
    geometry = loop_geometry(loop, solenoid)
    if geometry.clearance <= solenoid.radius:
        raise GeometryError("loop enters the solenoid interior; the flux phase requires field-free paths")
    if geometry.swept_angle is not None:
        turns = geometry.swept_angle / (2.0 * math.pi)
        return IntegralResult(value=particle.charge * solenoid.flux * turns, error_estimate=0.0)
    result = solenoid_circulation(solenoid, loop, quad)
    return IntegralResult(
        value=particle.charge * result.value,
        error_estimate=abs(particle.charge) * result.error_estimate,
        nodes_per_segment=result.nodes_per_segment,
    )


def ab_phase(particle: ParticleSpec, solenoid: SolenoidSpec, loop: LoopPath, quad: QuadratureSpec | None = None) -> float:
    """Flux phase q * circulation of A; equals q Phi w for winding number w."""
    return _ab_integral(particle, solenoid, loop, quad or QuadratureSpec()).value


def _matrix_base(particle: ParticleSpec, loop: LoopPath, quad: QuadratureSpec):
    """Contour integral of slash(p0) (p0 . dx), without the -a q factor.

    Equals (E/v - p)(E L gamma^0 - p dx . gamma), since |dr| t-hat = dr; dx
    is the end-to-end displacement, zero on closed loops. L is the exact length
    the loop records for lines and arcs, and integrated, with its error, when
    some segment is a generic curve.
    """
    length, err = loop.length, 0.0
    if length is None:
        result = loop_length(loop, quad)
        length, err = result.value, result.error_estimate
    contraction = particle.energy / particle.speed - particle.momentum
    matrix = particle.energy * length * _G0
    if not loop.closed:
        displacement = loop.ends[-1, 1] - loop.ends[0, 0]
        matrix = matrix - particle.momentum * np.tensordot(displacement, _G_SPATIAL, axes=1)
    return contraction * matrix, contraction * particle.energy * err


def gup_phase_matrix(particle: ParticleSpec, loop: LoopPath, a: float, quad: QuadratureSpec | None = None) -> np.ndarray:
    """Matrix-valued correction -a q contour integral of slash(p0) (p0 . dx).

    Exactly linear in a (the deformation factor scales an a-independent
    base integral), and exactly zero at a = 0. For closed loops the spatial
    gamma parts cancel with the tangent, leaving the gamma^0 block.
    """
    matrix, _ = _matrix_correction(particle, loop, a, quad or QuadratureSpec())
    return matrix


def _matrix_correction(particle, loop, a, quad):
    if a < 0.0:
        raise DomainError("deformation parameter a must be nonnegative")
    base, err = _matrix_base(particle, loop, quad)
    factor = -a * particle.charge
    # + 0.0 folds the signed zero at a = 0 without touching nonzero entries
    return factor * base + 0.0, abs(factor) * err


def gup_phase_projected(
    particle: ParticleSpec,
    loop: LoopPath,
    a: float,
    quad: QuadratureSpec | None = None,
    projection: str = "comoving_on_shell",
    spinor=None,
) -> float:
    """Scalar correction phase under the chosen spinor projection.

    'comoving_on_shell' projects the integrand onto the local positive-energy
    spinor, which collapses it to -a q m (E/v - p) |dr| and integrates to
    -a q m (E/v - p) * loop length, read off the correction matrix M as
    (m / E) Re M[0, 0], since the spatial gammas have a zero diagonal.
    'fixed_spinor' evaluates Re <u| M |u> / <u|u> for a caller-supplied
    spinor u.
    """
    correction = _matrix_correction(particle, loop, a, quad or QuadratureSpec())
    value, _ = _projected_correction(particle, correction, projection, spinor)
    return value


def _projected_correction(particle, correction, projection, spinor):
    """(value, error) of the projection of the built correction, a (matrix, error) pair."""
    matrix, err = correction
    if projection == "comoving_on_shell":
        ratio = particle.mass / particle.energy
        return ratio * float(matrix[0, 0].real), ratio * err
    if projection == "fixed_spinor":
        if spinor is None:
            raise DomainError("fixed_spinor projection needs a spinor")
        u = np.asarray(spinor, dtype=complex)
        if u.shape != (4,):
            raise DomainError("spinor must have four components")
        norm_sq = float(np.real(np.vdot(u, u)))
        if norm_sq == 0.0:
            raise DomainError("spinor must be nonzero")
        value = float(np.real(np.vdot(u, matrix @ u))) / norm_sq
        return value, err
    raise DomainError(f"unknown projection {projection!r}")


def total_phase(
    particle: ParticleSpec,
    solenoid: SolenoidSpec,
    loop: LoopPath,
    a: float,
    quad: QuadratureSpec | None = None,
    projection: str = "comoving_on_shell",
    spinor=None,
) -> PhaseResult:
    """Assemble standard phase, correction matrix, projection, and their sum.

    Raises ``GupabError`` if any of them is not finite, as when E / v or
    a q overflows double precision.
    """
    quad = quad or QuadratureSpec()
    with np.errstate(over="ignore", invalid="ignore"):  # reported once, below
        standard = _ab_integral(particle, solenoid, loop, quad)
        matrix, matrix_err = _matrix_correction(particle, loop, a, quad)
        projected, projected_err = _projected_correction(particle, (matrix, matrix_err), projection, spinor)
    total = standard.value + projected
    scalars = (standard.value, projected, total, standard.error_estimate, matrix_err, projected_err)
    if not (all(map(math.isfinite, scalars)) and np.isfinite(matrix).all()):
        raise GupabError("phase is not finite: the inputs overflow double precision")
    return PhaseResult(
        standard_phase=standard.value,
        correction_matrix=matrix,
        projected_correction=projected,
        total_phase=total,
        quadrature_error=max(standard.error_estimate, matrix_err, projected_err),
        a=a,
    )


@dataclass(frozen=True)
class DispersionResult:
    """Analytic branches and the explicit 4x4 Hamiltonian; arrays over (..., 3) momenta."""

    e_plus: float | np.ndarray
    e_minus: float | np.ndarray
    hamiltonian: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of the Hamiltonian, in doubly degenerate pairs, diagonalized on first read."""
        return np.linalg.eigvalsh(self.hamiltonian)


def dispersion(p3, m, a) -> DispersionResult:
    """Energy branches of H = alpha.p + a (alpha.p)^2 + beta m.

    Since (alpha.p)^2 = |p|^2, the branches are +-sqrt(|p|^2 + m^2) + a |p|^2,
    each doubly degenerate; the explicit 4x4 Hamiltonian is returned
    alongside, and its spectrum, a cross-check, is computed when
    ``eigenvalues`` is first read. ``p3`` is a 3-vector or an (..., 3) array
    of them; ``m`` and ``a`` are floats or arrays that broadcast against the
    momenta. Raises ``GupabError`` if the Hamiltonian or a branch is not
    finite, as when a |p|^2 overflows double precision.
    """
    m, a = np.asarray(m, dtype=float), np.asarray(a, dtype=float)
    if not np.all(m > 0.0):
        raise DomainError("mass must be positive")
    if np.any(a < 0.0):
        raise DomainError("deformation parameter a must be nonnegative")
    p3 = np.asarray(p3, dtype=float)
    if p3.ndim == 0 or p3.shape[-1] != 3:
        raise DomainError("p3 must be a 3-vector or an (..., 3) array of them")
    with np.errstate(over="ignore", invalid="ignore"):  # reported once, below
        ap = (p3 @ _ALPHA_ROWS).reshape(p3.shape[:-1] + (4, 4))
        hamiltonian = ap + a[..., None, None] * (ap @ ap) + m[..., None, None] * beta()
        p_sq = (p3 * p3).sum(axis=-1)
        root = np.sqrt(p_sq + m * m)
        e_plus, e_minus = root + a * p_sq, -root + a * p_sq
    if not all(np.isfinite(x).all() for x in (hamiltonian, e_plus, e_minus)):
        raise GupabError("dispersion is not finite: the inputs overflow double precision")
    return DispersionResult(e_plus=e_plus, e_minus=e_minus, hamiltonian=hamiltonian)
