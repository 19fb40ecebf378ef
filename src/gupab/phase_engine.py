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
back to quadrature for the turns, the coil's circulation at unit flux, and
for the length. All phases are reported in radians without 2 pi reduction.
Natural units (hbar = c = 1).

The phase is assembled in two steps. ``phase_geometry`` computes, once per
loop, the record that no particle, flux or coupling changes: the swept
turns, the clearance from the axis and the length, each with its error.
``phase_rows`` then takes charge, mass, speed, flux and a as floats or
broadcast arrays and gives every row its phases, each row with the same
IEEE operations in the same order as a lone row. One result type,
``PhaseResult``, holds a row or a column: ``total_phase`` is the one-row
case, and a sweep is one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .clifford import alpha, beta, gamma, momenta, positive_mass
from .errors import DomainError, GeometryError, GupabError, raise_first
from .field_geometry import LoopPath, QuadratureSpec, SolenoidSpec, circle_arc, loop_geometry, loop_length, solenoid_circulation
from .units import nonnegative_a

_G0 = gamma(0)
_G_SPATIAL = np.stack([gamma(1), gamma(2), gamma(3)])
_ALPHA_ROWS = np.stack([alpha(1), alpha(2), alpha(3)]).reshape(3, 16)  # p3 @ rows = alpha.p, flattened


def _lorentz(speed):
    """1 / sqrt(1 - v^2) for a speed or an array of them."""
    return 1.0 / np.sqrt(1.0 - speed * speed)


def subluminal_speed(v):
    """The check, for ``raise_first``, that a speed v, a float or an array, lies in (0, 1)."""
    return np.logical_not((0.0 < v) & (v < 1.0)), DomainError, "v must be in (0,1)"


@dataclass(frozen=True)
class ParticleSpec:
    """Charge, mass, and constant traversal speed (natural units, v < 1)."""

    charge: float
    mass: float
    speed: float

    def __post_init__(self):
        raise_first(positive_mass(self.mass), subluminal_speed(self.speed))

    @property
    def lorentz_gamma(self) -> float:
        return float(_lorentz(self.speed))

    @property
    def energy(self) -> float:
        return self.lorentz_gamma * self.mass

    @property
    def momentum(self) -> float:
        return self.lorentz_gamma * self.mass * self.speed


@dataclass(frozen=True)
class PhaseResult:
    """Standard flux phase, matrix correction, its projection, the total, their error and the coupling a.

    Each field is a float for one row, or an array for a column of rows; the
    fields then broadcast against each other, the matrices with two trailing
    axes.
    """

    standard_phase: float | np.ndarray
    correction_matrix: np.ndarray
    projected_correction: float | np.ndarray
    total_phase: float | np.ndarray
    quadrature_error: float | np.ndarray
    a: float | np.ndarray

    def to_json_dict(self) -> dict:
        flat = np.ascontiguousarray(self.correction_matrix, dtype=complex).reshape(-1, 1).view(float).tolist()
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
        # the [re, im] pairs read as complex numbers bit for bit, signed zeros included
        matrix = np.array(payload["correction_matrix"], dtype=float).view(complex).reshape(4, 4)
        return cls(
            standard_phase=float(payload["standard_phase"]),
            correction_matrix=matrix,
            projected_correction=float(payload["projected_correction"]),
            total_phase=float(payload["total_phase"]),
            quadrature_error=float(payload["quadrature_error"]),
            a=float(payload["a"]),
        )


class PhaseGeometry(NamedTuple):
    """What a phase needs of one loop about one coil, whatever the particle, flux and coupling.

    ``turns`` is the azimuth the loop sweeps about the axis over 2 pi, the
    flux phase per unit charge and flux: exact for lines and arcs, with
    ``turns_error`` 0.0, and, when some segment is a generic curve, the
    coil's circulation along the loop at unit flux, by quadrature (NaN for
    a loop through the coil, which ``phase_rows`` reports instead).
    ``length`` is exact for lines and arcs, with ``length_error`` 0.0, and
    integrated otherwise; ``displacement`` is the end-to-end step, None on
    closed paths. A record built with no coil holds None in the four coil
    fields; one built over a column of radii holds an array in each field
    that the radius changes.
    """

    turns: float | np.ndarray | None
    turns_error: float | None
    clearance: float | np.ndarray | None
    coil_radius: float | np.ndarray | None
    length: float | np.ndarray
    length_error: float | np.ndarray
    displacement: np.ndarray | None


def phase_geometry(
    loop: LoopPath, solenoid: SolenoidSpec | None, quad: QuadratureSpec | None = None, radius=None
) -> PhaseGeometry:
    """The loop's record about the coil, from one ``loop_geometry`` call; quadrature only for generic curves.

    An array ``radius`` takes each entry as the radius of ``loop``, a circle
    (see ``loop_geometry``): the record then holds an entry per radius.
    """
    turns = turns_error = clearance = coil_radius = None
    if solenoid is not None:
        geometry = loop_geometry(loop, solenoid, radius)
        clearance, coil_radius = geometry.clearance, solenoid.radius
        if geometry.swept_angle is not None:
            turns, turns_error = geometry.swept_angle / (2.0 * math.pi), 0.0
        elif clearance <= coil_radius:  # not integrated: every row reports the loop as entering the coil
            turns = turns_error = math.nan
        else:  # the circulation is linear in the flux, so one integral at unit flux serves every flux
            result = solenoid_circulation(replace(solenoid, flux=1.0), loop, quad)
            turns, turns_error = result.value, result.error_estimate
    length, length_error = (loop.length if radius is None else circle_arc(loop, radius).length()), 0.0
    if length is None:
        result = loop_length(loop, quad)
        length, length_error = result.value, result.error_estimate
    displacement = None if loop.closed else loop.ends[-1, 1] - loop.ends[0, 0]
    return PhaseGeometry(turns, turns_error, clearance, coil_radius, length, length_error, displacement)


_ENTERS_COIL = "loop enters the solenoid interior; the flux phase requires field-free paths"
_NOT_FINITE = "phase is not finite: the inputs overflow double precision"


def _rows(x):
    """A float or an array of them, with two trailing axes to scale 4x4 matrices row by row."""
    return np.asarray(x)[..., None, None]


def _ab_integral(geometry: PhaseGeometry, charge, flux):
    """(value, error) of the flux phase q Phi turns, with the turns' error scaled by |q Phi|."""
    coupling = charge * flux
    return coupling * geometry.turns, abs(coupling) * geometry.turns_error


def ab_phase(particle: ParticleSpec, solenoid: SolenoidSpec, loop: LoopPath, quad: QuadratureSpec | None = None) -> float:
    """Flux phase q * circulation of A; equals q Phi w for winding number w. GupabError if q Phi w overflows."""
    geometry = phase_geometry(loop, solenoid, quad)
    raise_first((geometry.clearance <= geometry.coil_radius, GeometryError, _ENTERS_COIL))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        value, _ = _ab_integral(geometry, particle.charge, solenoid.flux)
    raise_first((not math.isfinite(value), GupabError, _NOT_FINITE))
    return float(value)


def _matrix_base(geometry: PhaseGeometry, energy, momentum, contraction):
    """Contour integral of slash(p0) (p0 . dx), without the -a q factor, and its error.

    Equals (E/v - p)(E L gamma^0 - p dx . gamma), since |dr| t-hat = dr; dx
    is the end-to-end displacement, zero on closed loops. L is the length the
    record holds: exact for lines and arcs, integrated, with its error, when
    some segment is a generic curve.
    """
    matrix = _rows(energy * geometry.length) * _G0
    if geometry.displacement is not None:
        matrix = matrix - _rows(momentum) * np.tensordot(geometry.displacement, _G_SPATIAL, axes=1)
    return _rows(contraction) * matrix, contraction * energy * geometry.length_error


def _matrix_correction(geometry: PhaseGeometry, charge, energy, momentum, speed, a):
    base, err = _matrix_base(geometry, energy, momentum, energy / speed - momentum)
    factor = -a * charge
    # + 0.0 folds the signed zero at a = 0 without touching nonzero entries
    return _rows(factor) * base + 0.0, abs(factor) * err


def _correction(particle: ParticleSpec, loop: LoopPath, a: float, quad):
    """(matrix, error) of the correction alone, with no coil; raises unless a is nonnegative and the matrix finite."""
    raise_first(nonnegative_a(a))
    geometry = phase_geometry(loop, None, quad)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        matrix, err = _matrix_correction(geometry, particle.charge, particle.energy, particle.momentum, particle.speed, a)
    raise_first((not np.isfinite(matrix).all(), GupabError, _NOT_FINITE))
    return matrix, err


def gup_phase_matrix(particle: ParticleSpec, loop: LoopPath, a: float, quad: QuadratureSpec | None = None) -> np.ndarray:
    """Matrix-valued correction -a q contour integral of slash(p0) (p0 . dx); GupabError if it overflows.

    Exactly linear in a (the deformation factor scales an a-independent
    base integral), and exactly zero at a = 0. For closed loops the spatial
    gamma parts cancel with the tangent, leaving the gamma^0 block.
    """
    matrix, _ = _correction(particle, loop, a, quad)
    return matrix


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
    spinor u. GupabError if the matrix or the projection is not finite.
    """
    matrix, err = _correction(particle, loop, a, quad)
    spinor = _projection_spinor(projection, spinor)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        value, _ = _projected_correction(matrix, err, particle.mass, particle.energy, spinor)
    raise_first((not math.isfinite(value), GupabError, _NOT_FINITE))
    return float(value)


def _projection_spinor(projection, spinor):
    """(u, <u|u>) for the fixed-spinor projection, None for the comoving one; DomainError for anything else."""
    if projection == "comoving_on_shell":
        return None
    if projection != "fixed_spinor":
        raise DomainError(f"unknown projection {projection!r}")
    if spinor is None:
        raise DomainError("fixed_spinor projection needs a spinor")
    u = np.asarray(spinor, dtype=complex)
    if u.shape != (4,):
        raise DomainError("spinor must have four components")
    norm_sq = float(np.real(np.vdot(u, u)))
    if norm_sq == 0.0:
        raise DomainError("spinor must be nonzero")
    return u, norm_sq


def _projected_correction(matrix, err, mass, energy, spinor):
    """(value, error) of the projection of the correction rows, for a spinor from ``_projection_spinor``."""
    if spinor is None:
        ratio = mass / energy
        return ratio * matrix[..., 0, 0].real, ratio * err
    u, norm_sq = spinor
    # row by row the same BLAS dot as np.vdot(u, M u), which conjugates u
    return np.matmul(np.conj(u), (matrix @ u)[..., None])[..., 0].real / norm_sq, err


def phase_rows(
    geometry: PhaseGeometry,
    charge,
    mass,
    speed,
    flux,
    a,
    projection: str = "comoving_on_shell",
    spinor=None,
) -> PhaseResult:
    """The ``PhaseResult`` of rows of particle, flux and coupling values: a column of rows, or one row.

    ``charge``, ``mass``, ``speed``, ``flux`` and ``a`` are floats or arrays
    that broadcast against each other and against a ``geometry`` built over
    a column of radii; each entry of the broadcast is a row, and takes the
    same IEEE operations in the same order as a row given as floats. The
    result's fields are what the broadcast gives, not broadcast further, and
    its ``a`` is the ``a`` given. The projection and spinor are checked
    first, for every row alike. Then the first row that fails raises, with,
    in this order: ``GeometryError`` if its loop enters the coil,
    ``DomainError`` if its a is negative, and ``GupabError`` if any of its
    results is not finite, as when E / v or a q overflows double precision.
    """
    spinor = _projection_spinor(projection, spinor)
    with np.errstate(over="ignore", invalid="ignore"):  # reported row by row, below
        standard, standard_err = _ab_integral(geometry, charge, flux)
        energy = _lorentz(speed) * mass
        momentum = energy * speed
        matrix, matrix_err = _matrix_correction(geometry, charge, energy, momentum, speed, a)
        projected, projected_err = _projected_correction(matrix, matrix_err, mass, energy, spinor)
        total = standard + projected
        error = np.maximum(np.maximum(standard_err, matrix_err), projected_err)
        # a sum is finite only with both terms, and a maximum only with all three (NaN propagates)
        finite = np.isfinite(matrix).all(axis=(-2, -1)) & np.isfinite(total) & np.isfinite(error)
    raise_first(
        (geometry.clearance <= geometry.coil_radius, GeometryError, _ENTERS_COIL),
        nonnegative_a(a),
        (np.logical_not(finite), GupabError, _NOT_FINITE),
    )
    return PhaseResult(standard, matrix, projected, total, error, a)


def total_phase(
    particle: ParticleSpec,
    solenoid: SolenoidSpec,
    loop: LoopPath,
    a: float,
    quad: QuadratureSpec | None = None,
    projection: str = "comoving_on_shell",
    spinor=None,
) -> PhaseResult:
    """Assemble standard phase, correction matrix, projection, and their sum: the one-row case of ``phase_rows``.

    Raises ``GupabError`` if any of them is not finite, as when E / v or
    a q overflows double precision.
    """
    geometry = phase_geometry(loop, solenoid, quad)
    return phase_rows(geometry, particle.charge, particle.mass, particle.speed, solenoid.flux, a, projection, spinor)


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
    raise_first(positive_mass(m), nonnegative_a(a))
    p3 = momenta(p3)
    with np.errstate(over="ignore", invalid="ignore"):  # reported once, below
        ap = (p3 @ _ALPHA_ROWS).reshape(p3.shape[:-1] + (4, 4))
        hamiltonian = ap + a[..., None, None] * (ap @ ap) + m[..., None, None] * beta()
        p_sq = (p3 * p3).sum(axis=-1)
        root = np.sqrt(p_sq + m * m)
        e_plus, e_minus = root + a * p_sq, -root + a * p_sq
    if not all(np.isfinite(x).all() for x in (hamiltonian, e_plus, e_minus)):
        raise GupabError("dispersion is not finite: the inputs overflow double precision")
    return DispersionResult(e_plus=e_plus, e_minus=e_minus, hamiltonian=hamiltonian)
