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
(zero on closed loops). With no spinor, the integrand is projected onto the
comoving positive-energy spinor, for which slash(p0) u = m u collapses it to
-a q m (E / v - p) L; a given spinor u selects the fixed-spinor projection
Re <u| M |u> / <u|u> of the raw matrix M, also exposed. All phases are in
radians without 2 pi reduction. Natural units (hbar = c = 1).

The phase is assembled in two steps. ``field_geometry.loop_geometry``
computes, once per loop, the record that no particle, flux or coupling
changes: the swept turns, the clearance from the axis and the length, each
with its error. The turns and the clearance are closed forms for every
piece, generic curves and tilted arcs through the chords of their samples,
which are assumed to resolve the curve; only the length of generic curves is
integrated, by quadrature. ``phase_rows`` then takes charge,
mass, speed, flux and a as floats or broadcast arrays and gives every row its
phases, each row with the same IEEE operations in the same order as a lone
row. One result type, ``PhaseResult``, holds a row or a column:
``total_phase`` is the one-row case, and a sweep is one batch. ``phase_rows``
is the one place that assembles and checks a phase; ``ab_phase``,
``gup_phase_matrix`` and ``gup_phase_projected`` each read one field of one
row of it.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .clifford import alpha, beta, gamma, momenta, positive_mass
from .errors import DomainError, GeometryError, GupabError, raise_first, to_float, to_floats
from .field_geometry import LoopGeometry, LoopPath, QuadratureSpec, SolenoidSpec, loop_geometry
from .records import Record, store
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


class ParticleSpec(Record):
    """Charge, mass, and constant traversal speed (natural units, v < 1); the charge and the mass are finite."""

    __slots__ = _fields = ("charge", "mass", "speed")

    def __init__(self, charge: float, mass: float, speed: float):
        # a str that spells a number is that number, an int past the doubles an infinity
        charge, mass, speed = to_float(charge), to_float(mass), to_float(speed)
        raise_first(
            positive_mass(mass),
            (not math.isfinite(mass), DomainError, "m must be finite"),
            subluminal_speed(speed),
            (not math.isfinite(charge), DomainError, "q must be finite"),
        )
        store(self, "charge", charge)
        store(self, "mass", mass)
        store(self, "speed", speed)

    @property
    def lorentz_gamma(self) -> float:
        return float(_lorentz(self.speed))

    @property
    def energy(self) -> float:
        return self.lorentz_gamma * self.mass

    @property
    def momentum(self) -> float:
        return self.lorentz_gamma * self.mass * self.speed


class PhaseResult(Record):
    """Standard flux phase, matrix correction, its projection, the total, their error and the coupling a.

    Each field is a float for one row, or an array for a column of rows; the
    fields then broadcast against each other, the matrices with two trailing
    axes.
    """

    __slots__ = _fields = ("standard_phase", "correction_matrix", "projected_correction", "total_phase", "quadrature_error", "a")

    def __init__(
        self,
        standard_phase: float | np.ndarray,
        correction_matrix: np.ndarray,
        projected_correction: float | np.ndarray,
        total_phase: float | np.ndarray,
        quadrature_error: float | np.ndarray,
        a: float | np.ndarray,
    ):
        store(self, "standard_phase", standard_phase)
        store(self, "correction_matrix", correction_matrix)
        store(self, "projected_correction", projected_correction)
        store(self, "total_phase", total_phase)
        store(self, "quadrature_error", quadrature_error)
        store(self, "a", a)

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


_ENTERS_COIL = "loop enters the solenoid interior; the flux phase requires field-free paths"
_DISPERSION_NOT_FINITE = "dispersion is not finite: the inputs overflow double precision"


def _rows(x):
    """A float or an array of them, with two trailing axes to scale 4x4 matrices row by row."""
    return np.asarray(x)[..., None, None]


def _ab_integral(geometry: LoopGeometry, charge, flux):
    """(value, error) of the flux phase q Phi turns, with the turns' error scaled by |q Phi|."""
    coupling = charge * flux
    return coupling * geometry.turns, abs(coupling) * geometry.turns_error


def ab_phase(particle: ParticleSpec, solenoid: SolenoidSpec, loop: LoopPath, quad: QuadratureSpec | None = None) -> float:
    """Flux phase q Phi w for winding number w, the standard phase of ``total_phase`` at a = 0; GupabError if it overflows."""
    return float(total_phase(particle, solenoid, loop, 0.0, quad).standard_phase)


def _matrix_base(geometry: LoopGeometry, energy, momentum, contraction):
    """Contour integral of slash(p0) (p0 . dx), without the -a q factor, and its error.

    Equals (E/v - p)(E L gamma^0 - p dx . gamma), since |dr| t-hat = dr; dx
    is the end-to-end displacement, zero on closed loops. L is the length the
    record holds: exact for lines and arcs, plus the integrated length, with
    its error, of the generic curves alone.
    """
    matrix = _rows(energy * geometry.length) * _G0
    if geometry.displacement is not None:
        matrix = matrix - _rows(momentum) * np.tensordot(geometry.displacement, _G_SPATIAL, axes=1)
    # a zero length error gives an error of 0.0 even where (E/v - p) E overflows
    return _rows(contraction) * matrix, contraction * (energy * geometry.length_error)


def _matrix_correction(geometry: LoopGeometry, charge, energy, momentum, speed, a):
    base, err = _matrix_base(geometry, energy, momentum, energy / speed - momentum)
    factor = -a * charge
    # a and q tested apart: where -a q underflows to 0, a q times an overflowing base may be finite, so the row raises
    zero = (a == 0.0) | (charge == 0.0)  # no deformation or no charge: exactly zero, also where 0 * inf is NaN
    # + 0.0 folds the signed zeros of -a q times a zero entry without touching nonzero entries
    return np.where(_rows(zero), 0.0, _rows(factor) * base + 0.0), np.where(zero, 0.0, abs(factor) * err)


def gup_phase_matrix(particle: ParticleSpec, loop: LoopPath, a: float, quad: QuadratureSpec | None = None) -> np.ndarray:
    """Matrix-valued correction -a q contour integral of slash(p0) (p0 . dx); GupabError if it overflows.

    Exactly linear in a (the deformation factor scales an a-independent base
    integral), and exactly zero at a = 0 or q = 0. For closed loops the spatial
    gamma parts cancel with the tangent, leaving the gamma^0 block. One row of
    ``phase_rows`` with no coil, at flux 0.
    """
    geometry = loop_geometry(loop, None, quad)
    return phase_rows(geometry, particle.charge, particle.mass, particle.speed, 0.0, a).correction_matrix


def gup_phase_projected(
    particle: ParticleSpec,
    loop: LoopPath,
    a: float,
    quad: QuadratureSpec | None = None,
    spinor=None,
) -> float:
    """Scalar correction phase: the comoving projection, or the fixed-spinor one when a spinor is given.

    With no spinor, the integrand is projected onto the local positive-energy
    spinor, which collapses it to -a q m (E/v - p) |dr| and integrates to
    -a q m (E/v - p) * loop length, read off the correction matrix M as
    (m / E) Re M[0, 0], since the spatial gammas have a zero diagonal; a
    spinor u gives Re <u| M |u> / <u|u>. One row of ``phase_rows`` with no
    coil, at flux 0; GupabError if the matrix or the projection is not finite.
    """
    geometry = loop_geometry(loop, None, quad)
    return float(phase_rows(geometry, particle.charge, particle.mass, particle.speed, 0.0, a, spinor).projected_correction)


def _projection_spinor(spinor):
    """(u, <u|u>) for a given spinor, the fixed-spinor projection; None, the comoving one, for none; DomainError if invalid."""
    if spinor is None:
        return None
    try:
        u = np.asarray(spinor, dtype=complex)
    except OverflowError:  # an int beyond the doubles
        raise DomainError("spinor must be finite") from None
    except (TypeError, ValueError):  # not numbers
        raise DomainError("spinor must have four components") from None
    if u.shape != (4,):
        raise DomainError("spinor must have four components")
    if not np.isfinite(u).all():
        raise DomainError("spinor must be finite")
    # exactly rescaled to a largest modulus in [1, 2), <u|u> neither overflows nor underflows; the projection is scale-free
    _, exponent = np.frexp(np.max(np.abs(u)))
    u = u / np.ldexp(1.0, exponent - 1)
    norm_sq = float(np.real(np.vdot(u, u)))
    if norm_sq == 0.0:
        raise DomainError("spinor must be nonzero")
    return u, norm_sq


def _projected_correction(matrix, mass, energy, spinor):
    """The projection of the correction rows, for a spinor from ``_projection_spinor``.

    Its error is not computed: the comoving one would be (m / E) times the
    matrix's error, with E = gamma m and gamma >= 1, and the fixed-spinor one
    the matrix's error itself, so neither exceeds the matrix's error that
    ``phase_rows`` reports. Where m / E is NaN (an infinite mass), so is the
    projection, and the row raises all the same.
    """
    if spinor is None:
        return mass / energy * matrix[..., 0, 0].real
    u, norm_sq = spinor
    # row by row the same BLAS dot as np.vdot(u, M u), which conjugates u
    return np.matmul(np.conj(u), (matrix @ u)[..., None])[..., 0].real / norm_sq


def phase_rows(
    geometry: LoopGeometry,
    charge,
    mass,
    speed,
    flux,
    a,
    spinor=None,
) -> PhaseResult:
    """The ``PhaseResult`` of rows of particle, flux and coupling values: a column of rows, or one row.

    ``charge``, ``mass``, ``speed``, ``flux`` and ``a`` are floats or arrays
    that broadcast against each other and against a ``geometry`` built over
    a column of radii; each entry of the broadcast is a row, and takes the
    same IEEE operations in the same order as a row given as floats. The
    result's fields are what the broadcast gives, not broadcast further, and
    its ``a`` is the ``a`` given. The spinor, if any, is checked first: it
    selects the fixed-spinor projection, and None the comoving one. Then the
    first row that fails raises, in this order: ``GeometryError`` if its loop
    enters the coil, ``DomainError`` if its a is negative, and ``GupabError``
    if any of its results is not finite, as when E / v or a q overflows double
    precision; at a = 0 or q = 0, the correction and its error are exactly
    zero all the same.
    """
    spinor = _projection_spinor(spinor)
    with np.errstate(over="ignore", invalid="ignore"):  # reported row by row, below
        standard, standard_err = _ab_integral(geometry, charge, flux)
        energy = _lorentz(speed) * mass
        momentum = energy * speed
        matrix, matrix_err = _matrix_correction(geometry, charge, energy, momentum, speed, a)
        projected = _projected_correction(matrix, mass, energy, spinor)
        total = standard + projected
        error = np.maximum(standard_err, matrix_err)
        # a sum is finite only with both terms, and a maximum only with both operands (NaN propagates)
        finite = np.isfinite(matrix).all(axis=(-2, -1)) & np.isfinite(total) & np.isfinite(error)
    raise_first(
        (geometry.clearance <= geometry.coil_radius, GeometryError, _ENTERS_COIL),
        nonnegative_a(a),
        (np.logical_not(finite), GupabError, "phase is not finite: the inputs overflow double precision"),
    )
    return PhaseResult(standard, matrix, projected, total, error, a)


def total_phase(
    particle: ParticleSpec,
    solenoid: SolenoidSpec,
    loop: LoopPath,
    a: float,
    quad: QuadratureSpec | None = None,
    spinor=None,
) -> PhaseResult:
    """Assemble standard phase, correction matrix, projection, and their sum: the one-row case of ``phase_rows``.

    A given spinor selects the fixed-spinor projection; GupabError if any of
    them is not finite, as when E / v or a q overflows double precision.
    """
    geometry = loop_geometry(loop, solenoid, quad)
    return phase_rows(geometry, particle.charge, particle.mass, particle.speed, solenoid.flux, a, spinor)


class DispersionResult(Record):
    """Analytic branches over (..., 3) momenta; the explicit 4x4 Hamiltonian and its spectrum are built on first read.

    The momenta, masses and strengths ``_p3``, ``_m`` and ``_a`` that build
    them are private fields, which ``==``, ``hash`` and ``repr`` leave out.
    """

    __slots__ = ("e_plus", "e_minus", "_p3", "_m", "_a", "__dict__")  # __dict__ holds the cached properties
    _fields = ("e_plus", "e_minus", "_p3", "_m", "_a")
    _compared = ("e_plus", "e_minus")

    def __init__(self, e_plus: float | np.ndarray, e_minus: float | np.ndarray, _p3: np.ndarray, _m: np.ndarray, _a: np.ndarray):
        store(self, "e_plus", e_plus)
        store(self, "e_minus", e_minus)
        store(self, "_p3", _p3)
        store(self, "_m", _m)
        store(self, "_a", _a)

    @cached_property
    def hamiltonian(self) -> np.ndarray:
        """H = alpha.p + a (alpha.p)^2 + beta m per momentum, built and checked on first read; GupabError unless finite."""
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            ap = (self._p3 @ _ALPHA_ROWS).reshape(self._p3.shape[:-1] + (4, 4))
            matrix = ap + self._a[..., None, None] * (ap @ ap) + self._m[..., None, None] * beta()
        raise_first((not np.isfinite(matrix).all(), GupabError, _DISPERSION_NOT_FINITE))
        return matrix

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of the Hamiltonian, in doubly degenerate pairs, diagonalized on first read."""
        return np.linalg.eigvalsh(self.hamiltonian)


def dispersion(p3, m, a) -> DispersionResult:
    """Energy branches of H = alpha.p + a (alpha.p)^2 + beta m.

    Since (alpha.p)^2 = |p|^2, the branches are +-sqrt(|p|^2 + m^2) + a |p|^2,
    each doubly degenerate; the explicit 4x4 Hamiltonian is built and checked
    when ``hamiltonian`` is first read, and its spectrum, a cross-check, when
    ``eigenvalues`` is. ``p3`` is a 3-vector or an (..., 3) array of them;
    ``m`` and ``a`` are floats or arrays that broadcast against the momenta.
    Raises ``GupabError`` if a branch or the Hamiltonian is not finite, as
    when a |p|^2 overflows double precision.
    """
    m, a = to_floats(m), to_floats(a)
    raise_first(positive_mass(m), nonnegative_a(a))
    p3 = momenta(p3)
    with np.errstate(over="ignore", invalid="ignore"):  # reported once, below
        p_sq = (p3 * p3).sum(axis=-1)
        root, shift = np.sqrt(p_sq + m * m), a * p_sq
        e_plus = root + shift  # finite only with both terms, which are nonnegative: then so is -root + shift
        # (alpha.p)^2, a matrix product, may round a few ulps past |p|^2: within 2^-40 of overflow, H is checked here
        near_overflow = not np.isfinite(np.maximum(e_plus, p_sq) * (1.0 + 2.0**-40)).all()
    raise_first((not np.isfinite(e_plus).all(), GupabError, _DISPERSION_NOT_FINITE))
    result = DispersionResult(e_plus, -root + shift, p3, m, a)
    if near_overflow:
        result.hamiltonian  # noqa: B018 -- built now, so that it raises here and never when read
    return result
