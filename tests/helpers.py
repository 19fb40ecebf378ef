"""Shared oracles and geometry generators for the test suite.

Everything here except ``reference_verification``, ``reference_sweep`` and
``reference_column_check`` is deliberately independent of the package's
quadrature and matrix plumbing: Dirac matrices are rebuilt inline from Pauli
blocks, and contour integrals are brute-force midpoint Riemann sums.
``reference_verification`` is the verification suite run through the
library one input row at a time, ``reference_sweep`` a sweep run one
``run_phase`` per row, and ``reference_column_check`` a sweep's values
checked one constructor per row. ``reference_loop_of_lines`` and
``reference_geometry_of_lines`` are the earlier, wrapper-call form of the
line-loop build and of ``loop_geometry``'s lines branch, kept as the
bit-for-bit oracle of the current code; ``reference_dispersion`` and
``reference_csv`` are, likewise, the earlier eager ``dispersion`` and the
earlier row-by-row CSV writer.
"""

import math
from dataclasses import fields, replace

import numpy as np

from gupab import clifford, gup_algebra
from gupab.cli_io import _check, _gamma_algebra_residual, run_phase
from gupab.errors import DomainError, GeometryError, GupabError, raise_first
from gupab.field_geometry import _NON_FINITE, _OPEN, _VANISHING, LoopPath, QuadratureSpec, Segment, SolenoidSpec, _broken, _gaps, circle_loop
from gupab.phase_engine import _ALPHA_ROWS, ParticleSpec, PhaseResult, ab_phase, dispersion, gup_phase_projected
from gupab.units import GupParameter, nonnegative_a

# Dirac representation rebuilt from scratch (oracle side).
_S = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]
_Z2 = np.zeros((2, 2), dtype=complex)
_I2 = np.eye(2, dtype=complex)
ORACLE_BETA = np.block([[_I2, _Z2], [_Z2, -_I2]])
ORACLE_ALPHA = [np.block([[_Z2, s], [s, _Z2]]) for s in _S]
ORACLE_GAMMA = [ORACLE_BETA] + [ORACLE_BETA @ a for a in ORACLE_ALPHA]


def oracle_slash(t, p3):
    p3 = np.asarray(p3, dtype=float)
    return t * ORACLE_GAMMA[0] - p3[0] * ORACLE_GAMMA[1] - p3[1] * ORACLE_GAMMA[2] - p3[2] * ORACLE_GAMMA[3]


def fourier_loop(rng, base_radius=1.5, wobble=0.4, harmonics=3, z_amplitude=0.0):
    """Random smooth closed curve winding once about the z axis.

    rho(s) = base_radius + sum_k (a_k cos(2 pi k s) + b_k sin(2 pi k s)),
    theta(s) = 2 pi s, with the harmonic amplitudes rescaled so rho stays
    within base_radius +- wobble (never reaching the axis).
    """
    a = rng.normal(size=harmonics)
    b = rng.normal(size=harmonics)
    budget = np.sum(np.abs(a)) + np.sum(np.abs(b))
    if budget > 0:
        a *= wobble / budget
        b *= wobble / budget
    k = np.arange(1, harmonics + 1)

    def rho(s):
        angles = 2.0 * np.pi * np.outer(s, k)
        return base_radius + np.cos(angles) @ a + np.sin(angles) @ b

    def drho(s):
        angles = 2.0 * np.pi * np.outer(s, k)
        return (-np.sin(angles) * (2.0 * np.pi * k)) @ a + (np.cos(angles) * (2.0 * np.pi * k)) @ b

    def point(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        r = rho(s)
        th = 2.0 * np.pi * s
        return np.column_stack([r * np.cos(th), r * np.sin(th), z_amplitude * np.sin(2.0 * np.pi * s)])

    def tangent(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        r = rho(s)
        dr = drho(s)
        th = 2.0 * np.pi * s
        two_pi = 2.0 * np.pi
        return np.column_stack(
            [
                dr * np.cos(th) - r * two_pi * np.sin(th),
                dr * np.sin(th) + r * two_pi * np.cos(th),
                z_amplitude * two_pi * np.cos(two_pi * s),
            ]
        )

    return LoopPath((Segment(point, tangent),))


def strip_shape(segment):
    """The same piece as a generic ``Segment`` of its point and tangent: the path then validates and measures it by sampling."""
    return Segment(segment.point, segment.tangent)


def random_polynomial_gauge(rng, max_degree=2, terms=4):
    """Random trivariate polynomial chi; returns (chi, grad chi) callables."""
    monomials = []
    for _ in range(terms):
        coeff = rng.uniform(-1.0, 1.0)
        powers = rng.integers(0, max_degree + 1, size=3)
        monomials.append((coeff, tuple(int(p) for p in powers)))

    def chi(point):
        x, y, z = point
        return sum(c * x**i * y**j * z**k for c, (i, j, k) in monomials)

    def grad(point):
        x, y, z = point
        gx = sum(c * i * x ** max(i - 1, 0) * y**j * z**k for c, (i, j, k) in monomials if i)
        gy = sum(c * j * x**i * y ** max(j - 1, 0) * z**k for c, (i, j, k) in monomials if j)
        gz = sum(c * k * x**i * y**j * z ** max(k - 1, 0) for c, (i, j, k) in monomials if k)
        return np.array([gx, gy, gz])

    return chi, grad


def riemann_tangent_sums(loop, nodes=1_000_000, chunk=200_000):
    """Midpoint Riemann sums of |r'(s)| ds and r'(s) ds over the whole path."""
    length = 0.0
    displacement = np.zeros(3)
    for seg in loop.segments:
        done = 0
        while done < nodes:
            count = min(chunk, nodes - done)
            s = (np.arange(done, done + count) + 0.5) / nodes
            tans = seg.tangent(s)
            speed = np.linalg.norm(tans, axis=1)
            length += float(np.sum(speed)) / nodes
            displacement += np.sum(tans, axis=0) / nodes
            done += count
    return length, displacement


def riemann_phase_matrix(loop, particle, a, nodes=1_000_000):
    """Brute-force Riemann evaluation of -a q contour slash(p0) (p0 . dx)."""
    energy, p, v, q = particle.energy, particle.momentum, particle.speed, particle.charge
    total = np.zeros((4, 4), dtype=complex)
    for seg in loop.segments:
        done = 0
        while done < nodes:
            count = min(200_000, nodes - done)
            s = (np.arange(done, done + count) + 0.5) / nodes
            tans = seg.tangent(s)
            speed = np.linalg.norm(tans, axis=1)
            weight = (energy / v - p) * speed / nodes  # (p0 . x') ds
            total += np.sum(weight) * energy * ORACLE_GAMMA[0]
            coeffs = -p * (energy / v - p) * np.sum(tans, axis=0) / nodes  # weight @ t-hat, as speed t-hat = x'
            total += coeffs[0] * ORACLE_GAMMA[1] + coeffs[1] * ORACLE_GAMMA[2] + coeffs[2] * ORACLE_GAMMA[3]
            done += count
    return -a * q * total


def riemann_projected_phase(loop, particle, a, nodes=1_000_000):
    """Brute-force Riemann evaluation of the comoving projection -a q m (E/v - p) L."""
    length, _ = riemann_tangent_sums(loop, nodes)
    return -a * particle.charge * particle.mass * (particle.energy / particle.speed - particle.momentum) * length


def riemann_circulation(field, loop, nodes=20_000):
    """Midpoint Riemann circulation for per-point field callables."""
    total = 0.0
    for seg in loop.segments:
        s = (np.arange(nodes) + 0.5) / nodes
        pts = seg.point(s)
        tans = seg.tangent(s)
        vals = np.array([field(p) for p in pts])
        total += float(np.einsum("ij,ij->", vals, tans)) / nodes
    return total


def dense_commutator_residual(points, margin, a):
    """Grid-lab residual from the dense n x n commutator [x, p] = x p - p x.

    x = i D, with D the truncated antisymmetric central-difference
    matrix, and p the diagonal deformed momentum. The probe is the lab's
    mid-grid Gaussian of width 0.15 of the span, and the exact bracket on the
    x axis is 1 - 2 a p + 6 a^2 p^2. Returns the largest deviation of [x, p]
    psi from i times that bracket times psi, over the points at least
    ``margin`` from either end.
    """
    n = points.size
    h = float(points[1] - points[0])
    d = np.zeros((n, n))
    idx = np.arange(n - 1)
    d[idx, idx + 1] = 1.0 / (2.0 * h)
    d[idx + 1, idx] = -1.0 / (2.0 * h)
    x_op = 1j * d
    p_op = np.diag((points * (1.0 - a * points + 2.0 * a * a * points * points)).astype(complex))
    span = points[-1] - points[0]
    width = 0.15 * span
    psi = np.exp(-((points - (points[0] + 0.5 * span)) ** 2) / (2.0 * width * width))
    bracket = 1j * (1.0 - 2.0 * a * points + 6.0 * a * a * points * points)
    residual = (x_op @ p_op - p_op @ x_op) @ psi - bracket * psi
    return float(np.max(np.abs(residual[margin : n - margin])))


def reference_verification(level, perturbation):
    """The verification suite evaluated row by row, one library call per drawn input.

    Same generator, draw order, checks and bounds as ``run_verification``,
    which batches each check; this is the oracle its batched paths are
    compared against.
    """
    rng = np.random.default_rng(20250810)
    checks = []

    checks.append(_check("gamma_algebra_exact", _gamma_algebra_residual(perturbation), 0.0))

    worst = 0.0
    for _ in range(100):
        p = clifford.FourVector(*rng.uniform(-2.0, 2.0, size=4))
        sq = clifford.slash(p) @ clifford.slash(p)
        scale = max(abs(p.square()), 1e-3)
        worst = max(worst, float(np.max(np.abs(sq - p.square() * np.eye(4)))) / scale)
    checks.append(_check("slash_square_relative", worst, 1e-12))

    worst = 0.0
    for _ in range(20):
        p3 = rng.uniform(-1.5, 1.5, size=3)
        m = rng.uniform(0.2, 2.0)
        energy = math.sqrt(p3 @ p3 + m * m)
        sl = clifford.slash(clifford.FourVector.from_spatial(energy, p3))
        u1 = clifford.on_shell_spinor(p3, m, "particle1")
        u2 = clifford.on_shell_spinor(p3, m, "particle2")
        worst = max(worst, float(np.max(np.abs(sl @ u1 - m * u1))) / m)
        worst = max(worst, float(np.max(np.abs(sl @ u2 - m * u2))) / m)
        worst = max(worst, abs(complex(np.vdot(u1, u2))))
    checks.append(_check("on_shell_spinor", worst, 1e-12))

    worst = 0.0
    for _ in range(50):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        p0 = direction * rng.uniform(0.1, 2.0)
        exponent = gup_algebra.commutator_consistency_exponent(p0)
        worst = max(worst, abs(exponent - 3.0))
    checks.append(_check("deformation_consistency_a_cubed", worst, 0.3))

    grid = gup_algebra.MomentumGrid.uniform(0.5, 2.5, 1024)
    gaussian = gup_algebra.gaussian_state(grid)
    report = gup_algebra.uncertainty_check(grid, gaussian, 0.0)
    worst = abs(report.lhs - report.rhs) / abs(report.rhs)
    checks.append(_check("uncertainty_gaussian_equality", worst, 1e-3))

    count = 100 if level == "full" else 20
    failures = 0.0
    for _ in range(count):
        state = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
        norm = math.sqrt(float(np.sum(gup_algebra._trapezoid_weights(grid.n, grid.h) * np.abs(state) ** 2)))
        report = gup_algebra.uncertainty_check(grid, state / norm, rng.uniform(0.0, 0.19), tolerance=1e-6)
        failures += 0.0 if report.holds else 1.0
    checks.append(_check("uncertainty_random_states", failures, 0.0))

    particle = ParticleSpec(charge=1.0, mass=1.0, speed=0.6)
    solenoid = SolenoidSpec(flux=1.0, radius=0.1)
    quad = QuadratureSpec(refinement="doubling", tolerance=1e-12)
    worst = 0.0
    for windings in (1, -1, 2):
        loop = circle_loop(radius=2.0, windings=windings)
        worst = max(worst, abs(ab_phase(particle, solenoid, loop, quad) - windings))
    checks.append(_check("flux_phase_quantization", worst, 1e-9))

    loop = circle_loop(radius=1.0)
    a = 0.01
    projected = gup_phase_projected(particle, loop, a, quad)
    closed_form = -a * particle.charge * particle.mass * (particle.energy / particle.speed - particle.momentum) * (
        2.0 * math.pi
    )
    checks.append(_check("comoving_closed_form", abs(projected - closed_form) / abs(closed_form), 1e-10))

    worst = 0.0
    for _ in range(100):
        p3 = rng.uniform(-2.0, 2.0, size=3)
        m = rng.uniform(0.2, 2.0)
        a_val = rng.uniform(0.0, 0.2)
        result = dispersion(p3, m, a_val)
        expected = np.array([result.e_minus, result.e_minus, result.e_plus, result.e_plus])
        worst = max(worst, float(np.max(np.abs(result.eigenvalues - expected))))
    checks.append(_check("dispersion_eigenvalues", worst, 1e-12))

    if level == "full":
        lab0 = gup_algebra.grid_operator_lab(gup_algebra.MomentumGrid.uniform(1.0, 2.0, 256), 0.0)
        checks.append(_check("grid_lab_discretization_order", abs(lab0.discretization_order - 2.0), 0.3))
        lab = gup_algebra.grid_operator_lab(gup_algebra.MomentumGrid.uniform(1.0, 2.0, 256), 0.05)
        checks.append(_check("grid_lab_residual", lab.max_residual_interior, 1e-3))
        lab512 = gup_algebra.grid_operator_lab(gup_algebra.MomentumGrid.uniform(1.0, 2.0, 512), 0.05)
        checks.append(_check("grid_lab_scaling_exponent", abs(lab512.gup_scaling_exponent - 3.0), 0.3))

    return {"level": level, "checks": checks, "all_passed": all(c["passed"] for c in checks)}


def _swept_row(config, parameter, value):
    """What one sweep row changes of ``config``, built by its own constructor: the ``replace`` keywords."""
    if parameter == "gup.a":
        return {"a": GupParameter(a=value).a}
    if parameter == "particle.v":
        return {"particle": replace(config.particle, speed=value)}
    if parameter == "loop.radius":
        (arc,) = config.loop.segments
        return {"loop": circle_loop(center=arc.center, radius=value, windings=round((arc.theta1 - arc.theta0) / (2.0 * math.pi)))}
    return {"solenoid": replace(config.solenoid, flux=value)}


def reference_sweep(config):
    """A sweep evaluated row by row: one config per value, each through ``run_phase``, in input order.

    Every row is built before any runs, as ``run_sweep`` did before it
    batched the rows; a loop.radius row is a whole ``circle_loop`` from the
    center and windings of the config's circle. The rows' results are then
    stacked into ``run_sweep``'s form: the values as an array and one
    ``PhaseResult`` with a column per field, matrices stacked on a leading
    axis. This is the oracle the batch is compared against.
    """
    sweep = config.sweep
    rows = [replace(config, **_swept_row(config, sweep.parameter, value)) for value in sweep.values]
    results = [run_phase(row) for row in rows]
    columns = (np.array([getattr(result, f.name) for result in results]) for f in fields(PhaseResult))
    return np.array(sweep.values), PhaseResult(*columns)


def reference_column_check(config, parameter, values):
    """The config error of the first sweep value its row's own constructor rejects, or None.

    Each value is checked alone, in input order, by building what its row
    changes (``GupParameter``, the particle or the solenoid with that value,
    or a whole ``circle_loop`` of that radius), as the CLI did before it
    checked each column in one call; the text is the CLI's.
    """
    for value in values:
        try:
            _swept_row(config, parameter, value)
        except (DomainError, GeometryError) as exc:
            return f"sweep.values for {parameter.split('.')[0]}.{exc}"
    return None


def _reference_unit_scale(radial):
    _, exponent = np.frexp(np.max(np.abs(radial), axis=(1, 2)))
    scale = np.ldexp(1.0, exponent - 1)
    return radial / scale[:, None, None], scale


def _reference_check_distinct(points, name):
    repeats = np.flatnonzero(np.all(points == np.roll(points, -1, axis=0), axis=1))
    if repeats.size:
        raise GeometryError(f"{name} repeat consecutively at index {repeats[0]}")


def reference_loop_of_lines(kind, points):
    """(ends, length) of ``make_loop(kind, ...)`` for a 'rectangle' or 'polyline', or the ``GeometryError`` it raises.

    The checks of ``rectangle_loop`` and ``polyline_loop``, then ``LoopPath``'s
    handling of a closed loop of ``Line``s, each in its earlier form: ``np.roll``
    for the next point, ``np.cross`` and ``np.linalg.norm`` for the rectangle's
    normal, and the ends scattered into an empty array by a boolean mask.
    """
    points = np.asarray(points, dtype=float)
    if kind == "rectangle":
        if points.shape != (4, 3):
            raise GeometryError("corners must list exactly four 3D points")
        _reference_check_distinct(points, "corners")
        with np.errstate(over="ignore", invalid="ignore"):
            (edges,), (power,) = _reference_unit_scale((np.roll(points, -1, axis=0) - points)[None])
            normal = np.cross(edges[0], edges[1])
            if np.linalg.norm(normal) == 0.0:
                raise GeometryError("corners are collinear")
            scale = float(np.max(np.abs(points - points[0]))) or 1.0
            if abs(-edges[3] @ normal) > 1e-9 * (scale / power) * np.linalg.norm(normal):
                raise GeometryError("corners are not planar")
    else:
        if points.ndim != 2 or points.shape[0] < 3 or points.shape[1] != 3:
            raise GeometryError("vertices must list at least three 3D points")
        _reference_check_distinct(points, "vertices")
    rows = [(*start, *end) for start, end in zip(points.tolist(), np.roll(points, -1, axis=0).tolist())]
    is_line = np.ones(len(rows), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        ends = np.empty((len(rows), 2, 3))
        ends[is_line] = np.reshape(rows, (-1, 2, 3))
        start, end = ends[is_line][:, 0], ends[is_line][:, 1]
        finite = np.isfinite(ends[is_line]).all(axis=(1, 2)) & np.isfinite(end - start).all(axis=1)
        raise_first(
            (np.logical_not(finite), GeometryError, _NON_FINITE),
            (np.all(start == end, axis=1), GeometryError, _VANISHING),
        )
        exact = float(np.sum(_gaps(start, end)))
        tol = 1e-12 * exact
        junctions = _gaps(ends[:-1, 1], ends[1:, 0])
        closure = _gaps(ends[-1:, 1], ends[:1, 0])[0]
    broken = np.flatnonzero(_broken(junctions, tol))
    if broken.size:
        raise GeometryError(f"segments do not join continuously (gap {junctions[broken[0]]:.3e})")
    if _broken(closure, tol):
        raise GeometryError(_OPEN.format(closure))
    return ends, exact


def reference_geometry_of_lines(ends, spec):
    """(swept angle, clearance) that ``loop_geometry`` gives a loop of lines with these (k, 2, 3) ends, in its earlier form.

    ``np.sum``, ``np.clip``, ``np.linalg.norm`` and ``np.stack`` where the
    current code calls ndarray methods and ufuncs.
    """
    d = np.asarray(spec.axis_direction)
    rel = np.asarray(ends, dtype=float) - np.asarray(spec.axis_point)
    unit, scale = _reference_unit_scale(rel - np.sum(rel * d, axis=-1)[..., None] * d)
    r_a, r_delta = unit[:, 0], unit[:, 1] - unit[:, 0]
    length_sq = np.sum(r_delta * r_delta, axis=1)
    t = np.divide(-np.sum(r_a * r_delta, axis=1), length_sq, out=np.zeros_like(length_sq), where=length_sq > 0.0)
    closest = r_a + np.clip(t, 0.0, 1.0)[:, None] * r_delta
    clearance = float(np.min(np.linalg.norm(closest, axis=1) * scale))
    a, b = unit[:, 0], unit[:, 1]
    normal = np.stack(
        [a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1], a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2], a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]],
        axis=-1,
    )
    return float(np.sum(np.arctan2(normal @ d, np.sum(a * b, axis=1)))), clearance


def reference_dispersion(p3, m, a):
    """(e_plus, e_minus, hamiltonian) as ``dispersion`` gave them when it built the Hamiltonian eagerly, or its error.

    The Hamiltonian and both branches are computed at once, and any of them
    not finite raises ``GupabError``.
    """
    m, a = np.asarray(m, dtype=float), np.asarray(a, dtype=float)
    raise_first(clifford.positive_mass(m), nonnegative_a(a))
    p3 = clifford.momenta(p3)
    with np.errstate(over="ignore", invalid="ignore"):
        ap = (p3 @ _ALPHA_ROWS).reshape(p3.shape[:-1] + (4, 4))
        hamiltonian = ap + a[..., None, None] * (ap @ ap) + m[..., None, None] * clifford.beta()
        p_sq = (p3 * p3).sum(axis=-1)
        root = np.sqrt(p_sq + m * m)
        e_plus, e_minus = root + a * p_sq, -root + a * p_sq
    if not all(np.isfinite(x).all() for x in (hamiltonian, e_plus, e_minus)):
        raise GupabError("dispersion is not finite: the inputs overflow double precision")
    return e_plus, e_minus, hamiltonian


def reference_csv(header, *columns):
    """The CSV text of ``header`` and the broadcast columns, written row by row with ``",".join(map(repr, row))``."""
    table = np.stack(np.broadcast_arrays(*columns), axis=-1).tolist()
    return "\n".join([header, *(",".join(map(repr, row)) for row in table)]) + "\n"
