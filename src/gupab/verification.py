"""The built-in consistency checks that ``gupab verify`` runs.

Each check evaluates one identity of the package on seeded inputs and
reports its residual against a fixed bound: the Clifford algebra, the slash
square, on-shell spinors, the a^3 consistency of the deformed brackets, the
uncertainty bound, flux quantization, the comoving closed form and the
dispersion eigenvalues; 'full' adds the grid operator lab. The CLI loads this
module, and ``gup_algebra`` with it, only when ``verify`` runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import clifford, gup_algebra
from .errors import ConfigError
from .field_geometry import SolenoidSpec
from .phase_engine import ParticleSpec, dispersion, gup_phase_projected


def _check(name, residual, bound):
    return {"name": name, "passed": bool(residual <= bound), "residual": float(residual), "bound": float(bound)}


def _gamma_algebra_residual(perturbation: float) -> float:
    """Largest deviation of the gamma, alpha and beta anticommutators from the Clifford algebra."""
    gammas = np.stack([clifford.gamma(mu) for mu in range(4)])
    gammas[1] += perturbation  # test hook: detector must flag this
    alphas = np.stack([clifford.alpha(i) for i in (1, 2, 3)])
    b = clifford.beta()
    anti_g = gammas[:, None] @ gammas[None, :] + gammas[None, :] @ gammas[:, None]
    anti_a = alphas[:, None] @ alphas[None, :] + alphas[None, :] @ alphas[:, None]
    return max(
        float(np.max(np.abs(anti_g - 2.0 * clifford.MINKOWSKI_METRIC[:, :, None, None] * np.eye(4)))),
        float(np.max(np.abs(anti_a - 2.0 * np.eye(3)[:, :, None, None] * np.eye(4)))),
        float(np.max(np.abs(alphas @ b + b @ alphas))),
    )


def _draw_rows(count: int, draw):
    """Call ``draw()``, which returns a tuple of draws, ``count`` times; stack each position into an array.

    For rows that mix normal and uniform draws: a normal draw may take more
    than one word of the generator, so such rows are drawn one at a time, and
    a seeded generator hands out its numbers in the same order as a loop that
    uses each row as it is drawn.
    """
    return [np.array(column) for column in zip(*(draw() for _ in range(count)))]


_STATE_BLOCK = 10  # random states checked per call, which bounds the memory a 'full' run needs


def run_verification(level: str = "fast", gamma_perturbation: float = 0.0) -> dict:
    """Run the built-in consistency checks; 'full' adds the grid operator lab.

    Every check draws its rows of seeded inputs from one generator, in a
    fixed order, and then evaluates all of them in one batched call (the
    random states in blocks of ``_STATE_BLOCK``). A check whose rows are all
    uniform draws takes them in one call; the numbers and their order are
    those of the row loop, since a uniform draw takes one word of the
    generator per value. Each block of random states is drawn row by row
    into one (block, 2, n) float buffer, allocated once per call: a row's
    real and then imaginary normal draws, then its a, as a loop that drew
    each state when it used it would take them. The random states are
    normalized by a product with the reciprocal of their norms, whose
    weighted |state|^2 are formed in place in one array; the product gives
    the bits of numpy's complex division by a real wherever no coordinate is
    zero, and the algebra checks run ``gup_algebra``'s real kernels: no
    algebra check divides a complex array by a real. 'full' reads only the
    grid-lab fields it reports, and the lab measures a field only when it is
    read. Nothing is cached: every call recomputes every check.
    """
    if level not in ("fast", "full"):
        raise ConfigError("verify level must be 'fast' or 'full'")
    rng = np.random.default_rng(20250810)
    checks = []

    checks.append(_check("gamma_algebra_exact", _gamma_algebra_residual(gamma_perturbation), 0.0))

    p = clifford.FourVector(*rng.uniform(-2.0, 2.0, size=(100, 4)).T)
    sl = clifford.slash(p)
    p_sq = p.square()
    deviation = np.max(np.abs(sl @ sl - p_sq[:, None, None] * np.eye(4)), axis=(1, 2))
    checks.append(_check("slash_square_relative", np.max(deviation / np.maximum(np.abs(p_sq), 1e-3)), 1e-12))

    rows = rng.uniform([-1.5, -1.5, -1.5, 0.2], [1.5, 1.5, 1.5, 2.0], size=(20, 4))
    p3, m = rows[:, :3], rows[:, 3]
    energy = np.sqrt(np.sum(p3 * p3, axis=1) + m * m)
    sl = clifford.slash(clifford.FourVector.from_spatial(energy, p3))
    u1 = clifford.on_shell_spinor(p3, m, "particle1")
    u2 = clifford.on_shell_spinor(p3, m, "particle2")
    off_shell = [np.max(np.abs((sl @ u[..., None])[..., 0] - m[:, None] * u), axis=1) / m for u in (u1, u2)]
    overlap = np.abs(np.sum(np.conj(u1) * u2, axis=1))
    checks.append(_check("on_shell_spinor", np.max([*off_shell, overlap]), 1e-12))

    direction, magnitude = _draw_rows(50, lambda: (rng.normal(size=3), rng.uniform(0.1, 2.0)))
    p0 = direction / np.linalg.norm(direction, axis=1, keepdims=True) * magnitude[:, None]
    exponents = gup_algebra.consistency_exponents(p0)
    checks.append(_check("deformation_consistency_a_cubed", np.max(np.abs(exponents - 3.0)), 0.3))

    grid = gup_algebra.MomentumGrid.uniform(0.5, 2.5, 1024)
    gaussian = gup_algebra.gaussian_state(grid)
    report = gup_algebra.uncertainty_check(grid, gaussian, 0.0)
    worst = abs(report.lhs - report.rhs) / abs(report.rhs)
    checks.append(_check("uncertainty_gaussian_equality", worst, 1e-3))

    count = 100 if level == "full" else 20
    weights = gup_algebra._trapezoid_weights(grid.n, grid.h)
    parts = np.empty((_STATE_BLOCK, 2, grid.n))  # each row's real and imaginary normal draws, refilled per block
    a_values = np.empty(_STATE_BLOCK)
    failures = 0
    for _ in range(count // _STATE_BLOCK):
        for row in range(_STATE_BLOCK):
            rng.standard_normal(out=parts[row])
            a_values[row] = rng.uniform(0.0, 0.19)
        states = parts[:, 0] + 1j * parts[:, 1]
        density = np.abs(states)
        density **= 2
        density *= weights
        states *= 1.0 / np.sqrt(np.sum(density, axis=1))[:, None]
        report = gup_algebra.uncertainty_check(grid, states, a_values, tolerance=1e-6)
        failures += np.count_nonzero(~report.holds)
    checks.append(_check("uncertainty_random_states", failures, 0.0))

    # read from their modules at each call, so a name patched there is the one called (the benchmark's tracer
    # patches field_geometry.circle_loop)
    from .field_geometry import circle_loop
    from .phase_engine import ab_phase

    particle = ParticleSpec(charge=1.0, mass=1.0, speed=0.6)
    solenoid = SolenoidSpec(flux=1.0, radius=0.1)
    worst = 0.0
    for windings in (1, -1, 2):
        loop = circle_loop(radius=2.0, windings=windings)
        worst = max(worst, abs(ab_phase(particle, solenoid, loop) - windings))
    checks.append(_check("flux_phase_quantization", worst, 1e-9))

    loop = circle_loop(radius=1.0)
    a = 0.01
    projected = gup_phase_projected(particle, loop, a)
    closed_form = -a * particle.charge * particle.mass * (particle.energy / particle.speed - particle.momentum) * (
        2.0 * math.pi
    )
    checks.append(_check("comoving_closed_form", abs(projected - closed_form) / abs(closed_form), 1e-10))

    rows = rng.uniform([-2.0, -2.0, -2.0, 0.2, 0.0], [2.0, 2.0, 2.0, 2.0, 0.2], size=(100, 5))
    result = dispersion(rows[:, :3], rows[:, 3], rows[:, 4])
    expected = np.stack([result.e_minus, result.e_minus, result.e_plus, result.e_plus], axis=-1)
    checks.append(_check("dispersion_eigenvalues", np.max(np.abs(result.eigenvalues - expected)), 1e-12))

    if level == "full":
        lab0 = gup_algebra.grid_operator_lab(gup_algebra.MomentumGrid.uniform(1.0, 2.0, 256), 0.0)
        checks.append(_check("grid_lab_discretization_order", abs(lab0.discretization_order - 2.0), 0.3))
        lab = gup_algebra.grid_operator_lab(gup_algebra.MomentumGrid.uniform(1.0, 2.0, 256), 0.05)
        checks.append(_check("grid_lab_residual", lab.max_residual_interior, 1e-3))
        lab512 = gup_algebra.grid_operator_lab(gup_algebra.MomentumGrid.uniform(1.0, 2.0, 512), 0.05)
        checks.append(_check("grid_lab_scaling_exponent", abs(lab512.gup_scaling_exponent - 3.0), 0.3))

    return {"level": level, "checks": checks, "all_passed": all(c["passed"] for c in checks)}
