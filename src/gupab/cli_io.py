"""Config loading, command dispatch, parameter sweeps, and machine output.

Configs are strict JSON. This module checks their shape: unknown keys, JSON types, and the
string choices that pick a code path (loop kind, gup units, projection, sweep parameter). A
number must be finite, so an integer beyond the float range is rejected. Every value is then
validated once, by the check its engine constructor makes, before any computation starts: a
sweep column in one call of that check, which names the first bad row. ``_build`` turns the
error into a ``ConfigError`` naming ``section.key``; so do a dispersion range that is not
positive and finite and a step count outside [2, 10**6]. Structured results go out as JSON,
sweep and dispersion tables as CSV with a frozen header, both from one template, each sweep one
batch over one geometry record (for ``loop.radius`` one array of circles) into one column
result, its rows in input order.
Output is written to stdout or the ``-o`` file only once the command has finished, so a failed
run leaves an existing file as it was. Exit codes: 0 success, 1 verification or computation
failure, 2 config error or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import clifford, gup_algebra
from .errors import ConfigError, DomainError, GeometryError, GupabError, raise_first, to_float
from .field_geometry import LoopPath, QuadratureSpec, SolenoidSpec, circle_arc, finite_flux, loop_geometry, make_loop
from .phase_engine import (
    ParticleSpec,
    PhaseResult,
    dispersion,
    gup_phase_projected,
    phase_rows,
    subluminal_speed,
    total_phase,
)
from .units import GupParameter, UnitSystem, gup_from_a0, nonnegative_a

SWEEP_CSV_HEADER = "sweep_value,a,standard_phase,projected_correction,total_phase,quadrature_error"
DISPERSION_CSV_HEADER = "p,E_plus_a0,E_plus,shift"
_COLUMN_CHECKS = {  # (loop, column) -> raise for the first bad row: the check the column's constructor makes
    "gup.a": lambda loop, column: raise_first(nonnegative_a(column)),
    "loop.radius": lambda loop, column: raise_first(*circle_arc(loop, column).checks()),
    "particle.v": lambda loop, column: raise_first(subluminal_speed(column)),
    "solenoid.flux": lambda loop, column: raise_first(finite_flux(column)),
}
_MAX_DISPERSION_STEPS = 10**6  # rows of one dispersion table, which bounds the memory it takes
_SWEPT_INPUT = {"gup.a": "a", "particle.v": "speed", "solenoid.flux": "flux"}  # the ``phase_rows`` input each sets
PROJECTIONS = ("comoving_on_shell", "fixed_spinor")
# json.dumps(indent=2)'s layout of a PhaseResult.to_json_dict(), a %r per float: json's C encoder does no indenting
_PHASE_JSON = (
    '{\n  "standard_phase": %r,\n  "projected_correction": %r,\n  "total_phase": %r,\n  "quadrature_error": %r,\n'
    '  "a": %r,\n  "correction_matrix": [\n' + ",\n".join(["    [\n      %r,\n      %r\n    ]"] * 16) + "\n  ]\n}\n"
)


def _reject_unknown(mapping: dict, allowed, context: str):
    for key in mapping:
        if key not in allowed:
            where = context or "top level"
            raise ConfigError(f"unknown key {key!r} in {where}")


def _section(raw, name: str, allowed):
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be an object")
    _reject_unknown(raw, allowed, name)


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing required key '{context}.{key}'" if context else f"missing required key '{key}'")
    return mapping[key]


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    value = to_float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    return value


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer")
    return value


def _vector3(value, name: str):
    if not (isinstance(value, list) and len(value) == 3):
        raise ConfigError(f"{name} must be a list of three numbers")
    return [_number(c, name) for c in value]


def _points(value, name: str):
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of points")
    return [_vector3(point, name) for point in value]


def _build(section: str, factory, *args, **kwargs):
    """Call an engine constructor; its error becomes a ConfigError under ``section``.

    Each precondition message starts with the schema name of the value it
    checks, so the user reads, for example, "particle.v must be in (0,1)".
    """
    try:
        return factory(*args, **kwargs)
    except (DomainError, GeometryError) as exc:
        raise ConfigError(f"{section}.{exc}") from exc


@dataclass(frozen=True)
class SweepSpec:
    """The swept parameter and its values, each checked when the config is parsed."""

    parameter: str
    values: tuple


@dataclass(frozen=True)
class RunConfig:
    """Fully validated inputs for one engine run (plus an optional sweep).

    ``loop`` is built once, when the config is parsed; a ``loop.radius``
    sweep builds none of its own.
    """

    particle: ParticleSpec
    solenoid: SolenoidSpec
    loop: LoopPath
    a: float
    quadrature: QuadratureSpec
    spinor: np.ndarray | None
    sweep: SweepSpec | None


def _parse_particle(raw) -> ParticleSpec:
    _section(raw, "particle", {"q", "m", "v"})
    q, m, v = (_number(_require(raw, key, "particle"), f"particle.{key}") for key in ("q", "m", "v"))
    return _build("particle", ParticleSpec, charge=q, mass=m, speed=v)


def _parse_solenoid(raw) -> SolenoidSpec:
    _section(raw, "solenoid", {"flux", "radius"})
    flux, radius = (_number(_require(raw, key, "solenoid"), f"solenoid.{key}") for key in ("flux", "radius"))
    return _build("solenoid", SolenoidSpec, flux=flux, radius=radius)


def _parse_loop(raw):
    if not isinstance(raw, dict):
        raise ConfigError("loop must be an object")
    kind = _require(raw, "kind", "loop")
    if kind == "circle":
        _reject_unknown(raw, {"kind", "center", "radius", "windings"}, "loop")
        params = {
            "radius": _number(_require(raw, "radius", "loop"), "loop.radius"),
            "center": tuple(_vector3(raw.get("center", [0.0, 0.0, 0.0]), "loop.center")),
            "windings": _integer(raw.get("windings", 1), "loop.windings"),
        }
    elif kind == "rectangle":
        _reject_unknown(raw, {"kind", "corners"}, "loop")
        params = {"corners": _points(_require(raw, "corners", "loop"), "loop.corners")}
    elif kind == "polyline":
        _reject_unknown(raw, {"kind", "vertices"}, "loop")
        params = {"vertices": _points(_require(raw, "vertices", "loop"), "loop.vertices")}
    else:
        raise ConfigError("loop.kind must be one of circle, rectangle, polyline")
    return kind, params


def _parse_gup(raw) -> float:
    _section(raw, "gup", {"a", "a0", "units"})
    if "a" in raw:
        if "a0" in raw or "units" in raw:
            raise ConfigError("gup accepts either 'a' or 'a0'+'units', not both")
        a = _number(raw["a"], "gup.a")
        return _build("gup", GupParameter, a=a).a
    a0 = _number(_require(raw, "a0", "gup"), "gup.a0")
    mode = raw.get("units", "natural")
    if mode not in ("natural", "si"):
        raise ConfigError("gup.units must be 'natural' or 'si'")
    units = UnitSystem.si() if mode == "si" else UnitSystem.natural()
    return _build("gup", gup_from_a0, a0, units).a


def _parse_quadrature(raw) -> QuadratureSpec:
    if raw is None:
        return QuadratureSpec()
    _section(raw, "quadrature", {"nodes_per_segment", "tolerance", "refinement"})
    return _build(
        "quadrature",
        QuadratureSpec,
        nodes_per_segment=_integer(raw.get("nodes_per_segment", 16), "quadrature.nodes_per_segment"),
        refinement=raw.get("refinement", "fixed"),
        tolerance=_number(raw.get("tolerance", 1e-10), "quadrature.tolerance"),
    )


def _parse_spinor(raw, particle: ParticleSpec):
    _section(raw, "spinor", {"momentum", "branch"})
    momentum = _vector3(_require(raw, "momentum", "spinor"), "spinor.momentum")
    branch = raw.get("branch", "particle1")
    return _build("spinor", clifford.on_shell_spinor, np.asarray(momentum), particle.mass, branch)


def _parse_sweep(raw, loop: LoopPath, loop_kind: str) -> SweepSpec:
    """Check the sweep section and, in one ``_COLUMN_CHECKS`` call, its values: a bad one is a config error."""
    _section(raw, "sweep", {"parameter", "values"})
    parameter = _require(raw, "parameter", "sweep")
    if not isinstance(parameter, str) or parameter not in _COLUMN_CHECKS:
        raise ConfigError(f"sweep.parameter must be one of {', '.join(_COLUMN_CHECKS)}")
    values = _require(raw, "values", "sweep")
    if not (isinstance(values, list) and values):
        raise ConfigError("sweep.values must be a non-empty list")
    values = tuple(_number(v, "sweep.values") for v in values)
    if parameter == "loop.radius" and loop_kind != "circle":
        raise ConfigError("sweeping loop.radius requires a circle loop")
    with np.errstate(over="ignore"):  # a radius whose circle's size or length overflows is reported as non-finite
        _build(f"sweep.values for {parameter.split('.')[0]}", _COLUMN_CHECKS[parameter], loop, np.array(values))
    return SweepSpec(parameter=parameter, values=values)


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    allowed = {"particle", "solenoid", "loop", "gup", "quadrature", "projection", "spinor", "sweep"}
    _reject_unknown(raw, allowed, "")
    particle = _parse_particle(_require(raw, "particle", ""))
    solenoid = _parse_solenoid(_require(raw, "solenoid", ""))
    loop_kind, loop_params = _parse_loop(_require(raw, "loop", ""))
    a = _parse_gup(_require(raw, "gup", ""))
    quadrature = _parse_quadrature(raw.get("quadrature"))
    projection = raw.get("projection", "comoving_on_shell")
    if projection not in PROJECTIONS:
        raise ConfigError(f"projection must be one of {', '.join(PROJECTIONS)}")
    spinor = None
    if projection == "fixed_spinor":
        spinor = _parse_spinor(_require(raw, "spinor", ""), particle)
    elif "spinor" in raw:
        raise ConfigError("spinor is only meaningful with projection 'fixed_spinor'")
    loop = _build("loop", make_loop, loop_kind, **loop_params)
    sweep = _parse_sweep(raw["sweep"], loop, loop_kind) if "sweep" in raw else None
    return RunConfig(particle=particle, solenoid=solenoid, loop=loop, a=a, quadrature=quadrature, spinor=spinor, sweep=sweep)


def load_config(path) -> RunConfig:
    """Read, parse, and fully validate a JSON run configuration."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # nested too deeply, or an integer past the digit limit
        raise ConfigError(f"config parse error: {exc}") from exc
    return parse_config(raw)


def run_phase(config: RunConfig) -> PhaseResult:
    return total_phase(
        config.particle,
        config.solenoid,
        config.loop,
        config.a,
        config.quadrature,
        spinor=config.spinor,
    )


def run_sweep(config: RunConfig) -> tuple[np.ndarray, PhaseResult]:
    """The sweep values, as an array, and one ``PhaseResult`` of every row, a batch over one geometry record.

    A gup.a, particle.v or solenoid.flux sweep computes the loop's
    ``loop_geometry`` record, whose turns hold for every flux, and a
    loop.radius sweep that of the loop's circle with the radius column
    swapped in; ``phase_rows`` then takes every row at once, each row with
    the operations ``run_phase`` would give it. The result's fields are
    columns in input order, or one value that every row shares. A config
    with no sweep section is a ``ConfigError``; a failing sweep raises the
    error of its first failing row.
    """
    if config.sweep is None:
        raise ConfigError("sweep command needs a 'sweep' section in the config")
    sweep, particle, solenoid = config.sweep, config.particle, config.solenoid
    values = np.array(sweep.values)
    inputs = dict(charge=particle.charge, mass=particle.mass, speed=particle.speed, flux=solenoid.flux, a=config.a)
    if sweep.parameter == "loop.radius":
        geometry = loop_geometry(config.loop, solenoid, config.quadrature, values)
    else:
        geometry = loop_geometry(config.loop, solenoid, config.quadrature)
        inputs[_SWEPT_INPUT[sweep.parameter]] = values
    return values, phase_rows(geometry, **inputs, spinor=config.spinor)


def phase_json(result: PhaseResult) -> str:
    """``json.dumps(result.to_json_dict(), indent=2) + "\n"`` from a fixed template: each value is a finite float, its repr json's."""
    *values, matrix = result.to_json_dict().values()
    return _PHASE_JSON % (*values, *(part for pair in matrix for part in pair))


def _csv(header: str, *columns) -> str:
    """``header``, then ``",".join(map(repr, row))`` for each row of the broadcast float columns, from one template.

    A column that holds one double, bit for bit, in every row goes into the
    template as its repr, so only the other columns are formatted row by row.
    """
    table = np.stack(np.broadcast_arrays(*columns), axis=-1)
    bits = table.view(np.int64)
    varies = (bits != bits[0]).any(axis=0)
    fields = ["%r" if v else repr(x) for v, x in zip(varies.tolist(), table[0].tolist())]
    values = table if varies.all() else table[:, varies]  # a copy only where a column is written once
    return f"{header}\n" + (",".join(fields) + "\n") * len(table) % tuple(values.ravel().tolist())


def sweep_csv(sweep) -> str:
    """The CSV table of ``run_sweep``'s values and column result: one line per value, under the frozen header."""
    values, result = sweep
    columns = (values, result.a, result.standard_phase, result.projected_correction, result.total_phase, result.quadrature_error)
    return _csv(SWEEP_CSV_HEADER, *columns)


def dispersion_csv(config: RunConfig, p_max: float, steps: int) -> str:
    if steps < 2:
        raise ConfigError("dispersion needs at least 2 steps")
    if steps > _MAX_DISPERSION_STEPS:
        raise ConfigError(f"dispersion needs at most {_MAX_DISPERSION_STEPS} steps")
    if not p_max > 0.0:
        raise ConfigError("dispersion p range must be positive")
    if p_max == math.inf:
        raise ConfigError("dispersion p range must be finite")
    with np.errstate(over="ignore"):  # its last step, which may round past the largest double, is set to p_max
        p = np.linspace(0.0, p_max, steps)
    momenta = p[:, None] * [1.0, 0.0, 0.0]  # along x: each p is finite and nonnegative, so this is exact
    base = dispersion(momenta, config.particle.mass, 0.0).e_plus
    shifted = dispersion(momenta, config.particle.mass, config.a).e_plus
    return _csv(DISPERSION_CSV_HEADER, p, base, shifted, shifted - base)


# --- verification suite -----------------------------------------------------


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


_STATE_BLOCK = 20  # random states checked per call, which bounds the memory a 'full' run needs


def run_verification(level: str = "fast", gamma_perturbation: float = 0.0) -> dict:
    """Run the built-in consistency checks; 'full' adds the grid operator lab.

    Every check draws its rows of seeded inputs from one generator, in a
    fixed order, and then evaluates all of them in one batched call (the
    random states in blocks of ``_STATE_BLOCK``). A check whose rows are all
    uniform draws takes them in one call; the numbers and their order are
    those of the row loop, since a uniform draw takes one word of the
    generator per value. Nothing is cached: every call recomputes every check.
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
    failures = 0
    for _ in range(count // _STATE_BLOCK):
        states, a_values = _draw_rows(
            _STATE_BLOCK, lambda: (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n), rng.uniform(0.0, 0.19))
        )
        states /= np.sqrt(np.sum(weights * np.abs(states) ** 2, axis=1))[:, None]
        report = gup_algebra.uncertainty_check(grid, states, a_values, tolerance=1e-6)
        failures += np.count_nonzero(~report.holds)
    checks.append(_check("uncertainty_random_states", failures, 0.0))

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


# --- command-line interface ---------------------------------------------------


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="gupab",
        description="Flux phases for charged spin-half particles with a minimal-length deformed algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_phase = sub.add_parser("phase", help="compute one phase result as JSON")
    p_phase.add_argument("-c", "--config", required=True, help="path to JSON run config")
    p_phase.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter sweep as CSV")
    p_sweep.add_argument("-c", "--config", required=True)
    p_sweep.add_argument("-o", "--output", default=None)

    p_verify = sub.add_parser("verify", help="run the built-in consistency checks")
    p_verify.add_argument("--level", choices=("fast", "full"), default="fast")
    p_verify.add_argument("-o", "--output", default=None)
    p_verify.add_argument(
        "--inject-fault",
        action="store_true",
        help="perturb an internal matrix to confirm the checks can fail (testing hook)",
    )

    p_disp = sub.add_parser("dispersion", help="tabulate the deformed dispersion relation as CSV")
    p_disp.add_argument("-c", "--config", required=True)
    p_disp.add_argument("--pmax", type=float, default=2.0)
    p_disp.add_argument("--steps", type=int, default=100)
    p_disp.add_argument("-o", "--output", default=None)
    return parser


def main(argv=None) -> int:
    """Run one command; its output goes to stdout or ``-o FILE`` only once it has finished."""
    args = _parser().parse_args(argv)
    code = 0
    try:
        if args.command == "verify":
            report = run_verification(args.level, 1e-6 if args.inject_fault else 0.0)
            text, code = json.dumps(report, indent=2) + "\n", 0 if report["all_passed"] else 1
        else:
            config = load_config(args.config)
            if args.command == "phase":
                text = phase_json(run_phase(config))
            elif args.command == "dispersion":
                text = dispersion_csv(config, args.pmax, args.steps)
            else:
                text = sweep_csv(run_sweep(config))
        if args.output is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            try:
                with open(args.output, "w", encoding="utf-8", newline="") as stream:
                    stream.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output file: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GupabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
