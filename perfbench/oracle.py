"""Analytic references for every command the benchmark sends.

Nothing here imports gupab. The references are closed forms, evaluated with
the standard library only:

- flux phase: q * flux * w, with the winding w taken from the loop geometry
  (circle: offset against radius; polygon: sum of the angles its edges
  subtend at the axis);
- comoving correction: -a q m (E/v - p) L, with L the perimeter or
  2 pi r |windings|;
- correction matrix of a closed loop: -a q (E/v - p) E L gamma^0, and the
  fixed-spinor projection of it, which for the on-shell spinor of momentum
  k is that coefficient times m / sqrt(k^2 + m^2);
- dispersion rows: sqrt(p^2 + m^2) and sqrt(p^2 + m^2) + a p^2.

A phase result passes when each value is within max(1e-9, 10 x the
quadrature_error it reports) of its reference, and, under doubling
refinement, the reported error is within the requested tolerance.
"""

from __future__ import annotations

import copy
import json
import math

# CODATA 2018, as used for SI deformation strengths a = a0 * l_pl / hbar.
PLANCK_LENGTH_SI = 1.616255e-35
HBAR_SI = 1.054571817e-34

SWEEP_HEADER = "sweep_value,a,standard_phase,projected_correction,total_phase,quadrature_error"
DISPERSION_HEADER = "p,E_plus_a0,E_plus,shift"
LINEAR_SWEEPS = ("gup.a", "solenoid.flux")
VERIFY_CHECKS = (
    "gamma_algebra_exact",
    "slash_square_relative",
    "on_shell_spinor",
    "deformation_consistency_a_cubed",
    "uncertainty_gaussian_equality",
    "uncertainty_random_states",
    "flux_phase_quantization",
    "comoving_closed_form",
    "dispersion_eigenvalues",
)
VERIFY_FULL_CHECKS = ("grid_lab_discretization_order", "grid_lab_residual", "grid_lab_scaling_exponent")


# --- geometry -----------------------------------------------------------------


def _segment_distance(ax, ay, bx, by):
    """Distance in the xy-plane from the z axis to the segment a-b."""
    dx, dy = bx - ax, by - ay
    t = -(ax * dx + ay * dy) / (dx * dx + dy * dy)
    t = min(1.0, max(0.0, t))
    return math.hypot(ax + t * dx, ay + t * dy)


def polygon_geometry(vertices):
    """(winding about the z axis, 3D perimeter, xy distance from the axis)."""
    n = len(vertices)
    angle = 0.0
    length = 0.0
    clearance = math.inf
    for k in range(n):
        a, b = vertices[k], vertices[(k + 1) % n]
        angle += math.atan2(a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1])
        length += math.dist(a, b)
        clearance = min(clearance, _segment_distance(a[0], a[1], b[0], b[1]))
    return round(angle / (2.0 * math.pi)), length, clearance


def loop_geometry(loop: dict):
    """(winding about the z axis, length, xy distance from the axis) of a loop config."""
    if loop["kind"] == "circle":
        cx, cy, _ = loop.get("center", [0.0, 0.0, 0.0])
        radius, windings = loop["radius"], loop.get("windings", 1)
        offset = math.hypot(cx, cy)
        winding = windings if offset < radius else 0
        return winding, 2.0 * math.pi * radius * abs(windings), abs(offset - radius)
    points = loop["corners"] if loop["kind"] == "rectangle" else loop["vertices"]
    return polygon_geometry(points)


# --- references ---------------------------------------------------------------


def gup_a(gup: dict) -> float:
    if "a" in gup:
        return float(gup["a"])
    if gup.get("units", "natural") == "si":
        return gup["a0"] * PLANCK_LENGTH_SI / HBAR_SI
    return float(gup["a0"])


def expected_phase(config: dict) -> dict:
    """Reference standard phase, correction, total, and gamma^0 matrix coefficient."""
    q, m, v = (config["particle"][k] for k in ("q", "m", "v"))
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    energy, momentum = gamma * m, gamma * m * v
    a = gup_a(config["gup"])
    winding, length, _ = loop_geometry(config["loop"])
    standard = q * config["solenoid"]["flux"] * winding
    coefficient = -a * q * (energy / v - momentum) * energy * length
    if config.get("projection", "comoving_on_shell") == "fixed_spinor":
        k = config["spinor"]["momentum"]
        projected = coefficient * m / math.sqrt(k[0] ** 2 + k[1] ** 2 + k[2] ** 2 + m * m)
    else:
        projected = -a * q * m * (energy / v - momentum) * length
    return {"a": a, "standard": standard, "projected": projected, "total": standard + projected, "coefficient": coefficient}


def with_sweep_value(config: dict, parameter: str, value: float) -> dict:
    """The config a sweep row stands for (only the swept entry changes)."""
    section, key = parameter.split(".")
    row = copy.deepcopy(config)
    if section == "gup":
        row["gup"] = {"a": value}
    else:
        row[section][key] = value
    return row


# --- checks -------------------------------------------------------------------


def _tolerance(reported_error: float) -> float:
    return max(1e-9, 10.0 * reported_error)


def _quadrature_reasons(config: dict, reported_error: float):
    quad = config.get("quadrature") or {}
    if quad.get("refinement") == "doubling" and not reported_error <= quad.get("tolerance", 1e-10):
        return [f"quadrature_error {reported_error:.3e} above requested tolerance {quad.get('tolerance', 1e-10):.1e}"]
    return []


def _value_reasons(ref: dict, got: dict, reported_error: float):
    tol = _tolerance(reported_error)
    reasons = []
    if abs(got["a"] - ref["a"]) > 1e-12 * max(1.0, abs(ref["a"])):
        reasons.append(f"a {got['a']!r} != {ref['a']!r}")
    for key in ("standard", "projected", "total"):
        if not abs(got[key] - ref[key]) <= tol:
            reasons.append(f"{key} {got[key]!r} off reference {ref[key]!r} by more than {tol:.1e}")
    return reasons


def check_phase(config: dict, stdout: str):
    try:
        payload = json.loads(stdout)
        got = {
            "a": payload["a"],
            "standard": payload["standard_phase"],
            "projected": payload["projected_correction"],
            "total": payload["total_phase"],
        }
        qe = payload["quadrature_error"]
        flat = payload["correction_matrix"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable phase output: {exc}"]
    ref = expected_phase(config)
    reasons = _value_reasons(ref, got, qe) + _quadrature_reasons(config, qe)
    tol = _tolerance(qe)
    if len(flat) != 16:
        return reasons + ["correction_matrix does not have 16 entries"]
    for index, (re_part, im_part) in enumerate(flat):
        row, col = divmod(index, 4)
        want = 0.0 if row != col else (ref["coefficient"] if row < 2 else -ref["coefficient"])
        if not (abs(re_part - want) <= tol and abs(im_part) <= tol):
            reasons.append(f"correction_matrix[{row}][{col}] = {re_part!r}{im_part:+}j, reference {want!r}")
            break
    return reasons


def check_sweep(config: dict, stdout: str):
    lines = stdout.splitlines()
    parameter, values = config["sweep"]["parameter"], config["sweep"]["values"]
    if not lines or lines[0] != SWEEP_HEADER:
        return ["sweep CSV header differs from the frozen header"]
    if len(lines) - 1 != len(values):
        return [f"sweep has {len(lines) - 1} rows for {len(values)} values"]
    reasons = []
    for value, line in zip(values, lines[1:]):
        try:
            swept, a, standard, projected, total, qe = (float(x) for x in line.split(","))
        except ValueError:
            return [f"unreadable sweep row {line!r}"]
        if swept != value:
            reasons.append(f"sweep_value {swept!r} != {value!r}")
        row = with_sweep_value(config, parameter, value)
        got = {"a": a, "standard": standard, "projected": projected, "total": total}
        reasons += [f"{parameter}={value!r}: {r}" for r in _value_reasons(expected_phase(row), got, qe)]
        reasons += _quadrature_reasons(config, qe)
        if reasons:
            break
    return reasons


def check_dispersion(config: dict, p_max: float, steps: int, stdout: str):
    lines = stdout.splitlines()
    if not lines or lines[0] != DISPERSION_HEADER:
        return ["dispersion CSV header differs from the frozen header"]
    if len(lines) - 1 != steps:
        return [f"dispersion has {len(lines) - 1} rows for {steps} steps"]
    m, a = config["particle"]["m"], gup_a(config["gup"])
    for i, line in enumerate(lines[1:]):
        try:
            p, e0, e, shift = (float(x) for x in line.split(","))
        except ValueError:
            return [f"unreadable dispersion row {line!r}"]
        ref_p = p_max * i / (steps - 1)
        ref_e0 = math.sqrt(ref_p * ref_p + m * m)
        for name, got, want in (("p", p, ref_p), ("E_plus_a0", e0, ref_e0), ("E_plus", e, ref_e0 + a * ref_p * ref_p),
                                ("shift", shift, a * ref_p * ref_p)):
            if not abs(got - want) <= 1e-10 * (1.0 + abs(want)):
                return [f"row {i}: {name} {got!r}, reference {want!r}"]
    return []


def check_verify(level: str, inject_fault: bool, stdout: str):
    try:
        report = json.loads(stdout)
        checks = {c["name"]: c for c in report["checks"]}
        consistent = all(c["passed"] == (c["residual"] <= c["bound"]) for c in checks.values())
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verify output: {exc}"]
    expected = VERIFY_CHECKS + (VERIFY_FULL_CHECKS if level == "full" else ())
    reasons = [f"verify {level} lacks check {name}" for name in expected if name not in checks]
    if not consistent:
        reasons.append("a check's passed flag disagrees with its residual and bound")
    failing = sorted(name for name, c in checks.items() if not c["passed"])
    want_failing = ["gamma_algebra_exact"] if inject_fault else []
    if failing != want_failing:
        reasons.append(f"failing checks {failing}, expected {want_failing}")
    if report.get("all_passed") != (not inject_fault):
        reasons.append(f"all_passed is {report.get('all_passed')!r}")
    return reasons


def check(command, exit_code, stdout: str, stderr: str):
    """Reasons the command's outcome is wrong; an empty list means it passed."""
    if exit_code != command.expect_exit:
        detail = stderr.strip().splitlines()[-1] if stderr.strip() else "no message"
        return [f"exit {exit_code}, expected {command.expect_exit} ({command.label}): {detail}"]
    kind = command.argv[0]
    if kind == "verify":
        return check_verify(command.argv[2], "--inject-fault" in command.argv, stdout)
    if command.expect_exit != 0:
        if stdout:
            return ["failed command still printed a result"]
        return []
    if kind == "phase":
        return check_phase(command.config, stdout)
    if kind == "sweep":
        return check_sweep(command.config, stdout)
    if kind == "dispersion":
        return check_dispersion(command.config, float(command.argv[4]), int(command.argv[6]), stdout)
    return [f"no oracle for command {kind!r}"]
