import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

from dataclasses import fields, replace

import numpy as np
import pytest
from helpers import fourier_loop, reference_column_check, reference_csv, reference_sweep, reference_verification
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gupab import cli_io, field_geometry, phase_engine
from gupab.cli_io import (
    DISPERSION_CSV_HEADER,
    PROJECTIONS,
    SWEEP_CSV_HEADER,
    SweepSpec,
    load_config,
    main,
    phase_json,
    run_phase,
    run_sweep,
    run_verification,
    sweep_csv,
)
from gupab.errors import ConfigError, GeometryError, GupabError
from gupab.field_geometry import LoopPath, QuadratureSpec, SolenoidSpec, circle_loop, line_segment, loop_geometry, solenoid_circulation
from gupab.phase_engine import ParticleSpec, PhaseResult, dispersion, gup_phase_projected, total_phase

BASE_CONFIG = {
    "particle": {"q": 1.0, "m": 1.0, "v": 0.6},
    "solenoid": {"flux": 1.0, "radius": 0.1},
    "loop": {"kind": "circle", "radius": 2.0, "windings": 1},
    "gup": {"a": 0.01},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_minimal_config_gets_defaults(tmp_path):
    config = load_config(write_config(tmp_path, BASE_CONFIG))
    assert config.quadrature.nodes_per_segment == 16
    assert config.quadrature.tolerance == 1e-10
    assert config.quadrature.refinement == "fixed"
    assert config.spinor is None
    assert config.sweep is None
    assert config.a == 0.01


def test_speed_out_of_range_names_constraint(tmp_path):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["particle"]["v"] = 1.2
    with pytest.raises(ConfigError, match=r"particle\.v must be in \(0,1\)"):
        load_config(write_config(tmp_path, payload))


def test_unknown_key_rejected(tmp_path):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["particle"]["spin"] = 0.5
    with pytest.raises(ConfigError, match="unknown key 'spin'"):
        load_config(write_config(tmp_path, payload))
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["extra"] = {}
    with pytest.raises(ConfigError, match="unknown key 'extra'"):
        load_config(write_config(tmp_path, payload))


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "particle": {,}\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(path))


def test_missing_required_key(tmp_path):
    payload = {k: v for k, v in BASE_CONFIG.items() if k != "solenoid"}
    with pytest.raises(ConfigError, match="missing required key 'solenoid'"):
        load_config(write_config(tmp_path, payload))


def test_gup_from_a0_natural_and_si(tmp_path):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["gup"] = {"a0": 2.0, "units": "natural"}
    assert load_config(write_config(tmp_path, payload)).a == 2.0
    payload["gup"] = {"a0": 1.0, "units": "si"}
    config = load_config(write_config(tmp_path, payload))
    assert config.a == pytest.approx(1.616255e-35 / 1.054571817e-34, rel=1e-12)
    payload["gup"] = {"a": 0.01, "a0": 1.0}
    with pytest.raises(ConfigError, match="either 'a' or 'a0'"):
        load_config(write_config(tmp_path, payload))


def test_fixed_spinor_config(tmp_path):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["projection"] = "fixed_spinor"
    payload["spinor"] = {"momentum": [0.0, 0.0, 0.75], "branch": "particle1"}
    config = load_config(write_config(tmp_path, payload))
    assert config.spinor is not None and config.spinor.shape == (4,)
    result = run_phase(config)
    assert math.isfinite(result.projected_correction)


def test_fixed_spinor_at_a_momentum_whose_square_overflows(tmp_path, capsys):
    # not the rest spinor: the ultrarelativistic limit (1, 0, 0, (1 + i) / sqrt(2)) / sqrt(2), with no warning
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["projection"] = "fixed_spinor"
    payload["spinor"] = {"momentum": [1e308, 1e308, 0.0]}
    path = write_config(tmp_path, payload)
    expected = np.array([1.0, 0.0, 0.0, (1.0 + 1.0j) / math.sqrt(2.0)]) / math.sqrt(2.0)
    np.testing.assert_allclose(load_config(path).spinor, expected, rtol=0.0, atol=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["phase", "-c", path]) == 0
    assert capsys.readouterr().err == ""


def test_spinor_without_fixed_projection_rejected(tmp_path):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["spinor"] = {"momentum": [0.0, 0.0, 0.75]}
    with pytest.raises(ConfigError, match="fixed_spinor"):
        load_config(write_config(tmp_path, payload))


def test_sweep_validation(tmp_path):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["sweep"] = {"parameter": "loop.windings", "values": [1, 2]}
    with pytest.raises(ConfigError, match="sweep.parameter"):
        load_config(write_config(tmp_path, payload))
    payload["sweep"] = {"parameter": "gup.a", "values": []}
    with pytest.raises(ConfigError, match="non-empty"):
        load_config(write_config(tmp_path, payload))
    for values in ([0.5, 1.5], [0.3, 0.6, 1.0, 0.2]):
        payload["sweep"] = {"parameter": "particle.v", "values": values}
        with pytest.raises(ConfigError, match="particle.v"):
            load_config(write_config(tmp_path, payload))
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["loop"] = {"kind": "rectangle", "corners": [[1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0]]}
    payload["sweep"] = {"parameter": "loop.radius", "values": [1.0]}
    with pytest.raises(ConfigError, match="circle"):
        load_config(write_config(tmp_path, payload))


def test_a_circle_whose_end_rounds_off_its_start_still_runs(tmp_path, capsys):
    # the cos and sin of its end angle put the end 9.8e-4 off its start, past the closure tolerance of 6.3e-4
    loop = {"kind": "circle", "center": [2.0**42, 0.0, 0.0], "radius": 1.00146484375, "windings": 10**8}
    payload = {**BASE_CONFIG, "loop": loop}
    assert main(["phase", "-c", write_config(tmp_path, payload)]) == 0
    phase = json.loads(capsys.readouterr().out)
    payload["sweep"] = {"parameter": "loop.radius", "values": [1.00146484375, 2.0]}
    assert main(["sweep", "-c", write_config(tmp_path, payload, "sweep.json")]) == 0
    _, first, _ = capsys.readouterr().out.splitlines()
    assert first.split(",")[4] == repr(phase["total_phase"])


def test_cmd_phase_worked_example(tmp_path, capsys):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["quadrature"] = {"refinement": "doubling", "tolerance": 1e-12}
    assert main(["phase", "-c", write_config(tmp_path, payload)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["standard_phase"] == pytest.approx(1.0, abs=1e-10)
    assert out["total_phase"] == pytest.approx(1.0 - 4.0 * math.pi / 75.0, abs=1e-9)
    assert list(out.keys()) == [
        "standard_phase",
        "projected_correction",
        "total_phase",
        "quadrature_error",
        "a",
        "correction_matrix",
    ]
    restored = PhaseResult.from_json_dict(out)
    assert restored.total_phase == out["total_phase"]


def test_cmd_phase_zero_coupling_exact_zero(tmp_path, capsys):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["gup"] = {"a": 0.0}
    assert main(["phase", "-c", write_config(tmp_path, payload)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["projected_correction"] == 0.0
    assert all(re == 0.0 and im == 0.0 for re, im in out["correction_matrix"])


def test_cmd_phase_malformed_loop_exits_nonzero(tmp_path, capsys):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["loop"] = {"kind": "circle", "radius": -2.0}
    code = main(["phase", "-c", write_config(tmp_path, payload)])
    captured = capsys.readouterr()
    assert code == 2
    assert "loop.radius" in captured.err
    assert captured.out == ""


def test_cli_subprocess_end_to_end(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-m", "gupab", "phase", "-c", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["a"] == 0.01


def test_sweep_linearity_in_coupling(tmp_path, capsys):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["sweep"] = {"parameter": "gup.a", "values": [0.0, 0.01, 0.02]}
    assert main(["sweep", "-c", write_config(tmp_path, payload)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    corrections = [float(line.split(",")[3]) for line in lines[1:]]
    assert corrections[0] == 0.0
    assert corrections[2] == pytest.approx(2.0 * corrections[1], rel=1e-14)


def test_sweep_flux_scales_standard_only(tmp_path):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["sweep"] = {"parameter": "solenoid.flux", "values": [1.0, 2.0]}
    values, result = run_sweep(load_config(write_config(tmp_path, payload)))
    assert values.tolist() == [1.0, 2.0]
    assert result.standard_phase[1] == pytest.approx(2.0 * result.standard_phase[0], rel=1e-12)
    # the flux leaves the correction alone: one value that both rows share
    assert np.shape(result.projected_correction) == () and np.shape(result.correction_matrix) == (4, 4)


def test_sweep_radius_and_speed(tmp_path):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["sweep"] = {"parameter": "loop.radius", "values": [1.0, 2.0]}
    _, result = run_sweep(load_config(write_config(tmp_path, payload)))
    # correction scales with loop length, standard phase does not change
    assert result.projected_correction[1] == pytest.approx(2.0 * result.projected_correction[0], rel=1e-10)
    assert result.standard_phase[1] == pytest.approx(result.standard_phase[0], rel=1e-9)
    payload["sweep"] = {"parameter": "particle.v", "values": [0.3, 0.6]}
    _, result = run_sweep(load_config(write_config(tmp_path, payload)))
    assert result.total_phase.shape == (2,) and np.isfinite(result.total_phase).all()


def test_sweep_requires_section(tmp_path, capsys):
    code = main(["sweep", "-c", write_config(tmp_path, BASE_CONFIG)])
    assert code == 2
    assert "sweep" in capsys.readouterr().err


def test_sweep_csv_header_frozen():
    assert SWEEP_CSV_HEADER == "sweep_value,a,standard_phase,projected_correction,total_phase,quadrature_error"
    assert DISPERSION_CSV_HEADER == "p,E_plus_a0,E_plus,shift"


def test_outputs_are_deterministic(tmp_path):
    phase_cfg = write_config(tmp_path, BASE_CONFIG, "phase.json")
    sweep_payload = json.loads(json.dumps(BASE_CONFIG))
    sweep_payload["sweep"] = {"parameter": "gup.a", "values": [0.0, 0.01, 0.02]}
    sweep_cfg = write_config(tmp_path, sweep_payload, "sweep.json")

    def run(args, outfile):
        out = tmp_path / outfile
        assert main(args + ["-o", str(out)]) == 0
        return out.read_bytes()

    first = run(["phase", "-c", phase_cfg], "phase1.out")
    second = run(["phase", "-c", phase_cfg], "phase2.out")
    assert first == second
    first = run(["sweep", "-c", sweep_cfg], "sweep1.out")
    second = run(["sweep", "-c", sweep_cfg], "sweep2.out")
    assert first == second


def _reject_constant(constant):
    raise ValueError(f"non-finite number {constant} in strict JSON")


def test_phase_json_round_trip_bits(tmp_path, capsys):
    rectangle = {"kind": "rectangle", "corners": [[1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0]]}
    polyline = {"kind": "polyline", "vertices": [[2, 0, 0], [0, 2, 0.5], [-2, -1, 0], [1, -1.5, -0.3]]}
    for loop in (BASE_CONFIG["loop"], rectangle, polyline):
        assert main(["phase", "-c", write_config(tmp_path, dict(BASE_CONFIG, loop=loop))]) == 0
        text = capsys.readouterr().out
        payload = json.loads(text, parse_constant=_reject_constant)
        assert json.dumps(payload, indent=2) + "\n" == text
        restored = PhaseResult.from_json_dict(payload)
        assert json.dumps(restored.to_json_dict(), indent=2) + "\n" == text


def _assert_phase_json_restores(result):
    """``phase_json`` writes ``json.dumps(indent=2)``'s bytes, and reading them back restores every bit of every field."""
    text = phase_json(result)
    assert text == json.dumps(result.to_json_dict(), indent=2) + "\n"
    restored = PhaseResult.from_json_dict(json.loads(text))
    for field in fields(PhaseResult):
        assert np.asarray(getattr(restored, field.name)).tobytes() == np.asarray(getattr(result, field.name)).tobytes()


_EXTREME_DOUBLES = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)
_FINITE_DOUBLES = st.one_of(st.sampled_from(_EXTREME_DOUBLES), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(scalars=st.lists(_FINITE_DOUBLES, min_size=5, max_size=5), parts=st.lists(_FINITE_DOUBLES, min_size=32, max_size=32))
def test_phase_json_is_json_dumps_and_restores_every_bit(scalars, parts):
    standard, projected, total, error, a = scalars
    matrix = np.array(parts).view(complex).reshape(4, 4)  # [re, im] pairs, imaginary parts nonzero as on an open path
    _assert_phase_json_restores(PhaseResult(standard, matrix, projected, total, error, a))


def test_phase_json_of_an_open_path():
    # an open path's displacement brings in the spatial gammas, so the matrix has imaginary parts
    corner = (2.0, 2.0, 0.0)
    path = LoopPath((line_segment((2.0, 0.0, 0.0), corner), line_segment(corner, (0.0, 2.0, 0.0))), closed=False)
    particle = ParticleSpec(charge=1.0, mass=1.0, speed=0.6)
    result = total_phase(particle, SolenoidSpec(flux=1.0, radius=0.1), path, 0.01, QuadratureSpec())
    assert np.any(result.correction_matrix.imag != 0.0)
    _assert_phase_json_restores(result)


_NOT_THREE = "config error: {} must be a list of three numbers"


def _config_bytes(**sections):
    """The bytes of BASE_CONFIG with the given sections replaced."""
    return json.dumps({**BASE_CONFIG, **sections}).encode()


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"particle": "\xff\xfe"}', "config error: cannot read config file: 'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000, "config error: config parse error: maximum recursion depth exceeded"),
        (b'{"particle": ' + b"9" * 5000 + b"}", "config error: config parse error: Exceeds the limit (4300 digits)"),
        (b"[]", "config error: config root must be a JSON object"),
        (_config_bytes(loop=3), "config error: loop must be an object"),
        (_config_bytes(loop={"kind": "ellipse"}), "config error: loop.kind must be one of circle, rectangle, polyline"),
        (_config_bytes(loop={"kind": "polyline", "vertices": 5}), "config error: loop.vertices must be a list of points"),
        (_config_bytes(gup={"a0": 1.0, "units": "planck"}), "config error: gup.units must be 'natural' or 'si'"),
        (_config_bytes(projection="none"), "config error: projection must be one of comoving_on_shell, fixed_spinor"),
        (_config_bytes(loop={"kind": "circle", "radius": 2.0, "center": [1.0, 2.0]}), _NOT_THREE.format("loop.center")),
        (_config_bytes(loop={"kind": "polyline", "vertices": [[2, 0, 0], [1, 0], [0, 2, 0]]}), _NOT_THREE.format("loop.vertices")),
        (_config_bytes(spinor={"momentum": [0.0, 0.6]}, projection="fixed_spinor"), _NOT_THREE.format("spinor.momentum")),
    ],
    ids=[
        "not-utf-8", "nested-too-deeply", "too-many-digits", "root", "loop-not-object", "loop-kind", "vertices", "gup-units",
        "projection", "center-2d", "vertex-2d", "momentum-2d",
    ],
)
def test_unreadable_config_is_a_one_line_config_error(tmp_path, capsys, content, message):
    # each file is at most 100 KB; the last nine are valid JSON with a root, a choice or a point that the schema rejects
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["phase", "-c", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)


def test_verification_fast_passes():
    report = run_verification("fast")
    assert report["all_passed"]
    assert all(set(c) == {"name", "passed", "residual", "bound"} for c in report["checks"])
    with pytest.raises(ConfigError, match="^verify level must be 'fast' or 'full'$"):
        run_verification("medium")


def test_verification_full_reports_grid_lab():
    report = run_verification("full")
    assert report["all_passed"]
    names = [c["name"] for c in report["checks"]]
    assert "grid_lab_scaling_exponent" in names
    exponent_gap = next(c for c in report["checks"] if c["name"] == "grid_lab_scaling_exponent")
    assert exponent_gap["residual"] <= 0.3  # exponent within [2.7, 3.3]


def test_verification_detects_injected_fault():
    report = run_verification("fast", gamma_perturbation=1e-6)
    assert not report["all_passed"]
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing and failing[0]["name"] == "gamma_algebra_exact"


_default_rng = np.random.default_rng


class _RecordedGenerator:
    """A seeded generator that records every number it hands out as one flat stream, in draw order, bit for bit."""

    def __init__(self, seed):
        self._rng, self.stream = _default_rng(seed), []

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            value = np.asarray(getattr(self._rng, name)(*args, **kwargs))
            self.stream.extend(map(float.hex, value.ravel().tolist()))
            return value if value.ndim else float(value)

        return draw


@pytest.mark.parametrize("level", ["fast", "full"])
@pytest.mark.parametrize("perturbation", [0.0, 1e-6])
def test_batched_verification_matches_row_by_row(level, perturbation, monkeypatch):
    generators = []

    def recorded(seed):
        generators.append(_RecordedGenerator(seed))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", recorded)
    batched = run_verification(level, perturbation)
    oracle = reference_verification(level, perturbation)
    assert len(generators) == 2  # each run draws afresh: nothing is cached across calls
    # the same numbers in the same order, whether a check draws its rows in one block or one at a time
    assert generators[0].stream == generators[1].stream
    assert batched["all_passed"] == oracle["all_passed"] == (perturbation == 0.0)
    assert [(c["name"], c["bound"], c["passed"]) for c in batched["checks"]] == [
        (c["name"], c["bound"], c["passed"]) for c in oracle["checks"]
    ]
    for mine, theirs in zip(batched["checks"], oracle["checks"]):
        assert mine["residual"] == pytest.approx(theirs["residual"], rel=1e-9, abs=0.0), mine["name"]


def test_cmd_verify_exit_codes(capsys):
    for level in ("fast", "full"):
        assert main(["verify", "--level", level]) == 0
        capsys.readouterr()
        assert main(["verify", "--level", level, "--inject-fault"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["all_passed"]


def test_cmd_dispersion_zero_coupling(tmp_path, capsys):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["gup"] = {"a": 0.0}
    for argv, steps in [(["--pmax", "2.0", "--steps", "5"], 5), (["--steps", "2000"], 2000)]:
        assert main(["dispersion", "-c", write_config(tmp_path, payload), *argv]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == DISPERSION_CSV_HEADER
        assert len(lines) == steps + 1
        assert all(float(line.split(",")[3]) == 0.0 for line in lines[1:])


def test_cmd_dispersion_worked_row(tmp_path, capsys):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["gup"] = {"a": 0.1}
    assert main(["dispersion", "-c", write_config(tmp_path, payload), "--pmax", "1.2", "--steps", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    row = dict(zip(lines[0].split(","), (float(x) for x in lines[2].split(","))))
    assert row["p"] == 0.6
    assert row["E_plus"] == pytest.approx(math.sqrt(1.36) + 0.036, rel=1e-12)
    assert row["shift"] == pytest.approx(0.1 * 0.36, abs=1e-12)
    # quadratic form: doubling |p| quadruples the shift
    row2 = dict(zip(lines[0].split(","), (float(x) for x in lines[3].split(","))))
    assert row2["shift"] == pytest.approx(4.0 * row["shift"], rel=1e-12)


def test_cmd_dispersion_argument_validation(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    assert main(["dispersion", "-c", path, "--pmax", "2.0", "--steps", "1"]) == 2
    assert "steps" in capsys.readouterr().err
    assert main(["dispersion", "-c", path, "--pmax", "-1.0", "--steps", "10"]) == 2
    assert "range" in capsys.readouterr().err
    # an infinite range and a table too large to allocate are one config error line each, with no warning
    assert cli_io._MAX_DISPERSION_STEPS == 10**6
    for argv, message in [
        (["--pmax", "inf", "--steps", "10"], "dispersion p range must be finite"),
        (["--pmax", "1e400", "--steps", "10"], "dispersion p range must be finite"),
        (["--steps", str(10**6 + 1)], "dispersion needs at most 1000000 steps"),
        (["--steps", str(10**30)], "dispersion needs at most 1000000 steps"),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["dispersion", "-c", path, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"config error: {message}"]


@pytest.mark.parametrize("steps", [2, 3, 10, 100])
def test_dispersion_up_to_the_largest_double_is_one_error_line(tmp_path, capsys, steps):
    # linspace's last step can round past the largest double before it is set to p_max: that is no warning
    path = write_config(tmp_path, BASE_CONFIG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["dispersion", "-c", path, "--pmax", "1.7976931348623157e308", "--steps", str(steps)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: dispersion is not finite: the inputs overflow double precision"]


def test_cmd_dispersion_overflow_exits_1(tmp_path, capsys):
    # a |p|^2 = 4e308 at p = 2 overflows: one error line, no CSV and no traceback
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["gup"] = {"a": 1e308}
    assert main(["dispersion", "-c", write_config(tmp_path, payload), "--pmax", "2", "--steps", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_rectangle_repeated_corner_names_corners(tmp_path, capsys, index):
    # the same points as a polyline name its vertices
    corners = [[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [1.0, -1.0, 0.0]]
    corners[(index + 1) % 4] = list(corners[index])
    for kind, key in [("rectangle", "corners"), ("polyline", "vertices")]:
        payload = dict(BASE_CONFIG, loop={"kind": kind, key: corners})
        assert main(["phase", "-c", write_config(tmp_path, payload)]) == 2
        assert capsys.readouterr() == ("", f"config error: loop.{key} repeat consecutively at index {index}\n")


def test_parser_is_built_once(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    cli_io._parser.cache_clear()
    for _ in range(3):
        assert main(["phase", "-c", path]) == 0
    assert cli_io._parser.cache_info().misses == 1
    first = capsys.readouterr().out
    assert main(["phase", "-c", path]) == 0
    assert capsys.readouterr().out == first[: len(first) // 3]


def test_sweep_csv_floats_round_trip(tmp_path):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["sweep"] = {"parameter": "gup.a", "values": [0.01]}
    sweep = run_sweep(load_config(write_config(tmp_path, payload)))
    text = sweep_csv(sweep)
    parsed = [float(x) for x in text.strip().split("\n")[1].split(",")]
    assert parsed[3] == sweep[1].projected_correction[0]


def test_sweep_keeps_solenoid_axis(tmp_path):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["sweep"] = {"parameter": "solenoid.flux", "values": [1.0, 2.5]}
    config = load_config(write_config(tmp_path, payload))
    # the circle of radius 2 about the origin does not enclose this axis
    offset = SolenoidSpec(flux=1.0, radius=0.1, axis_point=(5.0, 0.0, 0.0), axis_direction=(0.0, 0.2, 1.0))
    values, result = run_sweep(replace(config, solenoid=offset))
    for value, standard in zip(values.tolist(), result.standard_phase.tolist(), strict=True):
        expected = run_phase(replace(config, solenoid=replace(offset, flux=value)))
        assert standard == expected.standard_phase
        assert standard == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize(
    "vertices, coil",
    [
        ([[-50.0, 0.003, 0.0], [50.0, 0.003, 0.0], [50.0, 20.0, 0.0], [-50.0, 20.0, 0.0]], 0.01),
        ([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 1e-6),
    ],
)
def test_cmd_phase_straight_edge_into_coil_exits_1(tmp_path, capsys, vertices, coil):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["solenoid"]["radius"] = coil
    payload["loop"] = {"kind": "polyline", "vertices": vertices}
    code = main(["phase", "-c", write_config(tmp_path, payload)])
    captured = capsys.readouterr()
    assert code == 1
    assert "solenoid interior" in captured.err
    assert captured.out == ""


def test_cmd_phase_circle_into_coil_exits_1(tmp_path, capsys):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["solenoid"]["radius"] = 0.001
    payload["loop"] = {"kind": "circle", "center": [2.0004, 0.0, 0.0], "radius": 2.0, "windings": 2}
    code = main(["phase", "-c", write_config(tmp_path, payload)])
    captured = capsys.readouterr()
    assert code == 1
    assert "solenoid interior" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "sweep, builds",
    [
        (None, 1),
        ({"parameter": "gup.a", "values": [0.0, 0.01, 0.02]}, 1),
        ({"parameter": "loop.radius", "values": [1.0, 1.5, 2.0]}, 1),
    ],
)
def test_loop_built_once_per_command(tmp_path, capsys, monkeypatch, sweep, builds):
    calls = []
    original = cli_io.make_loop

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli_io, "make_loop", counted)
    payload = json.loads(json.dumps(BASE_CONFIG))
    if sweep is not None:
        payload["sweep"] = sweep
    assert main(["sweep" if sweep else "phase", "-c", write_config(tmp_path, payload)]) == 0
    assert len(calls) == builds


@pytest.mark.parametrize("section, values", [("particle", {"v": 1e-320}), ("gup", {"a": 1e308})])
def test_non_finite_phase_exits_1(tmp_path, capsys, section, values):
    # E / v or a q overflows: no -Infinity or NaN may reach the strict-JSON or CSV output
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload[section].update(values)
    payload["sweep"] = {"parameter": "gup.a", "values": [payload["gup"]["a"]]}
    path = write_config(tmp_path, payload)
    for command in ("phase", "sweep"):
        assert main([command, "-c", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "loop, code",
    [
        ({"kind": "polyline", "vertices": [[1e308, 1e308, 0.0], [-1e308, 1e308, 0.0], [-1e308, -1e308, 0.0]]}, 2),
        ({"kind": "circle", "radius": 1e308}, 2),
        ({"kind": "rectangle", "corners": [[1e308, 1e308, 0.0], [-1e308, 1e308, 0.0], [-1e308, -1e308, 0.0], [1e308, -1e308, 0.0]]}, 2),
        ({"kind": "circle", "radius": 1e300, "windings": 3}, 0),
        ({"kind": "circle", "radius": 1.0, "windings": 10**400}, 2),  # beyond the float range, like 10**308
        ({"kind": "circle", "radius": 1.0, "windings": -(10**400)}, 2),
    ],
)
def test_overflowing_loop_inputs(tmp_path, capsys, loop, code):
    # loops whose steps or tangents overflow are one config error, with no numpy warnings on stderr;
    # a huge circle is measured without squaring its closure gap, so it is accepted and finite
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["loop"] = loop
    with warnings.catch_warnings(record=True) as caught:  # what would reach stderr outside pytest
        warnings.simplefilter("always")
        assert main(["phase", "-c", write_config(tmp_path, payload)]) == code
    assert caught == []
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0] == "config error: loop.segment has non-finite points or tangents"
    else:
        assert captured.err == ""
        result = json.loads(captured.out)
        assert result["standard_phase"] == 3.0
        assert math.isfinite(result["total_phase"]) and result["projected_correction"] < 0.0


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "command, path, message",
    [
        ("phase", ("particle", "q"), "particle.q must be finite"),
        ("phase", ("solenoid", "flux"), "solenoid.flux must be finite"),
        ("sweep", ("sweep", "values"), "sweep.values must be finite"),
    ],
)
def test_integers_beyond_the_float_range_are_not_finite(tmp_path, capsys, sign, command, path, message):
    # strict JSON allows any integer; one beyond the float range is rejected like 1e400, not an OverflowError
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["sweep"] = {"parameter": "gup.a", "values": [0.01]}
    section, key = path
    payload[section][key] = [0.01, sign * 10**400] if key == "values" else sign * 10**400
    assert main([command, "-c", write_config(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"config error: {message}"]


# (q, a) with an exactly zero correction, then (q, a) that still overflow: a q > 0, also where -a q underflows to 0
@pytest.mark.parametrize("q, a, overflowing", [(1.0, 0.0, (1.0, 0.01)), (0.0, 0.01, (1e-300, 1e-30))])
def test_heavy_particle_at_a_zero_has_an_exactly_zero_correction(tmp_path, capsys, q, a, overflowing):
    # (E / v - p) E L overflows, so -a q times it would be 0 * inf = NaN: a phase and a sweep at a = 0 or q = 0 still run
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["particle"].update(q=q, m=1e154, v=0.5)
    payload["gup"]["a"] = a
    assert main(["phase", "-c", write_config(tmp_path, payload)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert (result["standard_phase"], result["projected_correction"]) == (q, 0.0)
    payload["particle"]["m"] = 1e300
    payload["sweep"] = {"parameter": "particle.v", "values": [0.001, 0.5, 0.9]}
    assert main(["sweep", "-c", write_config(tmp_path, payload)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == SWEEP_CSV_HEADER and len(rows) == 3
    assert all(row.split(",")[3] == "0.0" for row in rows)
    payload["particle"]["q"], payload["gup"]["a"] = overflowing
    assert main(["sweep", "-c", write_config(tmp_path, payload)]) == 1
    assert capsys.readouterr().err == "error: phase is not finite: the inputs overflow double precision\n"


@pytest.mark.parametrize("nodes", [513, 10**6, 2**1100])
def test_node_count_is_capped_by_value(tmp_path, capsys, nodes):
    # rejected before any Gauss-Legendre rule is built
    payload = dict(BASE_CONFIG, quadrature={"nodes_per_segment": nodes})
    assert main(["phase", "-c", write_config(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["config error: quadrature.nodes_per_segment must be an integer in [4, 512]"]


def test_benchmark_tracer_finds_its_hooks_and_puts_them_back(monkeypatch):
    # perfbench/tracer.py patches gupab's names, private ones too: a rename fails here instead of blinding a layer metric
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
    from tracer import Tracer

    import gupab

    modules = [getattr(gupab, name) for name in ("cli_io", "field_geometry", "phase_engine", "clifford", "gup_algebra")]
    owners = modules + [phase_engine.PhaseResult]
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    tracer.install(gupab)
    try:
        # the four that the engine no longer calls through these names
        hooks = ("line_integral", "solenoid_field", "on_shell_spinor", "slash")
        assert tracer.missing == [f"gupab.phase_engine.{name}" for name in hooks]
        assert [dict(vars(owner)) for owner in owners] != before
        for name in ("_ab_integral", "_matrix_correction", "_projected_correction"):
            assert getattr(phase_engine, name) is not before[2][name]
    finally:
        tracer.uninstall()
    after = [dict(vars(owner)) for owner in owners]
    for old, new in zip(before, after):
        assert old.keys() == new.keys() and all(new[key] is value for key, value in old.items())


@pytest.mark.parametrize(
    "values, message",
    [
        ([1e308], "sweep.values for loop.segment has non-finite points or tangents"),
        # the first row enters the coil, a computation error that must not hide the bad second row
        ([0.05, 1e308], "sweep.values for loop.segment has non-finite points or tangents"),
        ([0.05, -1.0], "sweep.values for loop.radius must be positive"),
    ],
)
def test_loop_radius_sweep_rows_are_config_errors(tmp_path, capsys, values, message):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["sweep"] = {"parameter": "loop.radius", "values": values}
    assert main(["sweep", "-c", write_config(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"config error: {message}"]


@pytest.mark.parametrize("scale, coil", [(1e-160, 1e-200), (1e200, 0.1)])
def test_square_phase_at_extreme_scales(tmp_path, capsys, scale, coil):
    # the length and the swept azimuth of each edge are taken without squaring its coordinates
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["solenoid"]["radius"] = coil
    square = [[scale, scale, 0.0], [-scale, scale, 0.0], [-scale, -scale, 0.0], [scale, -scale, 0.0]]
    payload["loop"] = {"kind": "polyline", "vertices": square}
    assert main(["phase", "-c", write_config(tmp_path, payload)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["standard_phase"] == pytest.approx(1.0, rel=1e-15)
    # -a q m (E/v - p) L with E = 1.25, p = 0.75, v = 0.6 and L = 8 scale
    exact = -0.01 * (1.25 / 0.6 - 0.75) * 8.0 * scale
    assert result["projected_correction"] == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_small_rectangle_matches_polyline(tmp_path, capsys):
    # the collinearity test takes the edges in units of a power of 2, so their cross product does not underflow
    payload = {
        **BASE_CONFIG,
        "quadrature": {"nodes_per_segment": 16, "tolerance": 1e-10, "refinement": "doubling"},
        "projection": "comoving_on_shell",
    }
    payload["solenoid"] = {"flux": 1.0, "radius": 1e-200}
    corners = [[1e-160, 1e-160, 0.0], [-1e-160, 1e-160, 0.0], [-1e-160, -1e-160, 0.0], [1e-160, -1e-160, 0.0]]
    outputs = []
    for loop in ({"kind": "rectangle", "corners": corners}, {"kind": "polyline", "vertices": corners}):
        assert main(["phase", "-c", write_config(tmp_path, {**payload, "loop": loop})]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["standard_phase"] == pytest.approx(1.0, rel=1e-15)


def test_dispersion_csv_skips_the_spectrum(tmp_path, monkeypatch):
    calls = []
    original = np.linalg.eigvalsh

    def counted(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    results = []

    def recorded(*args):
        results.append(dispersion(*args))
        return results[-1]

    monkeypatch.setattr(cli_io, "dispersion", recorded)
    cli_io.dispersion_csv(load_config(write_config(tmp_path, BASE_CONFIG)), 2.0, 50)
    assert calls == []
    assert len(results) == 2 and all("hamiltonian" not in vars(result) for result in results)  # nor the Hamiltonian
    result = dispersion(np.array([[0.6, 0.0, 0.0], [0.0, 1.2, 0.0]]), 1.0, 0.1)
    assert result.eigenvalues is result.eigenvalues  # diagonalized on first read, then kept
    assert calls == [(2, 4, 4)]


_CSV_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]),
)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 200), header=st.sampled_from([DISPERSION_CSV_HEADER, SWEEP_CSV_HEADER]), data=st.data())
def test_csv_template_writes_the_row_writer_text(rows, header, data):
    # the first column is an array of rows; each other one an array or one value that every row shares. An array
    # holds a value per row, one drawn value in every row (written once), or 0.0 and -0.0 (equal, not one double)
    width = header.count(",") + 1
    column = st.one_of(
        arrays(float, rows, elements=_CSV_FLOATS),
        _CSV_FLOATS.map(lambda value: np.full(rows, value)),
        arrays(float, rows, elements=st.sampled_from([0.0, -0.0])),
    )
    first = data.draw(column)
    rest = [data.draw(st.one_of(_CSV_FLOATS, column)) for _ in range(width - 1)]
    # line by line, so that a failure names its first differing line without diffing the whole text
    assert cli_io._csv(header, first, *rest).split("\n") == reference_csv(header, first, *rest).split("\n")


# --- one write path: -o is written only after the command has finished ---

_WRITE_ARGV = {
    "phase": ["phase"],
    "sweep": ["sweep"],
    "dispersion": ["dispersion", "--pmax", "2", "--steps", "5"],
}


def _write_case(tmp_path, command, kind):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["sweep"] = {"parameter": "gup.a", "values": [0.0, 0.01]}
    if kind == "bad":
        payload["particle"]["v"] = 1.5
    elif kind == "overflow":  # a q overflows the phase, a |p|^2 the dispersion
        payload["gup"]["a"] = 1e308
        payload["sweep"]["values"] = [1e308]
    return _WRITE_ARGV[command] + ["-c", write_config(tmp_path, payload)]


@pytest.mark.parametrize("command", sorted(_WRITE_ARGV))
@pytest.mark.parametrize("kind, code", [("bad", 2), ("overflow", 1)])
def test_failed_command_leaves_output_untouched(tmp_path, capsys, command, kind, code):
    existing = tmp_path / "existing.out"
    existing.write_bytes(b"earlier bytes\n")
    argv = _write_case(tmp_path, command, kind)
    assert main(argv + ["-o", str(existing)]) == code
    assert existing.read_bytes() == b"earlier bytes\n"
    fresh = tmp_path / "fresh.out"
    assert main(argv + ["-o", str(fresh)]) == code
    assert not fresh.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 2


@pytest.mark.parametrize("command", sorted(_WRITE_ARGV) + ["verify"])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, command):
    argv = ["verify"] if command == "verify" else _write_case(tmp_path, command, "good")
    assert main(argv + ["-o", str(tmp_path / "missing" / "out.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")


def test_failing_verify_still_writes_its_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--inject-fault", "-o", str(report)]) == 1
    assert capsys.readouterr().out == ""
    assert json.loads(report.read_text(encoding="utf-8"))["all_passed"] is False


# --- config fuzzer: every single mutation of BASE_CONFIG is a one-line config error ---

DROP = object()
SCHEMA_KEYS = {
    "particle", "solenoid", "loop", "gup", "quadrature", "projection", "spinor", "sweep",
    "q", "m", "v", "flux", "radius", "kind", "center", "windings", "corners", "vertices",
    "a", "a0", "units", "nodes_per_segment", "tolerance", "refinement", "momentum", "branch",
    "parameter", "values",
}
REQUIRED_KEYS = [
    ("particle",), ("solenoid",), ("loop",), ("gup",),
    ("particle", "q"), ("particle", "m"), ("particle", "v"), ("solenoid", "flux"), ("solenoid", "radius"),
    ("loop", "kind"), ("loop", "radius"), ("gup", "a"),
]
SECTIONS = [(), ("particle",), ("solenoid",), ("loop",), ("gup",), ("quadrature",)]
TYPED_PATHS = [
    ("particle",), ("solenoid",), ("loop",), ("gup",),
    ("particle", "q"), ("particle", "m"), ("particle", "v"), ("solenoid", "flux"), ("solenoid", "radius"),
    ("loop", "center"), ("loop", "radius"), ("loop", "windings"), ("gup", "a"),
    ("quadrature", "nodes_per_segment"), ("quadrature", "tolerance"),
]


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


def _set(path, values):
    return values.map(lambda value: ((path, value),))


_point = st.lists(_floats(-10.0, 10.0), min_size=3, max_size=3)
_wrong_type = st.one_of(st.text(max_size=5), st.booleans(), st.none(), st.lists(_floats(-10.0, 10.0), max_size=2))
_unknown_key = st.text(min_size=1, max_size=8).filter(lambda k: k not in SCHEMA_KEYS)
_bad_branch = st.one_of(st.text(max_size=10).filter(lambda b: b not in ("particle1", "particle2")), st.integers())
_negative = _floats(-1e6, -1e-300)
_units = st.sampled_from(["natural", "si"])

MUTATIONS = st.one_of(
    st.sampled_from(REQUIRED_KEYS).map(lambda path: ((path, DROP),)),
    st.tuples(st.sampled_from(SECTIONS), _unknown_key).map(lambda t: ((t[0] + (t[1],), 1.0),)),
    st.tuples(st.sampled_from(TYPED_PATHS), _wrong_type).map(lambda t: (t,)),
    _set(("loop", "windings"), st.sampled_from([1.0, 1.5])),
    _set(("particle", "m"), _floats(-1e6, 0.0)),
    _set(("particle", "v"), st.one_of(st.sampled_from([0, 1, 1.5]), _floats(-1e6, 0.0), _floats(1.0, 1e6))),
    _set(("solenoid", "radius"), _floats(-1e6, 0.0)),
    _set(("loop", "radius"), _floats(-1e6, 0.0)),
    _set(("loop", "windings"), st.just(0)),
    _set(("quadrature", "tolerance"), _floats(-1e6, 0.0)),
    _set(("quadrature", "nodes_per_segment"), st.integers(-1000, 3)),
    _set(("gup",), _negative.map(lambda a: {"a": a})),
    _set(("gup",), st.builds(lambda a0, units: {"a0": a0, "units": units}, _negative, _units)),
    _set(("loop",), st.lists(_point, max_size=3).map(lambda c: {"kind": "rectangle", "corners": c})),
    _set(("loop",), st.lists(_point, max_size=2).map(lambda v: {"kind": "polyline", "vertices": v})),
    _bad_branch.map(
        lambda branch: (
            (("projection",), "fixed_spinor"),
            (("spinor",), {"momentum": [0.0, 0.0, 0.75], "branch": branch}),
        )
    ),
    _set(("sweep",), st.sampled_from([0, 1, 1.5]).map(lambda v: {"parameter": "particle.v", "values": [0.5, v]})),
    _set(("sweep",), _negative.map(lambda a: {"parameter": "gup.a", "values": [0.01, a]})),
)


def _mutate(ops):
    config = json.loads(json.dumps(BASE_CONFIG))
    for path, value in ops:
        *parents, key = path
        target = config
        for name in parents:
            target = target.setdefault(name, {})
        if value is DROP:
            del target[key]
        else:
            target[key] = value
    return config


@settings(max_examples=300, deadline=None)
@given(ops=MUTATIONS)
def test_config_fuzzer_mutation_exits_2(ops):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_mutate(ops), handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["phase", "-c", path])
    assert code == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")


# --- CLI contract fuzzer: one or two keys of a valid config set to any number or a wrong type ---

_CONTRACT_LOOPS = {
    "circle": {"kind": "circle", "center": [0.5, -0.25, 0.0], "radius": 2.0, "windings": 1},
    "rectangle": {"kind": "rectangle", "corners": [[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [1.0, -1.0, 0.0]]},
    "polyline": {"kind": "polyline", "vertices": [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [-2.0, -1.0, 0.0]]},
}
_CONTRACT_SWEEPS = {"gup.a": [0.0, 0.01], "loop.radius": [1.5, 2.0, 3.0], "particle.v": [0.3, 0.6], "solenoid.flux": [-1.0, 2.5]}
_CHOICES = {"refinement": ["fixed", "doubling"], "units": ["natural", "si"], "branch": ["particle1", "particle2"]}
_EDGE_DOUBLES = [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
_ANY_NUMBER = st.one_of(
    st.floats(),  # subnormals to the largest doubles, and the infinities and NaN that json writes as Infinity and NaN
    st.sampled_from(_EDGE_DOUBLES),
    st.integers(-(2**64), 2**64),
    st.integers(2**1024, 2**1100),
    st.integers(-(2**1100), -(2**1024)),
)
_ANY_TYPE = st.one_of(
    st.text(max_size=5),
    st.booleans(),
    st.none(),
    st.lists(_floats(-10.0, 10.0), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _leaves(node, path=()):
    """The paths of the numbers and strings under a JSON node but the choices of a code path: kind, parameter, projection."""
    if not isinstance(node, (dict, list)):
        return [path]
    items = node.items() if isinstance(node, dict) else enumerate(node)
    choices = ("kind", "parameter", "projection")
    return [leaf for key, child in items if key not in choices for leaf in _leaves(child, path + (key,))]


_ANY_VALUE = st.one_of(_ANY_NUMBER, _ANY_TYPE)
_ANY_ROWS = st.one_of(st.lists(_ANY_VALUE, max_size=8), _ANY_TYPE)  # a whole sweep.values
_ANY_CHOICE = {key: st.one_of(st.sampled_from(choices), _ANY_VALUE) for key, choices in _CHOICES.items()}


def _contract_value(path):
    """Any number or a wrong type; for a string choice, also its valid choices; for sweep.values, a list of up to 8."""
    if path == ("sweep", "values"):
        return _ANY_ROWS
    return _ANY_CHOICE.get(path[-1], _ANY_VALUE)


def _contract_config(kind, parameter, gup, spinor):
    """A valid config: the loop of ``kind``, a sweep of ``parameter``, ``gup.a`` or ``gup.a0``, and a fixed spinor or none."""
    config = {
        "particle": {"q": 1.0, "m": 1.0, "v": 0.6},
        "solenoid": {"flux": 1.0, "radius": 0.1},
        "loop": json.loads(json.dumps(_CONTRACT_LOOPS[kind])),
        "gup": {"a": 0.01} if gup == "a" else {"a0": 2.0, "units": "natural"},
        "quadrature": {"nodes_per_segment": 16, "tolerance": 1e-10, "refinement": "fixed"},
        "sweep": {"parameter": parameter, "values": list(_CONTRACT_SWEEPS[parameter])},
    }
    if spinor:
        config.update(projection="fixed_spinor", spinor={"momentum": [0.0, 0.0, 0.75], "branch": "particle1"})
    return config


_CONTRACT_CASES = [
    (kind, parameter, gup, spinor)
    for kind in sorted(_CONTRACT_LOOPS)
    for parameter in sorted(_CONTRACT_SWEEPS)
    if kind == "circle" or parameter != "loop.radius"
    for gup in ("a", "a0")
    for spinor in (False, True)
]
# one or two of each case's keys, built once: strategies built per draw would cost more than the runs they feed
_CONTRACT_KEYS = {
    case: st.lists(st.sampled_from(_leaves(_contract_config(*case)) + [("sweep", "values")]), min_size=1, max_size=2, unique=True)
    for case in _CONTRACT_CASES
}
_ANY_PMAX = st.one_of(st.just(2.0), st.floats(), st.sampled_from(_EDGE_DOUBLES), st.integers(2**1024, 2**1100))


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_cli_contract_holds_for_any_value_of_one_or_two_keys(tmp_path_factory, data):
    # exit 0, 1 or 2; a failure prints one stderr line and no stdout; no warning; no NaN or Infinity in any output
    command = data.draw(st.sampled_from(["phase", "sweep", "dispersion"]))
    case = data.draw(st.sampled_from(_CONTRACT_CASES))
    config = _contract_config(*case)
    # the longer path first, so that a list replaced whole is not then indexed
    for path in sorted(data.draw(_CONTRACT_KEYS[case]), key=len, reverse=True):
        *parents, key = path
        target = config
        for name in parents:
            target = target[name]
        target[key] = data.draw(_contract_value(path), label=".".join(map(str, path)))
    argv = [command]
    if command == "dispersion":  # the --pmax=VALUE form, so that a negative value is not read as an option
        argv += [f"--pmax={data.draw(_ANY_PMAX)!r}", "--steps", str(data.draw(st.integers(-2, 1000)))]
    path = tmp_path_factory.getbasetemp() / "contract.json"  # a session-scoped directory, rewritten by each draw
    path.write_text(json.dumps(config), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv + ["-c", str(path)])
    assert [str(warning.message) for warning in caught] == []
    event(f"{command} exits {code}")
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: " if code == 2 else "error: ")
    elif command == "phase":
        assert err == ""
        json.loads(out, parse_constant=lambda constant: pytest.fail(f"non-finite {constant} in {out}"))
    else:
        assert err == ""
        header, *rows = out.splitlines()
        assert header == (SWEEP_CSV_HEADER if command == "sweep" else DISPERSION_CSV_HEADER) and rows
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


# --- batched sweeps ---------------------------------------------------------------


def _sweep_outcome(run, config):
    """The values and column result a sweep gives, or the type and message of the error it raises."""
    try:
        return run(config)
    except GupabError as exc:
        return type(exc), str(exc)


def _failed(outcome):
    """Whether a ``_sweep_outcome`` is an error's type and message."""
    return isinstance(outcome[1], str)


def _polygon(data, count):
    """Vertices around an off-centre point, at increasing angles, each with its own radius and height."""
    cx, cy = data.draw(_floats(-0.5, 0.5)), data.draw(_floats(-0.5, 0.5))
    angles = np.cumsum(data.draw(st.lists(_floats(0.5, 1.5), min_size=count, max_size=count)))
    angles = 2.0 * math.pi * angles / angles[-1]
    radii = data.draw(st.lists(_floats(0.3, 2.0), min_size=count, max_size=count))
    heights = data.draw(st.lists(_floats(-0.5, 0.5), min_size=count, max_size=count))
    return [[cx + r * math.cos(t), cy + r * math.sin(t), z] for t, r, z in zip(angles, radii, heights)]


def _rectangle(data):
    cx, cy, z = (data.draw(_floats(-0.5, 0.5)) for _ in range(3))
    w, h, turn = data.draw(_floats(0.3, 2.0)), data.draw(_floats(0.3, 2.0)), data.draw(_floats(0.0, math.pi))
    corners = [(w, h), (-w, h), (-w, -h), (w, -h)]
    c, s = math.cos(turn), math.sin(turn)
    return [[cx + c * x - s * y, cy + s * x + c * y, z] for x, y in corners]


_HUGE = _floats(1e307, 1.7e308)  # a q or q Phi overflows
_SWEEP_ROWS = {
    "gup.a": st.one_of(_floats(0.0, 0.2), _HUGE),
    "particle.v": st.one_of(_floats(0.01, 0.99), st.sampled_from([1e-320, 3e-321])),  # E / v overflows
    "solenoid.flux": st.one_of(_floats(-3.0, 3.0), _HUGE),
}
_SWEEP_CASES = [
    (parameter, kind, projection)
    for parameter in _SWEEP_ROWS
    for kind in ("circle", "rectangle", "polyline")
    for projection in PROJECTIONS
] + [("loop.radius", "circle", projection) for projection in PROJECTIONS]


@pytest.mark.parametrize("parameter, kind, projection", _SWEEP_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_sweep_matches_row_by_row(parameter, kind, projection, data):
    # bit for bit: equal CSV text (repr round-trips every float) and equal matrix bytes, or the same error
    coil = data.draw(st.sampled_from([1e-3, 1e-2, 0.1]))
    payload = {
        "particle": {"q": data.draw(_floats(-2.0, 2.0)), "m": data.draw(_floats(0.2, 5.0)), "v": data.draw(_floats(0.05, 0.95))},
        "solenoid": {"flux": data.draw(_floats(-3.0, 3.0)), "radius": coil},
        "gup": {"a": data.draw(st.one_of(_floats(0.0, 0.1), _floats(1e5, 1e10)))},
        "projection": projection,
    }
    if projection == "fixed_spinor":
        payload["spinor"] = {"momentum": data.draw(st.lists(_floats(-1.0, 1.0), min_size=3, max_size=3))}
    if kind == "circle":
        center = [data.draw(_floats(-1.0, 1.0)) for _ in range(3)]
        windings = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        payload["loop"] = {"kind": "circle", "center": center, "radius": data.draw(_floats(0.3, 3.0)), "windings": windings}
    elif kind == "rectangle":
        payload["loop"] = {"kind": "rectangle", "corners": _rectangle(data)}
    else:
        payload["loop"] = {"kind": "polyline", "vertices": _polygon(data, data.draw(st.integers(3, 7)))}
    if parameter == "loop.radius":
        offset = math.hypot(center[0], center[1])
        # rows that pass within a coil radius of the axis, and rows whose length overflows with a large a
        near = _floats(-0.9, 0.9).map(lambda u: offset + coil * u).filter(lambda r: r > 0.0)
        rows = st.one_of(_floats(0.2, 3.0), near, st.sampled_from([1e300, 1e303]))
    else:
        rows = _SWEEP_ROWS[parameter]
    payload["sweep"] = {"parameter": parameter, "values": data.draw(st.lists(rows, min_size=1, max_size=6))}
    config = cli_io.parse_config(payload)
    expected = _sweep_outcome(reference_sweep, config)
    got = _sweep_outcome(run_sweep, config)
    if _failed(expected):
        assert got == expected
    else:
        assert sweep_csv(got) == sweep_csv(expected)
        reference = expected[1].correction_matrix  # one (4, 4) matrix per row
        assert np.broadcast_to(got[1].correction_matrix, reference.shape).tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "parameter, values",
    [
        ("gup.a", [0.0, 0.01, 0.02]),
        ("solenoid.flux", [1.0, -2.0, 0.5, 3.0, 300.0]),
        ("particle.v", [0.2, 0.4, 0.6, 0.8, 0.9]),
        ("loop.radius", [1.0, 1.5, 2.0, 2.5]),
    ],
)
def test_sweep_computes_loop_geometry_once_per_loop(tmp_path, capsys, monkeypatch, parameter, values):
    calls = []

    def counted(*args):
        calls.append(args)
        return loop_geometry(*args)

    # run_sweep looks the name up in cli_io, total_phase and the phase functions in phase_engine
    for module in (cli_io, phase_engine):
        monkeypatch.setattr(module, "loop_geometry", counted)
    rectangle = {"kind": "rectangle", "corners": [[1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0]]}
    for loop in [BASE_CONFIG["loop"]] + ([rectangle] if parameter != "loop.radius" else []):
        payload = dict(BASE_CONFIG, loop=loop, sweep={"parameter": parameter, "values": values})
        assert main(["sweep", "-c", write_config(tmp_path, payload)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == len(values) + 1
        assert len(calls) == 1
        calls.clear()


_EXTREME_RADII = [0.0, -0.0, -1.0, -1e308, 1e308, 1.7e308, 1e-320, 5e-324, 1e-310, 3.0]
# valid values mixed with each constructor's edge cases
_COLUMN_VALUES = {
    "gup.a": st.one_of(_floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, -5e-324, 5e-324, 1e308, -1e308])),
    "loop.radius": st.one_of(_floats(-5.0, 5.0), st.sampled_from(_EXTREME_RADII)),
    "particle.v": st.one_of(_floats(-0.5, 1.5), st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e308, -1e308])),
    "solenoid.flux": st.one_of(_floats(-5.0, 5.0), st.sampled_from([0.0, -0.0, 1e308, -1e308, 1.7e308])),
}


@pytest.mark.parametrize("parameter", sorted(_COLUMN_VALUES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sweep_column_checks_match_one_constructor_per_row(parameter, data):
    # one call over the column rejects the first row that its own constructor rejects, with its message
    payload = json.loads(json.dumps(BASE_CONFIG))
    if parameter == "loop.radius":
        center = data.draw(
            st.one_of(
                st.lists(_floats(-2.0, 2.0), min_size=3, max_size=3),
                st.sampled_from([[1e308, 0.0, 0.0], [0.0, -1.7e308, 0.0], [1e308, 1e308, 1.0], [-1e308, 0.0, 1e308]]),
            )
        )
        windings = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        payload["loop"] = {"kind": "circle", "center": center, "radius": 1.0, "windings": windings}
    values = data.draw(st.lists(_COLUMN_VALUES[parameter], min_size=1, max_size=8))
    expected = reference_column_check(cli_io.parse_config(payload), parameter, values)
    payload["sweep"] = {"parameter": parameter, "values": values}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing row is a config error, not a numpy warning
        try:
            config = cli_io.parse_config(payload)
        except ConfigError as exc:
            assert str(exc) == expected
            return
    assert expected is None
    got = _sweep_outcome(run_sweep, config)
    reference = _sweep_outcome(reference_sweep, config)
    assert got == reference if _failed(reference) else sweep_csv(got) == sweep_csv(reference)


def test_tiny_circle_phase_and_radius_sweep(tmp_path, capsys):
    # a circle too small for its closure tolerance to be represented closes exactly, alone or as a sweep row
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["solenoid"]["radius"] = 1e-323
    payload["loop"]["radius"] = 1e-320
    payload["sweep"] = {"parameter": "loop.radius", "values": [1e-320, 1.0]}
    path = write_config(tmp_path, payload)
    assert main(["phase", "-c", path]) == 0
    assert json.loads(capsys.readouterr().out)["standard_phase"] == 1.0
    assert main(["sweep", "-c", path]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    # a heavy, slow particle about a circle of radius 1e-100: (E/v - p) E overflows, times a length error of 0.0
    payload = {
        "particle": {"q": 1.0, "m": 1e160, "v": 1e-10},
        "solenoid": {"flux": 1.0, "radius": 1e-101},
        "loop": {"kind": "circle", "radius": 1e-100},
        "gup": {"a": 1e-100},
    }
    assert main(["phase", "-c", write_config(tmp_path, payload)]) == 0
    result = json.loads(capsys.readouterr().out)
    particle = ParticleSpec(charge=1.0, mass=1e160, speed=1e-10)
    assert result["standard_phase"] == 1.0 and result["quadrature_error"] == 0.0
    assert result["projected_correction"] == gup_phase_projected(particle, circle_loop(radius=1e-100), 1e-100)


_OVERFLOW = "phase is not finite: the inputs overflow double precision"
_INSIDE = "loop enters the solenoid interior; the flux phase requires field-free paths"


@pytest.mark.parametrize(
    "section, update, values, message",
    [
        ("gup", {"a": 1e7}, [1.0, 2.0, 1e303, 3.0, 0.05], _OVERFLOW),  # row 3 overflows before row 5 enters the coil
        ("gup", {"a": 1e7}, [1.0, 0.05, 1e303], _INSIDE),
        ("particle", {"v": 1e-320}, [0.05, 1.0], _INSIDE),  # every row overflows; row 1 also enters the coil
        ("particle", {"v": 1e-320}, [1.0, 0.05], _OVERFLOW),
        ("sweep", {"parameter": "particle.v"}, [0.3, 0.6, 1e-320], _OVERFLOW),  # E / v overflows in the last row
    ],
)
def test_failing_sweep_reports_its_first_failing_row(tmp_path, capsys, section, update, values, message):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["sweep"] = {"parameter": "loop.radius", "values": values}
    payload[section].update(update)
    assert main(["sweep", "-c", write_config(tmp_path, payload)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command", ["phase", "sweep"])
@pytest.mark.parametrize("center", [[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]], ids=["enclosing", "outside"])
def test_overflowing_charge_times_flux_is_not_finite(tmp_path, capsys, command, center):
    # q Phi overflows to inf: its product with the turns (0 about an axis outside the loop) is inf or NaN
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["particle"]["q"] = payload["solenoid"]["flux"] = 1e200
    payload["loop"]["center"] = center
    payload["sweep"] = {"parameter": "solenoid.flux", "values": [1.0, 1e200]}
    assert main([command, "-c", write_config(tmp_path, payload)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {_OVERFLOW}"]


def test_flux_sweep_over_a_generic_curve_integrates_once(tmp_path, monkeypatch):
    # a library config may hold a curve with no recorded shape: its circulation at unit flux serves every row
    config = replace(
        load_config(write_config(tmp_path, BASE_CONFIG)),
        loop=fourier_loop(np.random.default_rng(5)),
        sweep=SweepSpec(parameter="solenoid.flux", values=(1.0, -2.0, 0.5)),
    )
    calls = []

    def counted(*args):
        calls.append(args)
        return solenoid_circulation(*args)

    monkeypatch.setattr(field_geometry, "solenoid_circulation", counted)
    values, result = run_sweep(config)
    assert len(calls) == 1
    expected = reference_sweep(config)
    assert sweep_csv((values, result)) == sweep_csv(expected)
    assert np.broadcast_to(result.correction_matrix, (3, 4, 4)).tobytes() == expected[1].correction_matrix.tobytes()
    assert result.standard_phase.tolist() == pytest.approx([1.0, -2.0, 0.5], abs=1e-9)
