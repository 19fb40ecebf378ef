"""The package loads each submodule on first use: a command imports only the code it runs, and creates no dataclass."""

import json
import subprocess
import sys

import pytest

import gupab

# every name the package exported when its __init__ imported each submodule at once, by module
EXPORTS = {
    "clifford": ["FourVector", "alpha", "beta", "gamma", "on_shell_spinor", "slash"],
    "errors": ["ConfigError", "DomainError", "FieldEvaluationError", "GeometryError", "GupabError", "SingularInputError"],
    "field_geometry": [
        "Arc",
        "IntegralResult",
        "Line",
        "LoopPath",
        "QuadratureSpec",
        "Segment",
        "SolenoidSpec",
        "arc_segment",
        "circle_loop",
        "gauge_shift",
        "line_integral",
        "line_segment",
        "loop_length",
        "make_loop",
        "polyline_loop",
        "rectangle_loop",
        "solenoid_field",
        "solenoid_vector_potential",
    ],
    "gup_algebra": [
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
    ],
    "phase_engine": [
        "DispersionResult",
        "ParticleSpec",
        "PhaseResult",
        "ab_phase",
        "dispersion",
        "gup_phase_matrix",
        "gup_phase_projected",
        "total_phase",
    ],
    "units": ["GupParameter", "UnitSystem", "gup_from_a0", "max_momentum", "min_length"],
}
SUBMODULES = [*EXPORTS, "cli_io", "verification"]
CONFIG = {
    "particle": {"q": 1.0, "m": 1.0, "v": 0.6},
    "solenoid": {"flux": 1.0, "radius": 0.1},
    "loop": {"kind": "circle", "radius": 2.0, "windings": 1},
    "gup": {"a": 0.01},
    "sweep": {"parameter": "gup.a", "values": [0.0, 0.01, 0.02]},
}
# runs the code in a fresh interpreter, then writes the gupab modules it loaded to stderr as its last line
_PROBE = """
import json, runpy, sys
code = 0
try:
    exec(sys.argv[1])
except SystemExit as stop:
    code = stop.code
sys.stderr.write("\\n" + json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "gupab")]))
"""
# python -m gupab ARGS, as the interpreter runs it
_MAIN = "sys.argv = ['gupab', *{!r}]; runpy.run_module('gupab', run_name='__main__', alter_sys=True)"


def _loaded(code):
    """(exit code, the gupab modules loaded) of ``code`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _PROBE, code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


def test_import_gupab_loads_no_submodule():
    assert _loaded("import gupab") == [0, ["gupab"]]


@pytest.mark.parametrize("command", ["phase", "sweep", "dispersion", None])
def test_phase_sweep_and_dispersion_load_neither_the_algebra_nor_the_suite(tmp_path, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG), encoding="utf-8")
    code, modules = _loaded(_MAIN.format([command, "-c", str(path)]) if command else "import gupab.cli_io")
    assert code == 0 and "gupab.cli_io" in modules
    assert "gupab.gup_algebra" not in modules and "gupab.verification" not in modules
    assert "gupab.line_integrals" not in modules


def test_no_class_the_cli_loads_is_a_dataclass():
    # every record is a records.Record with a hand-written constructor: creating the classes generates no code
    code = """
import sys, gupab.cli_io
classes = [v for name, m in list(sys.modules.items()) if name.split(".")[0] == "gupab" for v in vars(m).values() if isinstance(v, type)]
assert len(classes) >= 20, len(classes)
assert not [c for c in classes if hasattr(c, "__dataclass_fields__")]
"""
    assert _loaded(code)[0] == 0


def test_the_library_geometry_names_resolve_through_field_geometry():
    # field_geometry reads them from gupab.line_integrals, which loads on the first such read
    code = """
import sys, gupab.field_geometry as fg
assert "gupab.line_integrals" not in sys.modules
from gupab.field_geometry import Segment, line_integral
assert "gupab.line_integrals" in sys.modules
import gupab.line_integrals as li
for name in ("IntegralResult", "Segment", "gauge_shift", "line_integral", "loop_length", "solenoid_circulation",
             "solenoid_field", "solenoid_vector_potential"):
    assert getattr(fg, name) is getattr(li, name), name
try:
    fg._sampled_about_axis
except AttributeError as error:
    assert str(error) == "module 'gupab.field_geometry' has no attribute '_sampled_about_axis'"
else:
    raise AssertionError("a private name of line_integrals resolved through field_geometry")
"""
    assert _loaded(code)[0] == 0


def test_verify_loads_the_algebra_and_the_suite():
    code, modules = _loaded(_MAIN.format(["verify"]))
    assert code == 0 and {"gupab.gup_algebra", "gupab.verification"} <= set(modules)


def test_every_exported_name_resolves_to_its_module_object_on_first_read():
    # in a fresh interpreter, so each read is a first read
    code = f"""
import importlib, gupab
exports = {EXPORTS!r}
for module, names in exports.items():
    for name in names:
        assert getattr(gupab, name) is getattr(importlib.import_module("gupab." + module), name), name
        assert name in gupab.__all__ and name in dir(gupab), name
"""
    assert _loaded(code)[0] == 0


def test_the_package_lists_and_resolves_every_name_and_submodule():
    assert sorted(gupab.__all__) == sorted(name for names in EXPORTS.values() for name in names)
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(gupab, name) is getattr(getattr(gupab, module), name)
    for module in SUBMODULES:
        assert getattr(gupab, module) is sys.modules[f"gupab.{module}"] and module in dir(gupab)
    namespace = {}
    exec("from gupab import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(gupab.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'gupab' has no attribute 'no_such_name'$"):
        gupab.no_such_name
    with pytest.raises(ImportError):
        exec("from gupab import no_such_name", {})
    assert not hasattr(gupab, "__wrapped__")
