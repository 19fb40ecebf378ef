"""Every record class of the package against the frozen dataclass it replaced, which the test builds from the record's own fields.

The package's records are ``records.Record`` classes with hand-written
constructors, so that creating them generates and compiles no code. Each
case builds a record from valid arguments and holds it to a frozen
``dataclasses.make_dataclass`` copy with the same fields, compared and shown
as the record's ``_compared`` says: the same repr, the same ``==`` and the
same ``hash``, or the same exception where those raise (a record holding
arrays). It also checks positional and keyword construction, that
assignment and deletion raise ``AttributeError``, that ``_replace`` runs the
constructor's checks again, and that a record survives a pickle.
"""

import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest

from gupab.cli_io import RunConfig, SweepSpec
from gupab.clifford import FourVector
from gupab.errors import DomainError, GeometryError
from gupab.field_geometry import LoopPath, QuadratureSpec, SolenoidSpec, circle_loop, line_segment
from gupab.gup_algebra import CommutatorReport, MomentumGrid, UncertaintyReport, grid_operator_lab
from gupab.line_integrals import IntegralResult, Segment
from gupab.phase_engine import DispersionResult, ParticleSpec, PhaseResult, dispersion, total_phase
from gupab.records import Record
from gupab.units import C_SI, HBAR_SI, PLANCK_LENGTH_SI, PLANCK_MASS_SI, GupParameter, UnitSystem


def _point(s):  # module-level, so that a Segment of it pickles
    return np.column_stack([np.cos(s), np.sin(s), np.zeros_like(s)])


def _tangent(s):
    return np.column_stack([-np.sin(s), np.cos(s), np.zeros_like(s)])


_PARTICLE, _SOLENOID = ParticleSpec(1.0, 1.0, 0.6), SolenoidSpec(1.0, 0.1)
_OPEN_LINE = LoopPath((line_segment((1.0, 0.0, 0.0), (2.0, 0.0, 0.0)),), closed=False)
_PHASE = total_phase(_PARTICLE, _SOLENOID, circle_loop(radius=2.0), 0.01)
_DISPERSION = dispersion([1.0, 0.5, 0.0], 1.0, 0.1)
_LAB = grid_operator_lab(MomentumGrid.uniform(1.0, 2.0, 64), 0.1)

# (class, constructor arguments, a _replace whose value the constructor rejects, its error and message); None
# where the class checks nothing
CASES = [
    (UnitSystem, ("si", HBAR_SI, C_SI, PLANCK_LENGTH_SI, PLANCK_MASS_SI), ({"planck_length": -1.0}, DomainError, "Planck scales must be strictly positive")),
    (GupParameter, (0.01,), ({"a": -1.0}, DomainError, "a must be nonnegative")),
    (SolenoidSpec, (1.0, 0.1, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)), ({"radius": 0.0}, DomainError, "radius must be positive")),
    (LoopPath, (_OPEN_LINE.segments, False), ({"closed": True}, GeometryError, "path marked closed but endpoints differ by 1.000e+00")),
    (QuadratureSpec, (16, "fixed", 1e-10), ({"refinement": "adaptive"}, DomainError, "refinement must be 'fixed' or 'doubling'")),
    (IntegralResult, (1.5, 1e-12, 32), None),
    (Segment, (_point, _tangent), None),
    (SweepSpec, ("gup.a", (0.0, 0.01)), None),
    (RunConfig, (_PARTICLE, _SOLENOID, circle_loop(radius=2.0), 0.01, QuadratureSpec(), None, SweepSpec("gup.a", (0.0,))), None),
    (ParticleSpec, (1.0, 1.0, 0.6), ({"speed": 1.0}, DomainError, "v must be in (0,1)")),
    (PhaseResult, tuple(getattr(_PHASE, name) for name in PhaseResult._fields), None),
    (DispersionResult, tuple(getattr(_DISPERSION, name) for name in DispersionResult._fields), None),
    (FourVector, (1.0, 0.5, 0.25, 0.0), None),
    (MomentumGrid, (np.linspace(1.0, 2.0, 8),), ({"points": [1.0, 2.0]}, DomainError, "grid needs at least 8 points in one dimension")),
    (CommutatorReport, tuple(getattr(_LAB, name) for name in CommutatorReport._fields), None),
    (UncertaintyReport, (0.5, 1.0, 1.5, 2.5, 0.5, 0.49, True), None),
]


def _outcome(call):
    """call()'s value, or the type of the exception it raises."""
    try:
        return call()
    except Exception as error:  # noqa: BLE001 -- a record and its dataclass must raise alike
        return type(error)


def _reference(cls):
    """The frozen dataclass with the record's fields: those of ``_compared`` compared and shown, the others neither."""
    fields = [(name, object, dataclasses.field(compare=name in cls._compared, repr=name in cls._compared)) for name in cls._fields]
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)


def test_the_cases_cover_every_record_class():
    import gupab

    modules = [getattr(gupab, name) for name in ("cli_io", "clifford", "field_geometry", "gup_algebra", "line_integrals", "phase_engine", "units")]
    classes = {value for module in modules for value in vars(module).values() if isinstance(value, type) and issubclass(value, Record)}
    assert classes - {Record} == {cls for cls, _, _ in CASES}


@pytest.mark.parametrize("cls, args, bad", CASES, ids=[cls.__name__ for cls, _, _ in CASES])
def test_a_record_acts_as_the_frozen_dataclass_it_replaced(cls, args, bad):
    assert list(inspect.signature(cls).parameters) == list(cls._fields)
    assert not hasattr(cls, "__dataclass_fields__")
    record, by_name = cls(*args), cls(**dict(zip(cls._fields, args)))
    values = tuple(getattr(record, name) for name in cls._fields)
    assert repr(tuple(getattr(by_name, name) for name in cls._fields)) == repr(values)

    dataclass = _reference(cls)
    reference, twin, reference_twin = dataclass(*values), cls(*values), dataclass(*values)
    assert repr(record) == repr(reference)
    assert _outcome(lambda: record == twin) == _outcome(lambda: reference == reference_twin)
    assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(reference))
    assert record == record and (record != args) and (record == reference) is False

    for name in (*cls._fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)

    assert repr(record._replace()) == repr(record)
    assert repr(pickle.loads(pickle.dumps(record))) == repr(record)
    with pytest.raises(TypeError):
        record._replace(unknown=None)
    if bad is not None:
        changes, error, message = bad
        with pytest.raises(error) as caught:
            record._replace(**changes)
        assert str(caught.value) == message


def test_a_record_with_a_cached_property_stores_it_past_its_own_setattr():
    # the measured fields live in the instance __dict__, which == and hash leave out
    result = dispersion([1.0, 0.5, 0.0], 1.0, 0.1)
    before = hash(result)
    assert np.isfinite(result.eigenvalues).all() and {"hamiltonian", "eigenvalues"} <= set(vars(result))
    assert hash(result) == before and result == dispersion([1.0, 0.5, 0.0], 1.0, 0.1)
    lab = grid_operator_lab(MomentumGrid.uniform(1.0, 2.0, 64), 0.1)
    assert math.isfinite(lab.max_residual_interior) and lab == _LAB
