import math

import numpy as np
import pytest

from gupab.errors import DomainError
from gupab.units import (
    HBAR_SI,
    PLANCK_LENGTH_SI,
    PLANCK_MASS_SI,
    C_SI,
    GupParameter,
    UnitSystem,
    gup_from_a0,
    max_momentum,
    min_length,
)


def test_natural_units_are_exactly_one():
    u = UnitSystem.natural()
    assert u.hbar == 1.0 and u.c == 1.0
    assert u.planck_length == 1.0 and u.planck_mass == 1.0


def test_natural_mode_rejects_other_constants():
    with pytest.raises(DomainError):
        UnitSystem("natural", 2.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="^unknown unit mode 'planck'$"):
        UnitSystem("planck", 1.0, 1.0, 1.0, 1.0)


def test_planck_scales_must_be_positive():
    with pytest.raises(DomainError):
        UnitSystem("si", HBAR_SI, C_SI, -1.0, PLANCK_MASS_SI)


def test_gup_from_a0_zero():
    assert gup_from_a0(0.0, UnitSystem.natural()).a == 0.0
    assert gup_from_a0(0.0, UnitSystem.si()).a == 0.0


def test_gup_from_a0_si_scale():
    par = gup_from_a0(1.0, UnitSystem.si())
    assert par.a == PLANCK_LENGTH_SI / HBAR_SI
    # Planck length is a 1e-35 m scale quantity
    assert 1e-35 <= PLANCK_LENGTH_SI <= 2e-35


def test_gup_from_a0_doubles():
    u = UnitSystem.si()
    assert gup_from_a0(2.0, u).a == 2.0 * gup_from_a0(1.0, u).a


def test_gup_from_a0_rejects_negative():
    with pytest.raises(DomainError):
        gup_from_a0(-0.5, UnitSystem.natural())


def test_gup_from_a0_linearity():
    u = UnitSystem.si()
    rng = np.random.default_rng(7)
    for _ in range(50):
        x, y = rng.uniform(0.0, 10.0, size=2)
        combined = gup_from_a0(x + y, u).a
        split = gup_from_a0(x, u).a + gup_from_a0(y, u).a
        assert combined == pytest.approx(split, rel=1e-15)


def test_min_length_values():
    si = UnitSystem.si()
    assert min_length(1.0, si) == PLANCK_LENGTH_SI
    assert min_length(3.0, si) == pytest.approx(3.0 * PLANCK_LENGTH_SI, rel=1e-15)
    assert min_length(2.5, UnitSystem.natural()) == 2.5


def test_max_momentum_values():
    si = UnitSystem.si()
    assert max_momentum(1.0, si) == PLANCK_MASS_SI * C_SI
    assert max_momentum(2.0, si) == pytest.approx(0.5 * PLANCK_MASS_SI * C_SI, rel=1e-15)


def test_length_momentum_product_is_a0_independent():
    si = UnitSystem.si()
    reference = PLANCK_LENGTH_SI * PLANCK_MASS_SI * C_SI
    for a0 in np.linspace(1e-3, 10.0, 97):
        product = min_length(a0, si) * max_momentum(a0, si)
        assert abs(product - reference) / reference < 1e-12


def test_min_length_max_momentum_domain():
    si = UnitSystem.si()
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            min_length(bad, si)
        with pytest.raises(DomainError):
            max_momentum(bad, si)


_PAST = 10**400  # an int past the largest double


@pytest.mark.filterwarnings("error")
def test_gup_from_a0_past_the_doubles_is_a_domain_error():
    for units in (UnitSystem.natural(), UnitSystem.si()):
        with pytest.raises(DomainError, match="^a0 must be finite and nonnegative$"):
            gup_from_a0(_PAST, units)


@pytest.mark.filterwarnings("error")
def test_min_length_past_the_doubles_is_a_domain_error():
    with pytest.raises(DomainError, match="^a0 must be finite and strictly positive$"):
        min_length(_PAST, UnitSystem.si())


@pytest.mark.filterwarnings("error")
def test_max_momentum_past_the_doubles_is_a_domain_error():
    with pytest.raises(DomainError, match="^a0 must be finite and strictly positive$"):
        max_momentum(_PAST, UnitSystem.si())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [math.inf, _PAST])
def test_an_infinite_gup_parameter_is_a_domain_error(a):
    # an int past the doubles is read as an infinity, and the finite check follows the nonnegative one
    with pytest.raises(DomainError, match="^a must be finite$"):
        GupParameter(a=a)
    with pytest.raises(DomainError, match="^a must be nonnegative$"):
        GupParameter(a=-a)


def test_a_gup_parameter_stores_the_float_it_reads():
    for given in (2, "0.25", 0.5):
        assert type(GupParameter(a=given).a) is float
    assert GupParameter(a=2).a == 2.0 and GupParameter(a="0.25").a == 0.25


def test_an_a0_given_as_a_str_is_read_as_the_number_it_spells():
    # as errors.to_float reads every number of the library, a of GupParameter among them
    si = UnitSystem.si()
    assert gup_from_a0("2.5", si) == gup_from_a0(2.5, si)
    assert min_length("2.5", si) == min_length(2.5, si)
    assert max_momentum("2.5", si) == max_momentum(2.5, si)


@pytest.mark.filterwarnings("error")
def test_unit_system_constants_are_read_as_floats_and_planck_scales_must_be_finite():
    # each constant is the float errors.to_float reads: a str is the number it spells, junk a DomainError
    si = UnitSystem("si", HBAR_SI, C_SI, "1.616255e-35", PLANCK_MASS_SI)
    assert si == UnitSystem.si() and type(si.planck_length) is float
    assert UnitSystem("natural", 1, "1", 1, 1) == UnitSystem.natural()
    with pytest.raises(DomainError, match="^not a number: 'junk'$"):
        UnitSystem("si", 1.0, 1.0, "junk", 1.0)
    for length, mass in ((math.inf, 1.0), (1.0, math.inf), (_PAST, 1.0), (1.0, "inf")):
        with pytest.raises(DomainError, match="^Planck scales must be finite$"):
            UnitSystem("si", 1.0, 1.0, length, mass)
    for length, mass in ((-math.inf, 1.0), (math.nan, 1.0), (1.0, 0.0)):
        with pytest.raises(DomainError, match="^Planck scales must be strictly positive$"):
            UnitSystem("si", 1.0, 1.0, length, mass)
    # si's hbar and c, which gup_from_a0 and max_momentum divide by and multiply with, too
    for hbar, c in ((0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, _PAST)):
        with pytest.raises(DomainError, match="^hbar and c must be finite and strictly positive$"):
            UnitSystem("si", hbar, c, 1.0, 1.0)
