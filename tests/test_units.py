import numpy as np
import pytest

from gupab.errors import DomainError
from gupab.units import (
    HBAR_SI,
    PLANCK_LENGTH_SI,
    PLANCK_MASS_SI,
    C_SI,
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
