"""Appliance catalog: impedance, noise profiles, schedules."""

import numpy as np
import pytest

from repro.powergrid.appliances import (
    APPLIANCE_CATALOG,
    ApplianceInstance,
    LINE_IMPEDANCE,
    ScheduleClass,
)


def test_catalog_covers_all_schedule_classes():
    classes = {a.schedule for a in APPLIANCE_CATALOG.values()}
    assert classes == set(ScheduleClass)


def test_reflection_coefficient_bounds():
    for appliance in APPLIANCE_CATALOG.values():
        for on in (True, False):
            gamma = appliance.reflection_coefficient(on)
            assert 0.0 <= gamma < 1.0


def test_matched_impedance_reflects_nothing():
    fridge = APPLIANCE_CATALOG["fridge"]
    # Construct the coefficient directly from the formula.
    z = fridge.impedance_on
    expected = abs((z - LINE_IMPEDANCE) / (z + LINE_IMPEDANCE))
    assert fridge.reflection_coefficient(True) == pytest.approx(expected)


def test_powered_on_changes_reflection_for_switching_loads():
    led = APPLIANCE_CATALOG["led_lighting"]
    assert led.reflection_coefficient(True) != led.reflection_coefficient(
        False)


def test_slot_multipliers_normalised_to_mean_one():
    for appliance in APPLIANCE_CATALOG.values():
        m = appliance.slot_noise_multipliers()
        assert len(m) == 6
        assert np.isclose(m.mean(), 1.0)
        assert (m > 0).all()


def test_mains_synchronous_profiles_vary_across_slots():
    # At least the lighting/printer classes must be slot-dependent (§6.1).
    fluorescent = APPLIANCE_CATALOG["fluorescent_lighting"]
    m = fluorescent.slot_noise_multipliers()
    assert m.max() / m.min() > 2.0


def test_instance_factory_validates_kind():
    with pytest.raises(KeyError):
        ApplianceInstance.make("x", "toaster-oven", "outlet-1")
    inst = ApplianceInstance.make("x", "microwave", "outlet-1")
    assert inst.kind.name == "microwave"


def test_intermittent_appliances_declare_duty_cycle():
    for appliance in APPLIANCE_CATALOG.values():
        if appliance.schedule is ScheduleClass.INTERMITTENT:
            assert 0.0 < appliance.duty_cycle < 1.0
