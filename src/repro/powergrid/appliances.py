"""Appliance models: impedance, noise and switching behaviour.

Appliances matter to PLC in two ways (paper §5, Fig. 5, and ref [9]):

* their **impedance** differs from the line's characteristic impedance, so
  every plugged-in (and especially every powered-on) appliance is a
  reflection point that shapes the multipath transfer function;
* their power electronics inject **noise** that is non-Gaussian and, for most
  device classes, periodic with the mains: each tone-map slot of the half
  cycle sees a different noise level (§6.1), and switching events add
  impulsive noise (§6.3).

The catalog below encodes device classes with parameters chosen from the PLC
noise-measurement literature ([9] in the paper). Values are deliberately
coarse — the paper's conclusions depend on the *diversity* of appliance
behaviour, not on exact PSDs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

#: Characteristic impedance of in-wall mains cable at PLC frequencies (ohms).
LINE_IMPEDANCE = 85.0


class ScheduleClass(enum.Enum):
    """How an appliance's on/off state evolves (drives the random scale)."""

    ALWAYS_ON = "always_on"       # fridges, network gear, standby bricks
    LIGHTING = "lighting"         # building lighting: hard 9 pm cut-off
    OFFICE_HOURS = "office_hours" # PCs, monitors, printers
    INTERMITTENT = "intermittent" # kettles, microwaves, vacuum cleaners


@dataclass(frozen=True)
class ApplianceType:
    """Static electrical description of an appliance class.

    Attributes
    ----------
    name:
        Catalog key.
    impedance_on / impedance_off:
        Magnitude of the appliance impedance (ohms) at PLC frequencies when
        powered on / in standby. The reflection coefficient at its tap is
        ``(Z - Z0) / (Z + Z0)``.
    noise_psd_dbm_hz:
        Broadband noise injection at the appliance terminals when on,
        in dBm/Hz (receiver-side contribution before cable attenuation).
    slot_profile:
        Relative (linear) noise multipliers for the 6 tone-map slots of the
        half mains cycle — the mains-synchronous component. Normalised to
        mean 1 at construction sites.
    impulsive_rate_hz:
        Rate of impulsive-noise bursts while on (switching transients).
    schedule:
        Which :class:`ScheduleClass` drives its on/off state.
    duty_cycle:
        For :attr:`ScheduleClass.INTERMITTENT`, the fraction of time on
        during active hours.
    """

    name: str
    impedance_on: float
    impedance_off: float
    noise_psd_dbm_hz: float
    slot_profile: Tuple[float, ...]
    impulsive_rate_hz: float
    schedule: ScheduleClass
    duty_cycle: float = 1.0

    def reflection_coefficient(self, powered_on: bool) -> float:
        """|Γ| of the tap with this appliance at its end."""
        z = self.impedance_on if powered_on else self.impedance_off
        return abs((z - LINE_IMPEDANCE) / (z + LINE_IMPEDANCE))

    def slot_noise_multipliers(self) -> np.ndarray:
        """Per-slot noise multipliers normalised to mean 1."""
        profile = np.asarray(self.slot_profile, dtype=float)
        if profile.ndim != 1 or len(profile) == 0:
            raise ValueError("slot_profile must be a non-empty 1-D sequence")
        return profile / profile.mean()


def _flat(n: int = 6) -> Tuple[float, ...]:
    return tuple([1.0] * n)


#: Device classes found in an office building. Impedances in ohms; noise PSDs
#: in dBm/Hz at the appliance. Slot profiles encode mains-synchronous noise:
#: e.g. phase-controlled dimmers and switched-mode supplies are loudest near
#: the zero crossings / peaks of the cycle.
APPLIANCE_CATALOG: Dict[str, ApplianceType] = {
    "led_lighting": ApplianceType(
        name="led_lighting", impedance_on=35.0, impedance_off=900.0,
        noise_psd_dbm_hz=-89.0,
        slot_profile=(1.8, 1.0, 0.6, 0.6, 1.0, 1.8),
        impulsive_rate_hz=0.0, schedule=ScheduleClass.LIGHTING),
    "fluorescent_lighting": ApplianceType(
        name="fluorescent_lighting", impedance_on=22.0, impedance_off=1200.0,
        noise_psd_dbm_hz=-83.0,
        slot_profile=(2.6, 1.2, 0.5, 0.5, 1.2, 2.6),
        impulsive_rate_hz=0.05, schedule=ScheduleClass.LIGHTING),
    "desktop_pc": ApplianceType(
        name="desktop_pc", impedance_on=55.0, impedance_off=600.0,
        noise_psd_dbm_hz=-87.0,
        slot_profile=(1.3, 1.0, 0.8, 0.8, 1.0, 1.3),
        impulsive_rate_hz=0.02, schedule=ScheduleClass.OFFICE_HOURS),
    "monitor": ApplianceType(
        name="monitor", impedance_on=140.0, impedance_off=800.0,
        noise_psd_dbm_hz=-92.0,
        slot_profile=(1.2, 1.0, 0.9, 0.9, 1.0, 1.2),
        impulsive_rate_hz=0.01, schedule=ScheduleClass.OFFICE_HOURS),
    "laptop_charger": ApplianceType(
        name="laptop_charger", impedance_on=200.0, impedance_off=1500.0,
        noise_psd_dbm_hz=-90.0,
        slot_profile=(1.5, 1.1, 0.7, 0.7, 1.1, 1.5),
        impulsive_rate_hz=0.0, schedule=ScheduleClass.OFFICE_HOURS),
    "printer": ApplianceType(
        name="printer", impedance_on=30.0, impedance_off=700.0,
        noise_psd_dbm_hz=-81.0,
        slot_profile=(2.0, 1.4, 0.6, 0.6, 1.4, 2.0),
        impulsive_rate_hz=0.1, schedule=ScheduleClass.INTERMITTENT,
        duty_cycle=0.25),
    "coffee_machine": ApplianceType(
        name="coffee_machine", impedance_on=18.0, impedance_off=2000.0,
        noise_psd_dbm_hz=-79.0,
        slot_profile=(1.1, 1.0, 0.95, 0.95, 1.0, 1.1),
        impulsive_rate_hz=0.2, schedule=ScheduleClass.INTERMITTENT,
        duty_cycle=0.10),
    "microwave": ApplianceType(
        name="microwave", impedance_on=12.0, impedance_off=2500.0,
        noise_psd_dbm_hz=-77.0,
        slot_profile=(1.4, 1.2, 0.8, 0.8, 1.2, 1.4),
        impulsive_rate_hz=0.3, schedule=ScheduleClass.INTERMITTENT,
        duty_cycle=0.03),
    "fridge": ApplianceType(
        name="fridge", impedance_on=45.0, impedance_off=45.0,
        noise_psd_dbm_hz=-88.0,
        slot_profile=(1.1, 1.0, 0.95, 0.95, 1.0, 1.1),
        impulsive_rate_hz=0.02, schedule=ScheduleClass.ALWAYS_ON),
    "network_switch": ApplianceType(
        name="network_switch", impedance_on=300.0, impedance_off=300.0,
        noise_psd_dbm_hz=-95.0, slot_profile=_flat(),
        impulsive_rate_hz=0.0, schedule=ScheduleClass.ALWAYS_ON),
    "phone_charger": ApplianceType(
        name="phone_charger", impedance_on=450.0, impedance_off=1800.0,
        noise_psd_dbm_hz=-94.0,
        slot_profile=(1.6, 1.0, 0.7, 0.7, 1.0, 1.6),
        impulsive_rate_hz=0.0, schedule=ScheduleClass.OFFICE_HOURS),
    "lab_equipment": ApplianceType(
        name="lab_equipment", impedance_on=10.0, impedance_off=10.0,
        noise_psd_dbm_hz=-83.0,
        slot_profile=(1.5, 1.2, 0.7, 0.7, 1.2, 1.5),
        impulsive_rate_hz=0.15, schedule=ScheduleClass.ALWAYS_ON),
    "vacuum_cleaner": ApplianceType(
        name="vacuum_cleaner", impedance_on=8.0, impedance_off=3000.0,
        noise_psd_dbm_hz=-73.0,
        slot_profile=(1.2, 1.1, 0.9, 0.9, 1.1, 1.2),
        impulsive_rate_hz=1.0, schedule=ScheduleClass.INTERMITTENT,
        duty_cycle=0.01),
}


@dataclass(frozen=True)
class ApplianceInstance:
    """A concrete appliance plugged into a specific outlet.

    ``instance_id`` must be unique per grid: the activity model derives this
    appliance's private random stream from it.
    """

    instance_id: str
    kind: ApplianceType
    outlet_id: str

    @staticmethod
    def make(instance_id: str, kind_name: str,
             outlet_id: str) -> "ApplianceInstance":
        """Create an instance from a catalog key."""
        if kind_name not in APPLIANCE_CATALOG:
            raise KeyError(f"unknown appliance type {kind_name!r}; "
                           f"available: {sorted(APPLIANCE_CATALOG)}")
        return ApplianceInstance(instance_id, APPLIANCE_CATALOG[kind_name],
                                 outlet_id)
