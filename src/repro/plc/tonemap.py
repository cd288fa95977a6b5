"""Tone maps: the per-slot modulation tables exchanged between stations.

A tone map (§2.1) fixes, for one tone-map slot of the AC line cycle, the
modulation of every carrier plus the FEC rate, and embeds the PB error rate
assumed at generation time (Definition 1's ``PBerr``). The receiver picks up
to 6 slot tone maps plus a default (ROBO) one, identified by a tone-map index
(TMI) carried in every SoF delimiter — the PLC analogue of WiFi's MCS.

:class:`ToneMapProcess` models the *dynamics*: tone maps are regenerated when
they expire (30 s) or when the receiver's error monitor trips (§2.1), which
produces the inter-update times ``α`` studied in Fig. 11.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.plc import phy
from repro.plc.channel import ChannelState, PlcChannel
from repro.plc.spec import PlcSpec


@dataclass(frozen=True)
class ToneMap:
    """An immutable per-slot modulation assignment.

    Attributes
    ----------
    tmi:
        Tone-map index (unique per link, monotonically increasing here).
    bits:
        Bits per carrier, shape (num_carriers, num_slots).
    fec_rate:
        FEC code rate in force.
    pb_err:
        PB error rate assumed at generation (fixed until regeneration —
        Definition 1).
    created_at:
        Simulated creation time (s).
    slots:
        ``bits`` laid out for PB-error evaluation; laid out here when
        not given.
    """

    tmi: int
    bits: np.ndarray
    fec_rate: float
    pb_err: float
    created_at: float
    symbol_duration_s: float
    slots: Optional[phy.ToneMapSlots] = field(default=None, repr=False,
                                              compare=False)

    def __post_init__(self) -> None:
        per_slot = phy.ble_bps(self.bits.sum(axis=0).astype(float),
                               self.fec_rate, self.pb_err,
                               self.symbol_duration_s)
        # Frozen dataclass: stash derived values via object.__setattr__.
        object.__setattr__(self, "_ble_per_slot", per_slot)
        if self.slots is None:
            object.__setattr__(self, "slots", phy.ToneMapSlots(self.bits))

    def ble_per_slot_bps(self) -> np.ndarray:
        """BLE of each tone-map slot (bits/s)."""
        return self._ble_per_slot

    def avg_ble_bps(self) -> float:
        """BLE averaged over all slots — what ``int6krate`` reports (§7.1)."""
        return float(self._ble_per_slot.mean())

    def age(self, now: float) -> float:
        return now - self.created_at


def generate_tone_map(channel: PlcChannel, t: float, tmi: int,
                      backoff_db: float = phy.DEFAULT_BACKOFF_DB,
                      snr_override: Optional[np.ndarray] = None) -> ToneMap:
    """Build the tone map a receiver would produce from the channel at ``t``.

    ``snr_override`` lets the channel-estimation model supply its *estimated*
    SNR instead of the true one (§7's convergence experiments).
    """
    spec = channel.spec
    state = channel.state_at(t)
    snr = snr_override if snr_override is not None else state.snr_db
    bits = phy.bit_loading(snr, spec, backoff_db)
    slots = phy.ToneMapSlots(bits)
    # Definition 1: one PBerr value is embedded — the expected rate for the
    # link, i.e. the slot average at generation time.
    pb_err = float(np.mean(slots.pb_error_per_slot(
        snr, state.impulsive_rate_hz)))
    pb_err = max(pb_err, spec.target_pb_error * 0.25)
    return ToneMap(tmi=tmi, bits=bits, fec_rate=spec.fec_rate, pb_err=pb_err,
                   created_at=t, symbol_duration_s=spec.symbol_duration_s,
                   slots=slots)


@dataclass
class ToneMapUpdate:
    """Record of one tone-map regeneration (for α statistics)."""

    time: float
    tmi: int
    avg_ble_bps: float
    reason: str  # "initial" | "expiry" | "error" | "drift"


class ToneMapProcess:
    """Stateful tone-map tracking for one directed link.

    ``advance(t)`` walks the update opportunities between the last processed
    time and ``t`` at ``check_interval`` resolution (50 ms — the fastest MM
    polling rate the paper could use, §6.2) and regenerates the tone map on
    expiry or when the realised PB error / BLE drift trips the threshold.
    Only meaningful while traffic flows; the caller decides when to advance.
    """

    def __init__(self, channel: PlcChannel, start_time: float = 0.0,
                 check_interval: float = 0.05,
                 drift_threshold: float = 0.01,
                 backoff_db: float = phy.DEFAULT_BACKOFF_DB):
        self.channel = channel
        self.spec: PlcSpec = channel.spec
        self.check_interval = check_interval
        self.drift_threshold = drift_threshold
        self.backoff_db = backoff_db
        self._tmi_counter = itertools.count(1)
        self._now = start_time
        self.tone_map = generate_tone_map(
            channel, start_time, next(self._tmi_counter), backoff_db)
        self.updates: List[ToneMapUpdate] = [ToneMapUpdate(
            start_time, self.tone_map.tmi, self.tone_map.avg_ble_bps(),
            "initial")]
        # Memo: (appliance signature, jitter interval, tmi) -> evaluation.
        self._eval_key: Optional[tuple] = None
        self._eval_value: Optional[tuple] = None

    @property
    def now(self) -> float:
        return self._now

    def realized_pb_error(self, t: float) -> float:
        """PB error rate the *current* tone map suffers at time ``t``.

        The tone map was built for past channel conditions; jitter since then
        shifts the margins, which is what the error monitor reacts to.
        """
        return self._realized_pb_error(self.channel.state_at(t))

    def _realized_pb_error(self, state: ChannelState) -> float:
        return float(np.mean(self.tone_map.slots.pb_error_per_slot(
            state.snr_db, state.impulsive_rate_hz)))

    def _regenerate(self, t: float, reason: str) -> None:
        self.tone_map = generate_tone_map(
            self.channel, t, next(self._tmi_counter), self.backoff_db)
        self.updates.append(ToneMapUpdate(
            t, self.tone_map.tmi, self.tone_map.avg_ble_bps(), reason))

    def advance(self, t: float) -> None:
        """Process tone-map maintenance up to time ``t``."""
        if t < self._now:
            raise ValueError(f"cannot advance backwards: {t} < {self._now}")
        steps = int((t - self._now) / self.check_interval)
        current = self._now
        for _ in range(steps):
            current += self.check_interval
            if self.tone_map.age(current) >= self.spec.tone_map_expiry_s:
                self._regenerate(current, "expiry")
                continue
            # Within one (appliance signature, jitter interval) window the
            # channel is constant, so the evaluation can be reused.
            state = self.channel.state_at(current)
            key = (state.signature, state.interval, self.tone_map.tmi)
            if key == self._eval_key and self._eval_value is not None:
                realized, fresh = self._eval_value
            else:
                realized = self._realized_pb_error(state)
                # The average BLE a regenerated tone map would have.
                fresh = float(np.mean(phy.ble_from_snr(
                    state.snr_db, self.spec, self.backoff_db)))
                self._eval_key = key
                self._eval_value = (realized, fresh)
            if realized >= self.spec.tone_map_error_threshold:
                self._regenerate(current, "error")
                continue
            have = self.tone_map.avg_ble_bps()
            if have > 0 and abs(fresh - have) / have > self.drift_threshold:
                self._regenerate(current, "drift")
        self._now = t

    def ble_update_interarrivals(self) -> np.ndarray:
        """The α samples of Fig. 11: times between tone-map regenerations."""
        times = np.array([u.time for u in self.updates])
        return np.diff(times)

    def ble_trace(self) -> np.ndarray:
        """(time, avg BLE) pairs at each update, for cycle-scale plots."""
        return np.array([[u.time, u.avg_ble_bps] for u in self.updates])
