"""Electrical-load process: grid + appliances + activity in one object.

:class:`ElectricalLoad` is the single facade the PLC channel model talks to.
It answers, for any simulated time:

* which appliances are on (`state_signature`) — determines the multipath
  structure (random-scale attenuation changes, §6.3);
* the noise each outlet *hears* per tone-map slot (`noise_psd_at`) — the
  invariance-scale structure (§6.1) plus the receiver-local component that
  creates link asymmetry (§5).

Noise propagation uses a simple exponential cable loss so that an appliance
two rooms away contributes far less noise than one sharing the receiver's
power strip. The wiring is static, so each receiver outlet resolves one
row from its shortest-path tree: every connected appliance's noise
injection after cable loss and its impulse weight. Per-signature queries
only add up the powered-on entries of that row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.powergrid.activity import OfficeActivityModel
from repro.powergrid.appliances import ApplianceInstance
from repro.powergrid.topology import GridTopology

#: Noise attenuation per cable metre (dB/m) at PLC frequencies, broadband
#: average. 1.2 dB/m keeps appliance noise *local*: the dominant noise at a
#: receiver comes from appliances within a room or two — which is what makes
#: PLC links asymmetric (§5) and link quality location-dependent.
NOISE_CABLE_LOSS_DB_PER_M = 1.2

#: Ambient noise floor on an in-building line, dBm/Hz. Measured PLC
#: floors sit near -110 dBm/Hz (far above thermal) due to conducted RF and
#: distant loads; an isolated lab cable pair still yields near-max SNR.
BACKGROUND_NOISE_DBM_HZ = -110.0


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class _NoiseCacheEntry:
    signature: Tuple[bool, ...]
    per_slot_dbm_hz: np.ndarray  # shape (num_slots,)


@dataclass(frozen=True)
class _ReceiverRow:
    """What every appliance contributes at one receiver outlet.

    The fields are aligned, in appliance order, over the appliances
    connected to the receiver: their indices, their per-slot noise
    injection after cable loss (mW/Hz, read-only, shape (n, num_slots))
    and their distance-weighted impulsive rate (events/s).
    """

    indices: Tuple[int, ...]
    noise_mw: np.ndarray
    impulse_hz: Tuple[float, ...]


class ElectricalLoad:
    """Queryable state of the electrical environment."""

    def __init__(self, grid: GridTopology,
                 appliances: List[ApplianceInstance],
                 activity: OfficeActivityModel,
                 num_slots: int = 6):
        unknown = [a.instance_id for a in appliances
                   if a.outlet_id not in grid]
        if unknown:
            raise KeyError(f"appliances on unknown outlets: {unknown}")
        self.grid = grid
        self.appliances = list(appliances)
        self.activity = activity
        self.num_slots = num_slots
        self._noise_cache: Dict[str, _NoiseCacheEntry] = {}
        # Receiver outlet -> its static row, and the last instant's
        # signature with the overlay it was read under. Forks share the
        # load: every memo here is an immutable value written with one
        # insert or one assignment.
        self._rows: Dict[str, _ReceiverRow] = {}
        self._signature_memo: tuple = (None, None, None)
        # Pre-normalised slot profiles, shape (n_appliances, num_slots).
        self._slot_profiles = np.array(
            [a.kind.slot_noise_multipliers() for a in self.appliances]
        ) if self.appliances else np.zeros((0, num_slots))
        self._base_psd_mw = np.array(
            [dbm_to_mw(a.kind.noise_psd_dbm_hz) for a in self.appliances])

    # --- appliance state ------------------------------------------------------

    def state_signature(self, t: float) -> Tuple[bool, ...]:
        """On/off vector of all appliances at ``t`` (sorted by instance):
        the one-row view of :meth:`state_matrix`.

        Memoized for the last instant, keyed on ``t`` and the identity
        of the activity overlay: the channels of one load probed at one
        instant evaluate the schedule once, and installing or removing
        an overlay shows at once.
        """
        overlay = self.activity.overlay
        memo_t, memo_overlay, signature = self._signature_memo
        if memo_t == t and memo_overlay is overlay:
            return signature
        signature = self.activity.state_signature(self.appliances, t)
        self._signature_memo = (t, overlay, signature)
        return signature

    def state_matrix(self, ts) -> np.ndarray:
        """On/off state of every appliance at every instant of ``ts``:
        bool, shape ``(len(ts), n_appliances)``, one signature per row."""
        return self.activity.state_matrix(self.appliances, ts)

    def active_appliances(self, t: float) -> List[ApplianceInstance]:
        signature = self.state_signature(t)
        return [a for a, on in zip(self.appliances, signature) if on]

    def active_count(self, t: float) -> int:
        return sum(self.state_signature(t))

    # --- noise ------------------------------------------------------------------

    def _row(self, outlet_id: str) -> _ReceiverRow:
        """The receiver row of ``outlet_id``, resolved on first use."""
        row = self._rows.get(outlet_id)
        if row is None:
            distance = self.grid.distances_from(outlet_id)
            indices = [i for i, appliance in enumerate(self.appliances)
                       if appliance.outlet_id in distance]
            noise_mw = np.empty((len(indices), self.num_slots))
            impulse_hz = []
            for k, i in enumerate(indices):
                appliance = self.appliances[i]
                d = float(distance[appliance.outlet_id])
                loss = 10.0 ** (-NOISE_CABLE_LOSS_DB_PER_M * d / 10.0)
                noise_mw[k] = (self._base_psd_mw[i] * loss
                               * self._slot_profiles[i])
                weight = 10.0 ** (-NOISE_CABLE_LOSS_DB_PER_M * d / 20.0)
                impulse_hz.append(appliance.kind.impulsive_rate_hz * weight)
            noise_mw.flags.writeable = False
            row = _ReceiverRow(tuple(indices), noise_mw, tuple(impulse_hz))
            self._rows[outlet_id] = row
        return row

    def cable_distance(self, a: str, b: str) -> float:
        """Cable distance in metres from outlet ``a`` to receiver ``b``
        (inf when not connected), read from ``b``'s shortest-path tree.

        The distance is receiver-rooted: the route's lengths are summed
        from ``b``, as in the noise and impulse rows. It equals
        ``cable_distance(b, a)`` when the lengths sum exactly in either
        order (on the office floors every cable length is a multiple of
        0.5 m); other lengths may leave the two a rounding step apart.
        """
        if not self.grid.connected(b, a):
            return float("inf")
        return self.grid.electrical_distance(b, a)

    def noise_psd_at(self, outlet_id: str, t: float) -> np.ndarray:
        """Noise PSD heard at ``outlet_id``, per tone-map slot, in dBm/Hz.

        Returns an array of shape ``(num_slots,)``. The value is the
        background floor plus every powered-on appliance's injection,
        attenuated by its cable distance to the receiver and shaped by its
        mains-synchronous slot profile.
        """
        if outlet_id not in self.grid:
            raise KeyError(f"unknown outlet {outlet_id!r}")
        return self.noise_psd_for(outlet_id, self.state_signature(t))

    def noise_psd_for(self, outlet_id: str,
                      signature: Tuple[bool, ...]) -> np.ndarray:
        """:meth:`noise_psd_at` for an already-resolved state signature."""
        cached = self._noise_cache.get(outlet_id)
        if cached is not None and cached.signature == signature:
            return cached.per_slot_dbm_hz
        row = self._row(outlet_id)
        total_mw = np.full(self.num_slots, dbm_to_mw(BACKGROUND_NOISE_DBM_HZ))
        for i, injection in zip(row.indices, row.noise_mw):
            if signature[i]:
                total_mw += injection
        per_slot = 10.0 * np.log10(total_mw)
        self._noise_cache[outlet_id] = _NoiseCacheEntry(signature, per_slot)
        return per_slot

    def impulsive_event_rate_at(self, outlet_id: str, t: float) -> float:
        """Aggregate impulsive-noise rate (events/s) heard at an outlet.

        Distance-weighted sum of active appliances' impulsive rates; feeds the
        bursty-error model in the channel estimator.
        """
        return self.impulsive_event_rate_for(outlet_id,
                                             self.state_signature(t))

    def impulsive_event_rate_for(self, outlet_id: str,
                                 signature: Tuple[bool, ...]) -> float:
        """:meth:`impulsive_event_rate_at` for a resolved signature (a
        sequential sum, in appliance order)."""
        row = self._row(outlet_id)
        rate = 0.0
        for i, term in zip(row.indices, row.impulse_hz):
            if signature[i]:
                rate += term
        return rate

    # --- taps / reflections ---------------------------------------------------------

    def tap_geometry(self, src_outlet: str, dst_outlet: str,
                     max_branch_length: float = 25.0
                     ) -> List[Tuple[int, ApplianceInstance, float]]:
        """Appliances that act as reflection points for the src→dst path.

        Returns ``(appliance index, appliance, extra_path_metres)`` per
        tap, in appliance order, where ``extra_path_metres`` is the
        additional cable length of the reflected path (twice the branch
        stub length). The geometry is static; whether a tap is powered on
        is its entry in the state signature. Not memoized: each
        :class:`~repro.plc.channel.PlcChannel` resolves its direction's
        taps once and keeps them."""
        branches = self.grid.tap_branches(src_outlet, dst_outlet,
                                          max_branch_length)
        branch_end_len = {br.end_outlet: br.branch_length
                          for br in branches}
        on_path = set(self.grid.signal_path(src_outlet, dst_outlet))
        geometry = []
        for i, appliance in enumerate(self.appliances):
            stub = branch_end_len.get(appliance.outlet_id)
            if stub is None:
                # Appliance on the path itself: reflection with no extra
                # delay beyond a minimal stub.
                if appliance.outlet_id in on_path:
                    stub = 1.0
                else:
                    continue
            geometry.append((i, appliance, 2.0 * stub))
        return geometry
