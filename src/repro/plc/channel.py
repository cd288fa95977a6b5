"""Directed PLC channel: multipath transfer function + per-carrier SNR.

The model follows the paper's §5 narrative (and the channel-modelling
literature it cites, [15]):

* the mains cable is a transmission line; every tap with an appliance is an
  impedance mismatch that both leaks through-signal and reflects it (Fig. 5),
  so the transfer function is a **multipath sum** with frequency-selective
  notches;
* bare cable attenuation is tiny — the paper measures ≤ 2 Mbps of throughput
  loss over 70 m of unloaded cable — so degradation is dominated by taps and
  noise;
* noise at the **receiver** is the sum of appliance injections attenuated by
  their cable distance (from :class:`repro.powergrid.load.ElectricalLoad`),
  with a low-pass spectral shape, and varies per tone-map slot
  (invariance scale) and with appliance switching (random scale);
* the **cycle scale** is a zero-mean jitter process whose standard deviation
  and hold time depend on how noise-dominated the link is — reproducing the
  paper's central finding that link quality and link-metric variability are
  strongly (negatively) correlated (§6.2);
* link **asymmetry** (§5) emerges from two modelled mechanisms: receiver-local
  noise (physical) and a per-direction coupling/AGC loss that grows with the
  electrical load adjacent to the receiving outlet (the paper's "high
  electrical-load close to one of the two stations").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.powergrid.appliances import ApplianceType
from repro.powergrid.load import (
    BACKGROUND_NOISE_DBM_HZ,
    ElectricalLoad,
    dbm_to_mw,
)
from repro.plc import phy
from repro.plc.spec import PlcSpec
from repro.sim.random import RandomStreams

#: Propagation speed on mains cable (m/s), ~0.5 c.
PROPAGATION_SPEED = 1.5e8

#: Cable attenuation: alpha(f) = A0 + A1 * f**K nepers/metre (Zimmermann
#: model). Calibrated so 70 m of bare cable costs only a few dB at 30 MHz
#: and the 30-68 MHz AV500 extension stays usable at in-floor distances.
CABLE_A0 = 2.0e-3
CABLE_A1 = 1.2e-10
CABLE_K = 1.0

#: Fixed coupler/AFE insertion loss per end (dB).
COUPLING_LOSS_DB = 3.0

#: Appliance noise spectral slope: PSD(f) = PSD(f0) * (f/f0) ** NOISE_SLOPE
#: (appliance noise concentrates at low frequencies; measured PLC noise
#: falls steeply above ~30 MHz, which is why the AV500 band extension can
#: revive links that appliance noise kills on the 2-30 MHz AV band).
NOISE_SLOPE = -2.0
NOISE_REF_HZ = 3.0e6

#: How close (cable metres) an appliance must be to an outlet to load the
#: coupling of that outlet (asymmetry mechanism #2).
LOCAL_LOAD_RADIUS_M = 8.0

#: Insertion loss per junction (branch point) traversed by the direct path.
#: Every branching splits signal power towards the other legs; 1.2 dB per
#: junction is mid-range for in-wall wiring and is what makes *electrically
#: long* paths (many rooms away) lossy even though bare cable is nearly
#: transparent.
JUNCTION_LOSS_DB = 2.1

#: Tap states whose path loss a direction keeps before starting over. A
#: two-week run probed every two hours sees 27-31 per direction; an
#: entry is one float per carrier (7.3 kB on AV, 19.6 kB on AV500).
_PATH_LOSS_MEMO_LIMIT = 64


class _Tap(NamedTuple):
    """One reflection point of a direction, as far as it is static."""

    #: Position of the tapping appliance in the load (and its signature).
    index: int
    kind: ApplianceType
    #: Cable metres from the appliance to the receiver.
    rx_distance: float
    #: Reflected-path length: direct path + stub round trip + the fixed
    #: per-appliance electrical-length spread.
    path_length: float


class _DirectionGeometry(NamedTuple):
    """The static multipath geometry of one channel direction."""

    direct_m: float
    junctions: int
    taps: Tuple[_Tap, ...]


@dataclass(frozen=True)
class JitterState:
    """Cycle-scale jitter parameters of a link at a given appliance state."""

    sigma_db: float       # std of the common jitter component (dB)
    hold_time_s: float    # time between jitter re-draws
    impulse_prob: float   # chance a hold interval is an impulsive dip
    impulse_depth_db: float


@dataclass(frozen=True)
class ChannelState:
    """The channel of one direction at one instant, resolved once.

    Everything the PHY/MAC chain reads. It is piecewise constant: every
    instant with the same appliance signature and jitter hold interval
    has the same state. Built per instant by
    :meth:`PlcChannel.state_at` and per (signature, interval) group by
    :meth:`PlcChannel.snr_series_groups`; never mutated.
    """

    #: Appliance on/off signature (:meth:`ElectricalLoad.state_signature`).
    signature: Tuple[bool, ...]
    jitter: JitterState
    #: Jitter hold interval: ``int(t / jitter.hold_time_s)``.
    interval: int
    #: Jitter-free SNR, shape (carriers, slots); shared by every state
    #: with this signature.
    base_snr_db: np.ndarray
    #: ``base_snr_db`` plus the interval's per-slot jitter draw.
    snr_db: np.ndarray
    impulsive_rate_hz: float


def tracked_layout(state: ChannelState, spec: PlcSpec) -> phy.ToneMapSlots:
    """The layout of the tone map a saturated link tracks in ``state``:
    the bit loading of the jitter-free SNR at the standard back-off. It
    depends on the signature alone."""
    return phy.ToneMapSlots(phy.bit_loading(state.base_snr_db, spec))


class PlcChannel:
    """One *direction* of a PLC link (src transmits, dst receives)."""

    def __init__(self, load: ElectricalLoad, src_outlet: str,
                 dst_outlet: str, spec: PlcSpec, streams: RandomStreams,
                 name: Optional[str] = None):
        if src_outlet == dst_outlet:
            raise ValueError("src and dst outlets must differ")
        self.load = load
        self.src_outlet = src_outlet
        self.dst_outlet = dst_outlet
        self.spec = spec
        self.name = name or f"{src_outlet}->{dst_outlet}"
        self._streams = streams
        self._freqs = spec.carrier_frequencies()
        self._alpha = CABLE_A0 + CABLE_A1 * self._freqs ** CABLE_K
        self._noise_shape = np.clip(
            (self._freqs / NOISE_REF_HZ) ** NOISE_SLOPE, 1e-4, 10.0)
        self._bg_mw = dbm_to_mw(BACKGROUND_NOISE_DBM_HZ)
        # Per-direction structural randomness (connector quality, AFE spread):
        # a fixed draw, NOT time-varying — real links keep their personality.
        rng = streams.fresh(f"plc.structure.{self.name}")
        # Most directions draw a small loss; a quarter draw a large one —
        # the coupling/AGC spread behind the severe (>1.5x) asymmetries the
        # paper sees on ~30% of pairs (§5).
        self._direction_loss_db = float(rng.uniform(0.0, 2.0))
        if rng.uniform() < 0.3:
            self._direction_loss_db += float(rng.uniform(1.5, 5.5))
        self._connected = load.grid.connected(src_outlet, dst_outlet)
        # The direction's static geometry, resolved on first use; path
        # losses by tap states; the base SNR and the tracked tone-map
        # layout of the last signature; the jitter of the last (hold
        # interval, jitter state). Forks share the channel across
        # threads, so every memo holds immutable values, written with
        # one assignment (a (key, value) tuple) or one dict insert.
        self._geometry: Optional[_DirectionGeometry] = None
        self._path_losses: Dict[tuple, np.ndarray] = {}
        self._snr_cache: Tuple[Optional[tuple], Optional[np.ndarray]] = (
            None, None)
        self._layout_cache: Tuple[Optional[tuple],
                                  Optional[phy.ToneMapSlots]] = (None, None)
        self._jitter_cache: Tuple[Optional[tuple], Optional[np.ndarray]] = (
            None, None)

    # --- multipath transfer function ------------------------------------------

    def path_loss_db(self, t: float) -> np.ndarray:
        """Per-carrier path loss (positive dB), for the appliance state at t."""
        return self._path_loss_for(self.load.state_signature(t))

    def _path_loss_for(self, signature: tuple) -> np.ndarray:
        """Path loss of a signature, memoized by the direction's tap
        states: the loss reads nothing else of the signature."""
        if not self._connected:
            return np.full(self.spec.num_carriers, 200.0)
        geometry = self._geometry
        if geometry is None:
            geometry = self._resolve_geometry()
        taps = tuple(signature[tap.index] for tap in geometry.taps)
        memo = self._path_losses
        loss = memo.get(taps)
        if loss is None:
            loss = self._compute_path_loss(signature)
            loss.flags.writeable = False
            if len(memo) >= _PATH_LOSS_MEMO_LIMIT:
                memo.clear()
            memo[taps] = loss
        return loss

    def _resolve_geometry(self) -> _DirectionGeometry:
        """Direct distance, junction count and per-tap geometry of this
        direction: everything in the path loss that no appliance state
        changes."""
        grid = self.load.grid
        d_direct = grid.electrical_distance(self.src_outlet, self.dst_outlet)
        path = grid.signal_path(self.src_outlet, self.dst_outlet)
        n_junctions = sum(1 for node in path[1:-1]
                          if grid.degree(node) > 2)
        taps = self.load.tap_geometry(self.src_outlet, self.dst_outlet)
        # A fixed per-appliance electrical-length spread (in-wall routing
        # detail) decorrelates same-room reflections — without it many
        # comparable phasors average into an unrealistically flat channel.
        names = [f"plc.tap-length.{appliance.instance_id}"
                 for _, appliance, _ in taps]
        resolved = []
        for k, rng in self._streams.fresh_batch(names):
            i, appliance, extra = taps[k]
            resolved.append(_Tap(
                index=i, kind=appliance.kind,
                rx_distance=self.load.cable_distance(appliance.outlet_id,
                                                     self.dst_outlet),
                path_length=d_direct + extra + float(rng.uniform(0.0, 6.0))))
        geometry = _DirectionGeometry(d_direct, n_junctions, tuple(resolved))
        self._geometry = geometry
        return geometry

    def _compute_path_loss(self, signature: tuple) -> np.ndarray:
        geometry = self._geometry
        if geometry is None:
            geometry = self._resolve_geometry()
        d_direct = geometry.direct_m
        f = self._freqs
        # Direct path: cable loss, junction splits, tap through-losses.
        through = 10.0 ** (-JUNCTION_LOSS_DB * geometry.junctions / 20.0)
        local_load_rx = 0.0
        for tap in geometry.taps:
            powered_on = signature[tap.index]
            gamma = tap.kind.reflection_coefficient(powered_on)
            drain = 0.45 if powered_on else 0.1
            through *= np.sqrt(max(1e-6, 1.0 - drain * gamma ** 2))
            if tap.rx_distance <= LOCAL_LOAD_RADIUS_M and powered_on:
                local_load_rx += gamma
        h = through * np.exp(-self._alpha * d_direct) * np.exp(
            -2j * np.pi * f * d_direct / PROPAGATION_SPEED)
        # Reflected paths: one per tap, longer by the round trip on the stub
        # plus the tap's fixed spread.
        for tap in geometry.taps:
            gamma = tap.kind.reflection_coefficient(signature[tap.index])
            if gamma < 1e-3:
                continue
            amp = 0.85 * gamma * through * np.exp(
                -self._alpha * tap.path_length)
            h += amp * np.exp(
                -2j * np.pi * f * tap.path_length / PROPAGATION_SPEED)
        power = np.abs(h) ** 2
        loss_db = -10.0 * np.log10(np.maximum(power, 1e-20))
        # Coupler losses + receiver-side loading (asymmetry mechanism #2) +
        # the fixed per-direction AFE spread. The local-load term shrinks
        # with frequency: bulk appliance impedances look increasingly
        # inductive/open above ~30 MHz, so the AV500 band extension partly
        # escapes it (one reason AV500 revives AV-dead links, Fig. 7).
        loss_db += 2 * COUPLING_LOSS_DB + self._direction_loss_db
        local_shape = np.clip((f / 8.0e6) ** -0.6, 0.3, 2.5)
        loss_db += 6.0 * min(local_load_rx, 2.5) * local_shape
        return loss_db

    # --- noise ------------------------------------------------------------------

    def noise_psd_dbm_hz(self, t: float) -> np.ndarray:
        """Noise PSD at the receiver, shape (num_carriers, num_slots)."""
        return self._noise_grid(self.load.noise_psd_at(self.dst_outlet, t))

    def _noise_grid(self, per_slot_total_db: np.ndarray) -> np.ndarray:
        total_mw = 10.0 ** (per_slot_total_db / 10.0)
        appliance_mw = np.maximum(total_mw - self._bg_mw, 0.0)
        # Outer product: spectral shape (carriers) x slot level (slots).
        grid_mw = (self._noise_shape[:, None] * appliance_mw[None, :]
                   + self._bg_mw)
        return 10.0 * np.log10(grid_mw)

    # --- cycle-scale jitter -------------------------------------------------------

    @staticmethod
    def _noise_dominance(per_slot_total_db: np.ndarray) -> float:
        return float(np.mean(per_slot_total_db) - BACKGROUND_NOISE_DBM_HZ)

    def _jitter_state(self, signature: tuple,
                      impulsive_rate_hz: float) -> JitterState:
        rho = self._noise_dominance(
            self.load.noise_psd_for(self.dst_outlet, signature))
        sigma = float(np.clip(0.04 * np.exp(rho / 7.0), 0.04, 4.0))
        hold = float(np.clip(30.0 * np.exp(-rho / 4.0), 0.08, 20.0))
        impulse_prob = 0.02 + 0.002 * rho
        impulse_prob = min(0.35, impulse_prob + 0.1 * impulsive_rate_hz)
        return JitterState(sigma_db=float(sigma), hold_time_s=hold,
                           impulse_prob=float(impulse_prob),
                           impulse_depth_db=2.5)

    def _draw_jitter(self, rng: np.random.Generator,
                     state: JitterState) -> np.ndarray:
        """One hold interval's jitter draws from its (re)played stream."""
        common = state.sigma_db * rng.standard_normal()
        per_slot = 0.3 * state.sigma_db * rng.standard_normal(
            self.spec.num_slots)
        jitter = common + per_slot
        if rng.uniform() < state.impulse_prob:
            jitter -= state.impulse_depth_db * rng.uniform(0.5, 1.0)
        return jitter

    def _jitter_for(self, interval: int, state: JitterState) -> np.ndarray:
        """Per-slot jitter (dB) of one hold interval (memoized).

        A common component re-drawn every hold interval plus a smaller
        independent per-slot component. Deterministic given (link,
        interval).
        """
        cache_key = (interval, state)
        key, cached = self._jitter_cache
        if key == cache_key:
            return cached
        rng = self._streams.fresh(f"plc.jitter.{self.name}.{interval}")
        jitter = self._draw_jitter(rng, state)
        self._jitter_cache = (cache_key, jitter)
        return jitter

    # --- channel state -------------------------------------------------------------

    def state_at(self, t: float) -> ChannelState:
        """The channel at ``t``: one appliance-signature evaluation, then
        the base-SNR and jitter memos."""
        signature = self.load.state_signature(t)
        rate = self.load.impulsive_event_rate_for(self.dst_outlet, signature)
        jitter = self._jitter_state(signature, rate)
        interval = int(t / jitter.hold_time_s)
        base = self._base_snr_for(signature)
        return ChannelState(
            signature=signature, jitter=jitter, interval=interval,
            base_snr_db=base,
            snr_db=base + self._jitter_for(interval, jitter)[None, :],
            impulsive_rate_hz=rate)

    def snr_db(self, t: float, include_jitter: bool = True) -> np.ndarray:
        """True per-carrier, per-slot SNR (dB); shape (carriers, slots).

        The ``snr_db`` of :meth:`state_at`; without jitter its
        ``base_snr_db``, read from the memo alone (the jitter state and
        draw would be discarded).
        """
        if not include_jitter:
            return self._base_snr_for(self.load.state_signature(t))
        return self.state_at(t).snr_db

    def _base_snr_for(self, signature: tuple) -> np.ndarray:
        """Jitter-free SNR grid for an appliance signature (memoized; the
        array is replaced on state change, never mutated)."""
        key, cached = self._snr_cache
        if key == signature and cached is not None:
            return cached
        loss = self._path_loss_for(signature)
        noise = self._noise_grid(self.load.noise_psd_for(self.dst_outlet,
                                                         signature))
        base = (self.spec.tx_psd_dbm_hz - loss)[:, None] - noise
        self._snr_cache = (signature, base)
        return base

    def tracked_layout(self, state: ChannelState) -> phy.ToneMapSlots:
        """:func:`tracked_layout` of ``state``, memoized for the scalar
        path as one ``(signature, layout)`` tuple.

        The batch path lays its groups out per call instead, so a
        direction sampled once keeps no layout (one is up to ~50 kB).
        """
        key, cached = self._layout_cache
        if key == state.signature and cached is not None:
            return cached
        layout = tracked_layout(state, self.spec)
        self._layout_cache = (state.signature, layout)
        return layout

    def mean_snr_db(self, t: float) -> float:
        """Carrier/slot-average SNR (quick quality scalar)."""
        return float(np.mean(self.snr_db(t, include_jitter=False)))

    def snr_series_groups(self, ts: np.ndarray
                          ) -> "list[tuple[np.ndarray, ChannelState]]":
        """Group a time grid by channel state: one :class:`ChannelState`
        per group.

        The channel is piecewise constant on two timescales: the appliance
        on/off signature (base SNR, jitter parameters, impulsive rate) and
        the jitter hold interval (the jitter draw). The grid's signatures
        come from one :meth:`ElectricalLoad.state_matrix` call, and each
        distinct one is resolved once. Every timestamp within one
        (signature, interval) pair has the same state, so the batch
        sampling path evaluates each group once and fans the results back
        out. Returns ``(indices, state)`` pairs in first-appearance order;
        the ``indices`` partition ``range(len(ts))``, and the states of
        one signature share its ``base_snr_db`` array.
        """
        ts = np.asarray(ts, dtype=float)
        sig_ids: Dict[bytes, int] = {}
        signatures: list = []
        bases: list = []
        jitters: list = []
        rates: list = []
        sig_of = np.empty(len(ts), dtype=np.intp)
        for i, row in enumerate(self.load.state_matrix(ts)):
            row_key = row.tobytes()
            sid = sig_ids.get(row_key)
            if sid is None:
                sid = len(signatures)
                sig_ids[row_key] = sid
                signature = tuple(row.tolist())
                rate = self.load.impulsive_event_rate_for(self.dst_outlet,
                                                          signature)
                signatures.append(signature)
                # The memoized grid is replaced, never mutated, on state
                # change, so holding references across groups is safe.
                bases.append(self._base_snr_for(signature))
                jitters.append(self._jitter_state(signature, rate))
                rates.append(rate)
            sig_of[i] = sid
        holds = np.array([jitter.hold_time_s for jitter in jitters])
        # int(t / hold) per timestamp: float64 division, truncated.
        intervals = (ts / holds[sig_of]).astype(np.int64)
        group_ids: Dict[Tuple[int, int], int] = {}
        group_keys: list = []
        members: list = []
        for i, key in enumerate(zip(sig_of.tolist(), intervals.tolist())):
            gid = group_ids.get(key)
            if gid is None:
                gid = len(group_keys)
                group_ids[key] = gid
                group_keys.append(key)
                members.append([])
            members[gid].append(i)
        names = [f"plc.jitter.{self.name}.{jdx}" for _, jdx in group_keys]
        groups: list = []
        for g, rng in self._streams.fresh_batch(names):
            sid, interval = group_keys[g]
            jitter = self._draw_jitter(rng, jitters[sid])
            groups.append((np.asarray(members[g], dtype=np.intp),
                           ChannelState(
                               signature=signatures[sid],
                               jitter=jitters[sid], interval=interval,
                               base_snr_db=bases[sid],
                               snr_db=bases[sid] + jitter[None, :],
                               impulsive_rate_hz=rates[sid])))
        return groups

    def is_usable(self, t: float, min_mean_snr_db: float = -2.0) -> bool:
        """Whether the link supports any connectivity at all."""
        if not self._connected:
            return False
        return self.mean_snr_db(t) > min_mean_snr_db
