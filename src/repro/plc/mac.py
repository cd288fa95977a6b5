"""IEEE 1901 MAC: PB segmentation, aggregation, SACK, efficiency model.

§2.2 of the paper: Ethernet packets are chopped into 512-byte physical blocks
(PBs), PBs are aggregated into PLC frames sized by the current slot's BLE (up
to the 1901 frame-duration limit), the receiver SACKs each PB individually and
only corrupted PBs are retransmitted. The paper's key observation — "the MAC
and PHY layers can be modeled using only two metrics: PBerr and BLE_s" — is
exactly what this module implements.

:class:`SaturatedThroughputModel` is the analytic single-flow efficiency
chain. Its components are the documented 1901/HPAV overheads; one explicit
calibration constant absorbs firmware duty cycles the paper only observes
end-to-end, landing the model on the paper's measured fit
``BLE = 1.7 T − 0.65`` (§7.1, Fig. 15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.plc.spec import PlcSpec
from repro.units import US


@dataclass(frozen=True)
class MacTimings:
    """IEEE 1901 CSMA timing constants (µs values from the standard)."""

    slot_s: float = 35.84 * US
    prs_s: float = 2 * 35.84 * US          # two priority-resolution slots
    preamble_fc_s: float = 110.48 * US     # preamble + frame control
    sack_s: float = 110.48 * US            # SACK delimiter
    rifs_s: float = 140.0 * US             # response interframe space
    cifs_s: float = 100.0 * US             # contention interframe space

    def exchange_overhead_s(self, avg_backoff_slots: float) -> float:
        """Per-frame overhead around the payload burst."""
        return (self.prs_s + avg_backoff_slots * self.slot_s
                + self.preamble_fc_s + self.rifs_s + self.sack_s
                + self.cifs_s)


#: Contention windows per backoff stage for CA0/CA1 priorities (ref [19]).
CSMA_CW = (8, 16, 32, 64)
#: Deferral counter initial values per stage (ref [19]): the 1901 twist —
#: stations also back off after *sensing* the medium busy DC+1 times.
CSMA_DC = (0, 1, 3, 15)

DEFAULT_TIMINGS = MacTimings()

#: Ethernet + IP + UDP header overhead as seen by iperf: 1470 B of
#: application payload ride in a 1528 B wire frame (preamble+IFG included).
APP_PAYLOAD_FACTOR = 1470.0 / 1528.0

#: Share of the 40 ms beacon period available to the CSMA region; the rest
#: carries the CCo beacon and protected management traffic.
CSMA_REGION_FACTOR = 0.92

#: Firmware duty-cycle calibration: sounding, tone-map MM exchanges, queue
#: stalls — everything the paper's end-to-end fit absorbs beyond the
#: documented frame-exchange overheads. Chosen so the full chain lands on the
#: paper's measured slope: airtime(0.792) × PB(0.985) × app(0.962) ×
#: beacon(0.92) × this ≈ 1/1.7.
FIRMWARE_EFFICIENCY = 0.853

#: Fixed management-traffic cost (bps). The paper's fit BLE = 1.7 T − 0.65
#: has an essentially-zero intercept at the throughput scale (≈ 0.4 Mbps);
#: we keep the hook but set it to zero.
MANAGEMENT_FLOOR_BPS = 0.0


def pbs_for_payload(payload_bytes: int, spec: PlcSpec) -> int:
    """Number of PBs an Ethernet payload occupies (1500 B → 3 PBs)."""
    if payload_bytes <= 0:
        raise ValueError("payload must be positive")
    return max(1, math.ceil(payload_bytes / spec.pb_payload_bytes))


def raw_bits_per_symbol(ble_bps: float, pb_err: float, spec: PlcSpec) -> float:
    """Invert Definition 1: FEC-coded payload bits carried per OFDM symbol."""
    return ble_bps * spec.symbol_duration_s / max(1.0 - pb_err, 1e-6)


def frame_duration_s(n_pbs: int, ble_bps: float, pb_err: float,
                     spec: PlcSpec,
                     timings: MacTimings = DEFAULT_TIMINGS) -> float:
    """On-air duration of a frame carrying ``n_pbs`` physical blocks.

    Whole symbols only — padding fills the last one (§2.2 footnote). Probe
    frames of ≤ 1 PB therefore always occupy at least one full symbol, the
    root cause of §7.2's estimation pathology.
    """
    if n_pbs < 1:
        raise ValueError("a frame carries at least one PB")
    bits = n_pbs * spec.pb_total_bytes * 8
    per_symbol = max(raw_bits_per_symbol(ble_bps, pb_err, spec), 1.0)
    n_symbols = max(1, math.ceil(bits / per_symbol))
    duration = timings.preamble_fc_s + n_symbols * spec.symbol_duration_s
    return min(duration,
               timings.preamble_fc_s + spec.max_frame_duration_s)


class SaturatedThroughputModel:
    """Analytic UDP throughput of one saturated flow (no contention)."""

    def __init__(self, spec: PlcSpec,
                 timings: MacTimings = DEFAULT_TIMINGS):
        self.spec = spec
        self.timings = timings

    def efficiency(self, pb_err: float = 0.0,
                   avg_backoff_slots: float = 3.5) -> float:
        """End-to-end (application payload) / BLE ratio, ≈ 1/1.7."""
        spec = self.spec
        frame_s = spec.max_frame_duration_s
        cycle_s = frame_s + self.timings.exchange_overhead_s(
            avg_backoff_slots)
        airtime = frame_s / cycle_s
        pb_payload = spec.pb_payload_bytes / spec.pb_total_bytes
        return (airtime * pb_payload * APP_PAYLOAD_FACTOR
                * CSMA_REGION_FACTOR * FIRMWARE_EFFICIENCY)

    def throughput_bps(self, avg_ble_bps: float, pb_err: float = 0.0) -> float:
        """Application-level UDP throughput for a given average BLE.

        ``pb_err`` here is *residual* error beyond what the tone map already
        embeds in BLE (Definition 1 multiplies by (1 − PBerr) at generation);
        a drifted channel adds losses on top.
        """
        if avg_ble_bps <= 0:
            return 0.0
        t = (self.efficiency() * avg_ble_bps * (1.0 - pb_err)
             - MANAGEMENT_FLOOR_BPS)
        return max(t, 0.0)


# --- selective-ACK retransmission -------------------------------------------


@dataclass(frozen=True)
class DeliveryResult:
    """Outcome of delivering one Ethernet packet over the PB/SACK machinery.

    ``transmissions`` is the number of PLC frames it took until every PB of
    the packet was received — the per-packet sample of U-ETX (§8.1).
    """

    n_pbs: int
    transmissions: int
    pb_sends: int  # total PB copies sent, incl. retransmissions


def deliver_packet(n_pbs: int, pb_err: float, rng: np.random.Generator,
                   max_attempts: int = 50) -> DeliveryResult:
    """Simulate SACK-driven selective retransmission of one packet.

    Each attempt sends the not-yet-delivered PBs; each PB fails i.i.d. with
    ``pb_err``. Only failed PBs are retransmitted (SACK, §2.2).
    """
    if not 0.0 <= pb_err < 1.0:
        raise ValueError(f"pb_err must be in [0, 1), got {pb_err}")
    remaining = n_pbs
    attempts = 0
    pb_sends = 0
    while remaining > 0:
        attempts += 1
        pb_sends += remaining
        if attempts >= max_attempts:
            break
        failures = int(rng.binomial(remaining, pb_err))
        remaining = failures
    return DeliveryResult(n_pbs=n_pbs, transmissions=attempts,
                          pb_sends=pb_sends)


def expected_transmissions(n_pbs: int, pb_err: float,
                           max_terms: int = 200) -> float:
    """Analytic E[transmissions] for a packet of ``n_pbs`` PBs.

    The packet needs max over PBs of each PB's geometric attempt count:
    ``E[max] = Σ_{k≥1} (1 − (1 − p^{k−1})^n)``.
    """
    if pb_err <= 0:
        return 1.0
    if pb_err >= 1:
        return float("inf")
    total = 0.0
    for k in range(1, max_terms + 1):
        term = 1.0 - (1.0 - pb_err ** (k - 1)) ** n_pbs
        total += term
        if term < 1e-12:
            break
    return total


def transmission_count_std(n_pbs: int, pb_err: float,
                           max_terms: int = 200) -> float:
    """Analytic std of the transmission count (error bars of Fig. 22)."""
    if pb_err <= 0:
        return 0.0
    mean = expected_transmissions(n_pbs, pb_err, max_terms)
    # E[X^2] via E[X^2] = Σ (2k−1) P(X ≥ k).
    second = 0.0
    for k in range(1, max_terms + 1):
        p_ge_k = 1.0 - (1.0 - pb_err ** (k - 1)) ** n_pbs
        second += (2 * k - 1) * p_ge_k
        if p_ge_k < 1e-12:
            break
    var = max(second - mean ** 2, 0.0)
    return math.sqrt(var)
