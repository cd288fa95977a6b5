"""HPAV PHY: per-carrier bit loading, BLE (Definition 1), PB error model.

The paper's two PLC link metrics are defined here:

* **BLE** — bit loading estimate, Definition 1 of the paper:
  ``BLE = B * R * (1 - PBerr) / Tsym`` with ``B`` the sum of bits per symbol
  over all carriers, ``R`` the FEC rate, ``PBerr`` the PB error rate assumed
  when the tone map was generated, and ``Tsym`` the OFDM symbol length
  including the guard interval;
* **PBerr** — the physical-block error probability, which drives selective
  retransmissions (§2.2) and the U-ETX metric (§8.1).

Bit loading picks, per carrier and per tone-map slot, the densest modulation
whose SNR threshold is met with a safety back-off. The back-off encodes the
tone-map generation target: more back-off → lower BLE but lower PBerr.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.plc.spec import (
    MODULATION_BITS,
    MODULATION_SNR_THRESHOLDS_DB,
    PlcSpec,
)

_BITS = np.asarray(MODULATION_BITS, dtype=np.int64)
_THRESHOLDS = np.asarray(MODULATION_SNR_THRESHOLDS_DB, dtype=float)
#: Modulation threshold indexed by bits per carrier: the
#: ``_THRESHOLDS[searchsorted(_BITS, bits)]`` lookup, tabulated for every
#: value up to the densest modulation.
_THRESHOLD_BY_BITS = _THRESHOLDS[
    np.searchsorted(_BITS, np.arange(_BITS[-1] + 1))]

#: Default SNR back-off applied when generating a tone map: headroom for the
#: cycle-scale jitter so the realised PBerr stays near the target.
DEFAULT_BACKOFF_DB = 1.5

#: Logistic steepness of the PB error vs margin-deficit curve (dB⁻¹).
_PBERR_STEEPNESS = 1.1


def select_bits(snr_db: np.ndarray, backoff_db: float = DEFAULT_BACKOFF_DB
                ) -> np.ndarray:
    """Densest modulation per carrier given SNR (vectorised, any shape).

    Returns an integer array (same shape) of bits per carrier per symbol.
    """
    snr = np.asarray(snr_db, dtype=float) - backoff_db
    # Index of the largest threshold <= snr in the ascending table: how
    # many thresholds past its leading -inf snr reaches. NaN sorts above
    # every threshold, as in a sorted search.
    idx = np.zeros(snr.shape, dtype=np.uint8)
    for threshold in _THRESHOLDS[1:]:
        idx += snr >= threshold
    idx[np.isnan(snr)] = len(_BITS) - 1
    return _BITS[idx]


def _slot_totals(grid: np.ndarray) -> np.ndarray:
    """Per-slot sums of an integer or bool (carriers, slots) grid.

    A matrix product is exact on integers and ~3x faster than
    ``grid.sum(axis=0)`` on a grid this narrow.
    """
    return np.ones(grid.shape[0], dtype=np.int64) @ grid


def bit_loading(snr_db: np.ndarray, spec: PlcSpec,
                backoff_db: float = DEFAULT_BACKOFF_DB) -> np.ndarray:
    """Bits per carrier a tone map loads: :func:`select_bits` capped at the
    spec's densest modulation."""
    return np.minimum(select_bits(snr_db, backoff_db),
                      spec.max_modulation_bits)


def modulation_margin_db(snr_db: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Per-carrier SNR margin above the chosen modulation's threshold (dB)."""
    return (np.asarray(snr_db, dtype=float)
            - _THRESHOLD_BY_BITS[np.asarray(bits)])


def pb_error_per_slot(snr_db: np.ndarray, bits: np.ndarray,
                      impulsive_rate_hz: float = 0.0,
                      floor: float = 5e-4) -> np.ndarray:
    """PB error probability of every slot of a (carriers, slots) grid.

    A physical block spans many carriers; the turbo code fails when the
    aggregate margin deficit is too large. We model the PB error rate as a
    logistic in the *loaded-carrier mean margin*, plus an impulsive-noise
    term: each impulse (duration ~100 µs) corrupts in-flight PBs regardless of
    margin. A slot with no loaded carrier carries nothing: its PBerr is 1.

    The curve is calibrated so a tone map built with the default back-off in a
    stationary channel lands near the HPAV target (~2 %), while a 3 dB
    adverse swing drives PBerr towards tens of percent — matching the
    spread of Fig. 7 (right).

    All slots are evaluated in one pass, except each slot's mean margin:
    that stays a reduction over the slot's compacted loaded carriers, the
    exact sum a one-slot evaluation computes (a masked or segmented
    reduction would reorder numpy's pairwise sum).
    """
    return ToneMapSlots(bits).pb_error_per_slot(snr_db, impulsive_rate_hz,
                                                floor)


class ToneMapSlots:
    """A tone map's bits, laid out for :func:`pb_error_per_slot`.

    Which carriers are loaded, in which slot, and against which
    modulation threshold depends on the bits alone; only the margins
    depend on the SNR. A tone map judged against many SNR grids (one per
    jitter interval) keeps its layout, so each evaluation only gathers
    the loaded carriers' SNR.
    """

    __slots__ = ("_loaded_t", "_counts", "_thresholds")

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits)
        loaded = bits > 0
        self._counts = _slot_totals(loaded)
        # Slot-major: each slot's loaded carriers, in carrier order.
        self._loaded_t = loaded.T
        self._thresholds = _THRESHOLD_BY_BITS[bits.T[self._loaded_t]]

    def pb_error_per_slot(self, snr_db: np.ndarray,
                          impulsive_rate_hz: float = 0.0,
                          floor: float = 5e-4) -> np.ndarray:
        """:func:`pb_error_per_slot` of ``snr_db`` under these bits."""
        counts = self._counts
        # Each slot's loaded margins (:func:`modulation_margin_db`),
        # compacted slot-major.
        compact = (np.asarray(snr_db, dtype=float).T[self._loaded_t]
                   - self._thresholds)
        sums = np.zeros(len(counts))
        start = 0
        for s, end in enumerate(np.cumsum(counts).tolist()):
            if end > start:
                sums[s] = np.add.reduce(compact[start:end])
            start = end
        mean_margin = sums / np.maximum(counts, 1)
        # Logistic centred so margin == backoff target gives ~the HPAV
        # target.
        p_noise = 1.0 / (1.0 + np.exp(_PBERR_STEEPNESS * (mean_margin + 2.0)))
        # Impulses: ~120 µs impulses hit a 46.52 µs symbol stream; a PB
        # spans a couple of symbols at typical loadings.
        p_impulse = 1.0 - np.exp(-impulsive_rate_hz * 250e-6)
        p = p_noise + p_impulse - p_noise * p_impulse
        p = np.minimum(np.maximum(p, floor), 0.95)
        p[counts == 0] = 1.0
        return p


def pb_error_probability(snr_db: np.ndarray, bits: np.ndarray,
                         impulsive_rate_hz: float = 0.0,
                         floor: float = 5e-4) -> float:
    """PB error probability for a symbol using modulation ``bits`` at
    ``snr``: :func:`pb_error_per_slot` of a one-slot grid."""
    column = np.asarray(snr_db, dtype=float).reshape(-1, 1)
    return float(pb_error_per_slot(
        column, np.asarray(bits).reshape(-1, 1), impulsive_rate_hz,
        floor)[0])


def ble_bps(total_bits_per_symbol: "float | np.ndarray", fec_rate: float,
            pb_err: "float | np.ndarray",
            symbol_duration_s: float) -> "float | np.ndarray":
    """Definition 1: BLE in bits/s.

    Scalar, or elementwise over per-slot arrays of bits and PBerr.
    """
    if symbol_duration_s <= 0:
        raise ValueError("symbol duration must be positive")
    pb = np.asarray(pb_err)
    if not np.all((0.0 <= pb) & (pb <= 1.0)):
        raise ValueError(f"pb_err must be a probability, got {pb_err}")
    return total_bits_per_symbol * fec_rate * (1.0 - pb_err) / symbol_duration_s


def ble_from_snr(snr_db: np.ndarray, spec: PlcSpec,
                 backoff_db: float = DEFAULT_BACKOFF_DB,
                 pb_err: Optional[float] = None,
                 impulsive_rate_hz: float = 0.0) -> np.ndarray:
    """Per-slot BLE (bits/s) from an SNR grid of shape (carriers, slots).

    When ``pb_err`` is None, each slot's PBerr is evaluated from its own
    margins (the value a fresh tone map would embed).
    """
    snr = np.atleast_2d(np.asarray(snr_db, dtype=float))
    if snr.shape[0] != spec.num_carriers:
        raise ValueError(
            f"snr grid has {snr.shape[0]} carriers, spec says "
            f"{spec.num_carriers}")
    bits = bit_loading(snr, spec, backoff_db)
    if pb_err is None:
        pb_err = pb_error_per_slot(snr, bits, impulsive_rate_hz)
    return ble_bps(_slot_totals(bits).astype(float), spec.fec_rate, pb_err,
                   spec.symbol_duration_s)


def robo_loss_probability(snr_db: np.ndarray, spec: PlcSpec) -> float:
    """Frame loss probability for ROBO (broadcast) transmissions (§8.1).

    ROBO uses QPSK with heavy repetition on all carriers; it fails only when
    even the boosted SNR cannot sustain QPSK. Most links therefore see
    ~1e-4 losses regardless of their data-rate quality — which is exactly why
    the paper finds broadcast-probe ETX uninformative.
    """
    snr = np.asarray(snr_db, dtype=float)
    boosted = float(np.mean(snr)) + spec.robo_snr_gain_db
    qpsk_threshold = MODULATION_SNR_THRESHOLDS_DB[2]
    deficit = qpsk_threshold - boosted
    p = 1.0 / (1.0 + np.exp(-0.9 * deficit))
    # Residual floor: collisions with uncoordinated impulses.
    return float(np.clip(p + 1e-4, 1e-4, 1.0))
