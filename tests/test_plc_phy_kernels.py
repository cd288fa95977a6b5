"""The slot-vectorized PHY kernels against the per-slot loops they replaced.

``phy.pb_error_per_slot`` evaluates every tone-map slot of a
(carriers, slots) grid in one pass; ``ble_from_snr``, the link's realised
PBerr, ``generate_tone_map`` and ``ToneMapProcess.realized_pb_error``
all go through it. It lays the bits out as a ``phy.ToneMapSlots``,
which the link keeps per tone map to judge it against many grids. The
references below are the per-slot code those four call sites ran before
(one ``pb_error_probability`` per slot, margins by sorted search), and
every result must match them exactly, not approximately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.plc import phy
from repro.plc.spec import (
    GREENPHY,
    HPAV,
    HPAV500,
    MODULATION_BITS,
    MODULATION_SNR_THRESHOLDS_DB,
)
from repro.plc.tonemap import ToneMapProcess, generate_tone_map

SPECS = [HPAV, HPAV500, GREENPHY]
RATES = [0.0, 0.05, 0.3, 2.5, 50.0]

_BITS = np.asarray(MODULATION_BITS, dtype=np.int64)
_THRESHOLDS = np.asarray(MODULATION_SNR_THRESHOLDS_DB, dtype=float)


# --- the references: per-slot evaluation -------------------------------------------


def ref_select_bits(snr_db, backoff_db=phy.DEFAULT_BACKOFF_DB):
    snr = np.asarray(snr_db, dtype=float) - backoff_db
    idx = np.searchsorted(_THRESHOLDS, snr, side="right") - 1
    return _BITS[np.clip(idx, 0, len(_BITS) - 1)]


def ref_bits(snr_db, spec, backoff_db=phy.DEFAULT_BACKOFF_DB):
    return np.minimum(ref_select_bits(snr_db, backoff_db),
                      spec.max_modulation_bits)


def ref_margin_db(snr_db, bits):
    return (np.asarray(snr_db, dtype=float)
            - _THRESHOLDS[np.searchsorted(_BITS, np.asarray(bits))])


def ref_pb_error_probability(snr_db, bits, impulsive_rate_hz=0.0,
                             floor=5e-4):
    snr = np.asarray(snr_db, dtype=float)
    bits = np.asarray(bits)
    loaded = bits > 0
    if not np.any(loaded):
        return 1.0
    mean_margin = float(np.mean(ref_margin_db(snr, bits)[loaded]))
    p_noise = 1.0 / (1.0 + np.exp(1.1 * (mean_margin + 2.0)))
    p_impulse = 1.0 - np.exp(-impulsive_rate_hz * 250e-6)
    p = p_noise + p_impulse - p_noise * p_impulse
    return float(np.clip(p, floor, 0.95))


def ref_per_slot(snr, bits, rate):
    return [ref_pb_error_probability(snr[:, s], bits[:, s], rate)
            for s in range(snr.shape[1])]


def ref_ble_bps(total, fec_rate, pb_err, symbol_duration_s):
    if not 0.0 <= pb_err <= 1.0:
        raise ValueError(pb_err)
    return total * fec_rate * (1.0 - pb_err) / symbol_duration_s


def ref_ble_from_snr(snr, spec, backoff_db=phy.DEFAULT_BACKOFF_DB,
                     pb_err=None, impulsive_rate_hz=0.0):
    bits = ref_bits(snr, spec, backoff_db)
    out = np.empty(snr.shape[1])
    for s in range(snr.shape[1]):
        p = pb_err if pb_err is not None else ref_pb_error_probability(
            snr[:, s], bits[:, s], impulsive_rate_hz)
        out[s] = ref_ble_bps(float(bits[:, s].sum()), spec.fec_rate, p,
                             spec.symbol_duration_s)
    return out


def ref_realized_pb_err(base, snr, rate, spec):
    return float(np.mean(ref_per_slot(snr, ref_bits(base, spec), rate)))


# --- grids ---------------------------------------------------------------------------


def random_grids(spec, seed, n=40):
    """(snr, bits, rate) triples: tone maps from a smoothed grid judged
    against a jittered one, a grid judged against its own bits, and the
    corner cases (an unloaded slot, every slot unloaded, all at max)."""
    rng = np.random.default_rng(seed)
    shape = (spec.num_carriers, spec.num_slots)
    for k in range(n):
        base = rng.normal(rng.uniform(0, 25), rng.uniform(2, 15), shape)
        snr = base + rng.normal(0, rng.uniform(0.05, 4.0), spec.num_slots)
        rate = RATES[k % len(RATES)]
        yield snr, ref_bits(base, spec), rate
        yield snr, ref_bits(snr, spec), rate
    bits = ref_bits(base, spec)
    bits[:, 2] = 0
    yield snr, bits, 0.3
    yield snr, np.zeros(shape, dtype=np.int64), 0.0
    yield np.full(shape, 60.0), ref_bits(np.full(shape, 60.0), spec), 0.0


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_pb_error_per_slot_equals_per_slot_loop(spec):
    for snr, bits, rate in random_grids(spec, seed=len(spec.name)):
        got = phy.pb_error_per_slot(snr, bits, rate)
        assert got.tolist() == ref_per_slot(snr, bits, rate)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_tone_map_slots_equal_per_slot_loop(spec):
    """One tone map laid out once and judged against many grids gives the
    per-slot loop's values, whatever the grid's memory order."""
    grids = list(random_grids(spec, seed=5 + len(spec.name)))
    for _, bits, _ in grids[::8]:
        tone_map = phy.ToneMapSlots(bits)
        for snr, _, rate in grids[::5]:
            expected = ref_per_slot(snr, bits, rate)
            assert tone_map.pb_error_per_slot(snr, rate).tolist() == expected
            assert tone_map.pb_error_per_slot(
                np.asfortranarray(snr), rate).tolist() == expected


def test_slot_with_no_loaded_carrier_is_one():
    snr = np.full((HPAV.num_carriers, 6), 20.0)
    bits = ref_bits(snr, HPAV)
    bits[:, [1, 4]] = 0
    p = phy.pb_error_per_slot(snr, bits, 0.3)
    assert p[1] == 1.0 and p[4] == 1.0
    assert np.all(p[[0, 2, 3, 5]] < 0.95)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_one_slot_view_equals_reference(spec):
    for snr, bits, rate in random_grids(spec, seed=3, n=5):
        for s in range(spec.num_slots):
            assert phy.pb_error_probability(
                snr[:, s], bits[:, s], rate) == ref_pb_error_probability(
                    snr[:, s], bits[:, s], rate)


def test_select_bits_equals_sorted_search():
    rng = np.random.default_rng(11)
    edges = np.concatenate([_THRESHOLDS[1:] + b for b in (0.0, 1.5)])
    specials = np.concatenate([
        edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
        [np.nan, np.inf, -np.inf, 0.0, -0.0]])
    for snr in (rng.normal(15, 15, (917, 6)), specials, np.float64(7.4)):
        for backoff in (0.0, 1.5, 3.0):
            np.testing.assert_array_equal(phy.select_bits(snr, backoff),
                                          ref_select_bits(snr, backoff))


def test_margin_table_equals_sorted_search():
    bits = np.arange(_BITS[-1] + 1)
    snr = np.random.default_rng(2).normal(10, 10, bits.shape)
    np.testing.assert_array_equal(phy.modulation_margin_db(snr, bits),
                                  ref_margin_db(snr, bits))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_ble_from_snr_equals_per_slot_loop(spec):
    for snr, _, rate in random_grids(spec, seed=17, n=10):
        for backoff in (0.0, phy.DEFAULT_BACKOFF_DB):
            assert phy.ble_from_snr(
                snr, spec, backoff, impulsive_rate_hz=rate).tolist() == \
                ref_ble_from_snr(snr, spec, backoff,
                                 impulsive_rate_hz=rate).tolist()
        for pb_err in (0.0, 0.02, 1.0):
            assert phy.ble_from_snr(snr, spec, pb_err=pb_err).tolist() == \
                ref_ble_from_snr(snr, spec, pb_err=pb_err).tolist()


@pytest.mark.parametrize("pb_err", [1.5, -0.1, float("nan")])
def test_ble_from_snr_keeps_definition_1_input_check(pb_err):
    snr = np.full((HPAV.num_carriers, 6), 20.0)
    with pytest.raises(ValueError):
        phy.ble_from_snr(snr, HPAV, pb_err=pb_err)


def test_ble_bps_is_elementwise_definition_1():
    totals = np.array([0.0, 917.0, 4000.0, 9170.0])
    pb = np.array([0.0, 0.02, 0.5, 1.0])
    got = phy.ble_bps(totals, HPAV.fec_rate, pb, HPAV.symbol_duration_s)
    assert got.tolist() == [
        ref_ble_bps(b, HPAV.fec_rate, p, HPAV.symbol_duration_s)
        for b, p in zip(totals, pb)]
    with pytest.raises(ValueError):
        phy.ble_bps(totals, HPAV.fec_rate, pb + 0.5,
                    HPAV.symbol_duration_s)


# --- the four former call sites, on real channels -----------------------------------


@pytest.fixture(scope="module")
def links(testbed):
    pairs = testbed.same_board_pairs()
    return [testbed.plc_link(i, j) for i, j in pairs[::23]]


def test_link_pb_err_and_ble_equal_reference(links, t_work, t_night):
    for link in links:
        ch = link.channel
        for t in (t_work, t_night + 3.3):
            rate = ch.load.impulsive_event_rate_at(ch.dst_outlet, t)
            base = ch.snr_db(t, include_jitter=False)
            snr = ch.snr_db(t)
            assert link.pb_err(t) == ref_realized_pb_err(base, snr, rate,
                                                         link.spec)
            assert link.ble_per_slot_bps(t).tolist() == ref_ble_from_snr(
                snr, link.spec, impulsive_rate_hz=rate).tolist()


def test_sample_series_pb_err_equals_reference(links, t_work):
    ts = t_work + np.arange(0.0, 30.0, 0.1)
    for link in links:
        ch = link.channel
        series = link.sample_series(ts, measured=False)
        expected = []
        for t in ts.tolist():
            rate = ch.load.impulsive_event_rate_at(ch.dst_outlet, t)
            expected.append(ref_realized_pb_err(
                ch.snr_db(t, include_jitter=False), ch.snr_db(t), rate,
                link.spec))
        assert series.data["pb_err"].tolist() == expected


def test_tone_maps_equal_reference(links, t_work):
    for link in links:
        ch, spec = link.channel, link.spec
        for backoff in (phy.DEFAULT_BACKOFF_DB, 3.0):
            tm = generate_tone_map(ch, t_work, tmi=1, backoff_db=backoff)
            snr = ch.snr_db(t_work)
            rate = ch.load.impulsive_event_rate_at(ch.dst_outlet, t_work)
            bits = ref_bits(snr, spec, backoff)
            pb = max(float(np.mean(ref_per_slot(snr, bits, rate))),
                     spec.target_pb_error * 0.25)
            np.testing.assert_array_equal(tm.bits, bits)
            assert tm.pb_err == pb
            assert tm.ble_per_slot_bps().tolist() == [
                ref_ble_bps(b, spec.fec_rate, pb, spec.symbol_duration_s)
                for b in bits.sum(axis=0).astype(float)]
        process = ToneMapProcess(ch, start_time=t_work)
        for dt in (0.5, 7.0, 19.0):
            t = t_work + dt
            snr = ch.snr_db(t)
            rate = ch.load.impulsive_event_rate_at(ch.dst_outlet, t)
            assert process.realized_pb_error(t) == float(np.mean(
                ref_per_slot(snr, process.tone_map.bits, rate)))
