"""Tone maps and their update dynamics."""

import numpy as np
import pytest

from repro.plc import phy, tonemap
from repro.plc.tonemap import ToneMapProcess, generate_tone_map
from repro.sim.clock import MainsClock
from repro.units import MBPS

NIGHT = MainsClock.at(day=2, hour=23.5)


def _channel(testbed, src, dst):
    link = testbed.plc_link(src, dst)
    assert link is not None
    return link.channel


def test_tone_map_embeds_definition_1(testbed):
    ch = _channel(testbed, 0, 1)
    tm = generate_tone_map(ch, NIGHT, tmi=1)
    per_slot = tm.ble_per_slot_bps()
    assert per_slot.shape == (6,)
    # Recompute Definition 1 by hand for slot 0.
    expected = (tm.bits[:, 0].sum() * tm.fec_rate * (1 - tm.pb_err)
                / tm.symbol_duration_s)
    assert per_slot[0] == pytest.approx(expected)


def test_tone_map_ids_increase(testbed):
    ch = _channel(testbed, 0, 1)
    process = ToneMapProcess(ch, start_time=NIGHT)
    process.advance(NIGHT + 40.0)
    tmis = [u.tmi for u in process.updates]
    assert tmis == sorted(tmis)
    assert len(set(tmis)) == len(tmis)


def test_expiry_forces_update_within_30s(testbed):
    ch = _channel(testbed, 0, 1)
    process = ToneMapProcess(ch, start_time=NIGHT)
    process.advance(NIGHT + 65.0)
    # Whatever the drift, at least two more tone maps in 65 s (30 s expiry).
    assert len(process.updates) >= 3
    ages = np.diff([u.time for u in process.updates])
    assert (ages <= ch.spec.tone_map_expiry_s + 0.1).all()


def test_bad_link_updates_more_often_than_good(testbed, t_night):
    good = ToneMapProcess(_channel(testbed, 15, 18), start_time=t_night)
    bad = ToneMapProcess(_channel(testbed, 11, 4), start_time=t_night)
    good.advance(t_night + 60.0)
    bad.advance(t_night + 60.0)
    assert len(bad.updates) > 2 * len(good.updates)


def test_advance_backwards_rejected(testbed):
    process = ToneMapProcess(_channel(testbed, 0, 1), start_time=NIGHT)
    with pytest.raises(ValueError):
        process.advance(NIGHT - 1.0)


def test_ble_trace_matches_updates(testbed, t_night):
    process = ToneMapProcess(_channel(testbed, 11, 4), start_time=t_night)
    process.advance(t_night + 30.0)
    trace = process.ble_trace()
    assert trace.shape == (len(process.updates), 2)
    assert (np.diff(trace[:, 0]) > 0).all()


def test_interarrivals_positive(testbed, t_night):
    process = ToneMapProcess(_channel(testbed, 11, 4), start_time=t_night)
    process.advance(t_night + 30.0)
    alphas = process.ble_update_interarrivals()
    assert (alphas > 0).all()


def test_realized_pb_error_in_unit_interval(testbed, t_night):
    process = ToneMapProcess(_channel(testbed, 2, 7), start_time=t_night)
    p = process.realized_pb_error(t_night + 1.0)
    assert 0.0 <= p <= 1.0


@pytest.mark.parametrize("when", ["night", "work"])
def test_each_tone_map_is_laid_out_once(testbed, t_night, t_work,
                                        monkeypatch, when):
    """A tone map is laid out (``phy.ToneMapSlots``) when it is generated
    and judged through that layout at every check step after: over 200
    steps on link 0->1 no tone map's bits are laid out again, and every
    realised PB error and embedded PBerr equals the one-shot
    ``phy.pb_error_per_slot`` bytes. (``phy.ble_from_snr`` lays out the
    fresh bit loading it evaluates; that is not a tone map.)"""
    channel = testbed.plc_link(0, 1).channel
    t0 = t_night if when == "night" else t_work
    process = ToneMapProcess(channel, start_time=t0)
    tone_maps = [process.tone_map]
    layouts = []
    realized = []
    lay_out = phy.ToneMapSlots.__init__
    generate = tonemap.generate_tone_map
    judge = process._realized_pb_error

    def counting_layout(self, bits):
        layouts.append(bits)
        lay_out(self, bits)

    def recording_generate(*args, **kwargs):
        tone_maps.append(generate(*args, **kwargs))
        return tone_maps[-1]

    def recording_judge(state):
        realized.append((state, process.tone_map, judge(state)))
        return realized[-1][2]

    monkeypatch.setattr(phy.ToneMapSlots, "__init__", counting_layout)
    monkeypatch.setattr(tonemap, "generate_tone_map", recording_generate)
    monkeypatch.setattr(process, "_realized_pb_error", recording_judge)
    process.advance(t0 + 200 * process.check_interval + 1e-9)
    monkeypatch.undo()

    # The starting tone map was laid out before the window; each one
    # generated in it, once.
    assert [sum(bits is tm.bits for bits in layouts)
            for tm in tone_maps] == [0] + [1] * (len(tone_maps) - 1)
    assert realized
    for state, tm, value in realized:
        assert value == float(np.mean(phy.pb_error_per_slot(
            state.snr_db, tm.bits, state.impulsive_rate_hz)))
    for tm in tone_maps[1:]:
        state = channel.state_at(tm.created_at)
        assert tm.pb_err == max(
            float(np.mean(phy.pb_error_per_slot(
                state.snr_db, tm.bits, state.impulsive_rate_hz))),
            channel.spec.target_pb_error * 0.25)
    if when == "work":
        assert len(tone_maps) > 10
