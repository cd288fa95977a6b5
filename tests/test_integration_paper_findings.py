"""Cross-module integration: the paper's Table 1 findings, end to end.

Each test exercises multiple subsystems together and asserts the *shape* of
a headline result — who wins, in which direction the correlation points —
rather than exact numbers.
"""

import numpy as np
import pytest

from repro.analysis.asymmetry import asymmetry_report
from repro.analysis.stats import linear_fit, pearson
from repro.core.variation import cycle_scale_stats
from repro.testbed.experiments import poll_ble_series, survey_pairs
from repro.units import MBPS, MINUTE


@pytest.fixture(scope="module")
def quick_survey(testbed, t_work):
    """A thinned Fig. 3 survey: 1 min per medium at 0.5 s samples."""
    pairs = [(i, j) for (i, j) in testbed.same_board_pairs()
             if (i + j) % 3 == 0]  # deterministic thinning
    # Always include the blind-spot pairs (>35 m air) the thinning may drop.
    pairs += [(i, j) for (i, j) in testbed.same_board_pairs()
              if testbed.air_distance(i, j) > 35.0 and (i, j) not in pairs]
    return survey_pairs(testbed, t_work, duration=MINUTE,
                        report_interval=0.5, pairs=pairs)


def test_plc_connectivity_superset_of_wifi(quick_survey):
    """§4.1: (nearly) every WiFi-connected pair is PLC-connected."""
    wifi_pairs = [r for r in quick_survey if r.wifi_connected]
    both = [r for r in wifi_pairs if r.plc_connected]
    assert len(both) >= 0.9 * len(wifi_pairs)


def test_plc_covers_wifi_blind_spots(quick_survey):
    """§4.1: beyond 35 m WiFi dies; PLC still delivers tens of Mbps."""
    far = [r for r in quick_survey if r.air_distance_m > 35.0]
    assert far, "survey should include blind-spot pairs"
    # "No connectivity": at best marginal scraps of MCS0 airtime.
    assert all(r.wifi_mean_mbps < 3.0 for r in far)
    assert max(r.plc_mean_mbps for r in far) > 15.0


def test_roughly_half_of_pairs_prefer_plc(quick_survey):
    connected = [r for r in quick_survey
                 if r.plc_connected or r.wifi_connected]
    plc_wins = sum(r.plc_mean_mbps > r.wifi_mean_mbps for r in connected)
    share = plc_wins / len(connected)
    assert 0.35 < share < 0.8  # paper: 52 %


def test_wifi_much_more_variable_than_plc(quick_survey):
    """§4.1: σ_W up to ~19 Mbps; σ_P mostly below 4 Mbps."""
    plc_stds = [r.plc_std_mbps for r in quick_survey if r.plc_connected]
    wifi_stds = [r.wifi_std_mbps for r in quick_survey if r.wifi_connected]
    assert np.median(wifi_stds) > 2 * np.median(plc_stds)
    assert np.percentile(plc_stds, 90) < 6.0
    assert max(wifi_stds) > 8.0


def test_throughput_degrades_with_cable_distance(quick_survey):
    """Fig. 7: clear degradation with distance, wide spread at any one."""
    d = [r.cable_distance_m for r in quick_survey]
    t = [r.plc_mean_mbps for r in quick_survey]
    assert pearson(d, t) < -0.5


@pytest.fixture(scope="module")
def same_board_plc(testbed, t_work):
    """Per same-board pair at working hours: mean PLC throughput (Mbps,
    five 1 s-spaced scalar probes) and PBerr."""
    out = {}
    for i, j in testbed.same_board_pairs():
        link = testbed.plc_link(i, j)
        out[(i, j)] = (np.mean([link.throughput_bps(t_work + k, False)
                                for k in range(5)]) / MBPS,
                       link.pb_err(t_work))
    return out


def test_severe_asymmetry_on_a_third_of_pairs(same_board_plc):
    """§5: ≥1.5× throughput asymmetry on ~30 % of pairs."""
    fwd = {pair: thr for pair, (thr, _) in same_board_plc.items()}
    report = asymmetry_report(fwd, threshold=1.5)
    assert 0.15 < report.severe_fraction < 0.55


def test_pberr_falls_as_throughput_rises(same_board_plc):
    """§5, Fig. 7: PBerr anti-correlates with PLC throughput over the
    formed links."""
    thr, pb_err = np.array([v for v in same_board_plc.values()
                            if v[0] > 1.0]).T
    assert -1.0 <= pearson(thr, pb_err) <= -0.2


def test_peak_plc_throughput_near_paper(same_board_plc):
    """§4.1: the best HPAV pairs reach ~80 Mbps of UDP throughput."""
    peak = max(thr for thr, _ in same_board_plc.values())
    assert 55.0 <= peak <= 100.0


def test_ble_is_a_linear_throughput_predictor(testbed, t_work):
    """Fig. 15: BLE ≈ 1.7 T with near-zero intercept."""
    bles, thrs = [], []
    for i, j in testbed.same_board_pairs()[::4]:
        link = testbed.plc_link(i, j)
        ble = link.avg_ble_bps(t_work) / MBPS
        thr = link.throughput_bps(t_work, measured=False) / MBPS
        if thr > 1.0:
            bles.append(ble)
            thrs.append(thr)
    fit = linear_fit(thrs, bles)
    assert fit.slope == pytest.approx(1.7, abs=0.15)
    assert abs(fit.intercept) < 5.0
    assert fit.r_squared > 0.95


def test_quality_and_variability_strongly_anticorrelated(testbed, t_night):
    """Table 1 / §6.2: good links vary far less than bad ones."""
    stats = []
    for (i, j) in [(13, 14), (15, 18), (0, 1), (1, 2), (2, 7), (9, 5),
                   (11, 4), (5, 11)]:
        series = poll_ble_series(testbed, i, j, t_night, 45, 0.05)
        stats.append(cycle_scale_stats(series))
    means = [s.mean_ble_bps for s in stats]
    stds = [s.std_ble_bps for s in stats]
    assert pearson(means, stds) < -0.3
    # And update inter-arrival α grows with quality (α is log-scaled, as in
    # Fig. 11's log axis — raw α spans two orders of magnitude).
    alphas = [np.log10(s.mean_alpha_s) for s in stats]
    assert pearson(means, alphas) > 0.3


def test_broadcast_loss_uninformative_but_pberr_predicts_uetx(
        testbed, t_work):
    """§8.1 both halves, on the same links (working hours: the PBerr range
    is wide enough there to see the relationship)."""
    from repro.core.etx import run_broadcast_probes, measure_u_etx
    rng = np.random.default_rng(5)
    # Good/average links first, genuinely bad ones last — the PBerr range
    # needs both ends for the correlation to mean anything.
    links = [(13, 14), (0, 1), (2, 7), (0, 4), (3, 8), (10, 4), (5, 9)]
    losses, u_etxs, pb_errs = [], [], []
    for (i, j) in links:
        link = testbed.plc_link(i, j)
        losses.append(run_broadcast_probes(
            link, t_work, 200.0, 0.1, rng).loss_rate)
        result = measure_u_etx(link, t_work, 40.0, rng)
        u_etxs.append(result.u_etx)
        pb_errs.append(result.mean_pb_err)
    # Broadcast: good and average links collapse to near-zero loss — no
    # quality signal there (§8.1).
    assert max(losses[:4]) < 0.02
    # Unicast: U-ETX tracks PBerr (nearly linear, §8.1).
    assert pearson(pb_errs, u_etxs) > 0.8
