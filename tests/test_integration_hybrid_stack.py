"""A day in the life of the hybrid stack: every layer working together.

Build the 1905 table by probing per the Table 3 guidelines, route with it
and bond the best pair — the workflow a real hybrid implementation would
run on top of this library.
"""

import numpy as np
import pytest

from repro.core.classification import classify_ble
from repro.core.guidelines import LinkState, audit_schedule, recommend
from repro.hybrid import AbstractionLayer, HybridDevice, HybridMeshRouter
from repro.hybrid.routing import populate_from_testbed
from repro.units import MBPS


@pytest.fixture(scope="module")
def layer(testbed, t_work):
    layer = AbstractionLayer(staleness_limit_s=300.0)
    populate_from_testbed(layer, testbed, t_work)
    return layer


def test_metric_table_is_complete(layer, testbed):
    # Every same-board pair has a PLC record; every pair has a WiFi one.
    assert len(layer) == len(testbed.same_board_pairs()) + len(
        testbed.all_pairs())


def test_guidelines_hold_for_every_probed_link(layer, testbed, t_work):
    violations_total = 0
    for (i, j) in testbed.same_board_pairs()[::7]:
        record = layer.get(str(i), str(j), "plc")
        reverse = layer.get(str(j), str(i), "plc")
        rec = recommend(LinkState(ble_fwd_bps=record.capacity_bps * 1.7,
                                  ble_rev_bps=reverse.capacity_bps * 1.7))
        violations = audit_schedule(
            rec.schedule, unicast=rec.unicast,
            averages_over_slots=rec.average_over_slots,
            probes_both_directions=rec.probe_both_directions,
            link_quality=classify_ble(record.capacity_bps * 1.7))
        violations_total += len(violations)
    assert violations_total == 0


def test_staleness_limit_ages_the_table(layer, t_work):
    fresh = layer.get("0", "1", "plc", now=t_work + 10.0)
    stale = layer.get("0", "1", "plc", now=t_work + 3600.0)
    assert fresh is not None
    assert stale is None


def test_router_and_bond_agree_on_the_best_medium(layer, testbed, t_work):
    router = HybridMeshRouter(layer)
    path = router.best_path("0", "1")
    assert path is not None and len(path) == 1
    device = HybridDevice(testbed.plc_link(0, 1), testbed.wifi_link(0, 1),
                          testbed.streams)
    capacities = device.estimate_capacities_bps(t_work)
    assert path.hops[0].medium == max(capacities, key=capacities.get)


def test_bonded_pair_beats_best_single_medium(layer, testbed, t_work):
    device = HybridDevice(testbed.plc_link(0, 2), testbed.wifi_link(0, 2),
                          testbed.streams)
    hybrid = device.run_saturated("hybrid", t_work, 10.0).mean_mbps
    best_single = max(
        device.run_saturated("plc", t_work, 10.0).mean_mbps,
        device.run_saturated("wifi", t_work, 10.0).mean_mbps)
    assert hybrid > best_single
