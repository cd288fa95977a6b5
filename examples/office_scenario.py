#!/usr/bin/env python3
"""A whole-office scenario: many flows sharing the hybrid network.

Runs a ten-minute slice of office life through the network-level simulator:
a hybrid-bonded video stream, two bulk PLC transfers on the same board (they
contend), a cross-board file sync that must use WiFi relays' board, and a
low-rate probe flow that should barely notice any of it.

Run:  python examples/office_scenario.py
"""

from repro.netsim import FlowRequest, Scenario, ScenarioRunner
from repro.testbed import build_testbed
from repro.testbed.experiments import working_hours_start
from repro.units import MBPS


def main() -> None:
    testbed = build_testbed(seed=7)
    t = working_hours_start()

    scenario = (
        Scenario("office-afternoon")
        .add(FlowRequest("video", 0, 2, t, medium="hybrid",
                         kind="cbr", rate_bps=25 * MBPS, duration_s=600))
        .add(FlowRequest("bulk-a", 1, 3, t + 60, kind="file",
                         size_bytes=400e6, medium="plc"))
        .add(FlowRequest("bulk-b", 6, 9, t + 90, kind="file",
                         size_bytes=400e6, medium="plc"))
        .add(FlowRequest("sync", 13, 16, t + 120, kind="file",
                         size_bytes=150e6, medium="plc"))
        .add(FlowRequest("probe", 2, 7, t, kind="cbr",
                         rate_bps=150e3, duration_s=600))
    )

    runner = ScenarioRunner(testbed)
    results = runner.run(scenario, horizon_s=900.0)

    print(f"{'flow':<8} {'kind':<5} {'medium':<7} {'mean rate':>10} "
          f"{'done at':>9}")
    for name, result in results.items():
        done = (f"t+{result.completed_at - t:.0f}s"
                if result.finished else "running")
        print(f"{name:<8} {result.request.kind:<5} "
              f"{result.request.medium:<7} "
              f"{result.mean_rate_mbps:>8.1f}M {done:>9}")

    stats = runner.stats
    print(f"\npeak concurrent flows: {stats.peak_active_flows}; "
          f"peak B1 contention domain load: "
          f"{stats.peak_domain_load.get('plc:B1', 0)}")
    print(f"quanta: {stats.quanta}; capacity-cache hit rate: "
          f"{stats.cache.hit_rate:.0%}; starved quanta: "
          f"{stats.starved_quanta}")
    for domain, utilisation in sorted(stats.domain_utilisation().items()):
        print(f"  {domain:<10} mean airtime utilisation {utilisation:.2f}")


if __name__ == "__main__":
    main()
