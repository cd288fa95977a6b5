"""repro — reproduction of "Electri-Fi Your Data: Measuring and Combining
Power-Line Communications with WiFi" (Vlachou, Henri, Thiran — IMC 2015).

The package layers, bottom-up:

* :mod:`repro.sim` — mains clock, named deterministic RNG streams;
* :mod:`repro.powergrid` — wiring topology, appliances, human activity;
* :mod:`repro.plc` — IEEE 1901 / HomePlug AV channel, PHY, MAC, stations;
* :mod:`repro.wifi` — 802.11n link model;
* :mod:`repro.traffic` — iperf-style generators and meters;
* :mod:`repro.core` — the paper's contribution: link metrics (BLE, PBerr,
  U-ETX), capacity estimation, probing policies, temporal-variation
  analysis, the Table 3 guideline engine;
* :mod:`repro.hybrid` — IEEE 1905 abstraction + load balancing (§7.4);
* :mod:`repro.testbed` — the simulated 19-station EPFL floor;
* :mod:`repro.analysis` — stats/reporting helpers.

Quick start::

    from repro.testbed import build_testbed
    from repro.testbed.experiments import working_hours_start

    tb = build_testbed(seed=7)
    t = working_hours_start()
    link = tb.plc_link(3, 8)
    print(link.avg_ble_bps(t) / 1e6, "Mbps BLE")
"""

from repro.testbed import build_testbed
from repro.units import MBPS

__version__ = "1.0.0"

__all__ = ["build_testbed", "MBPS", "__version__"]
