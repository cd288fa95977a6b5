"""Traffic generation and measurement (the paper's iperf role, §3.2)."""

from repro.traffic.generators import (
    CbrFlow,
    FileTransfer,
    SaturatedUdpFlow,
)
from repro.traffic.iperf import run_udp_test
from repro.traffic.packet import Packet

__all__ = [
    "Packet",
    "SaturatedUdpFlow",
    "CbrFlow",
    "FileTransfer",
    "run_udp_test",
]
