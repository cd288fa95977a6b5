"""Traffic source descriptors and packet-time schedules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class SaturatedUdpFlow:
    """iperf-style saturated UDP: always a packet ready (paper default)."""

    packet_bytes: int = 1500
    flow_id: str = "udp-saturated"


@dataclass(frozen=True)
class CbrFlow:
    """Constant-bit-rate flow (the paper's 150 kbps probe emulation, §8)."""

    rate_bps: float
    packet_bytes: int = 1500
    flow_id: str = "cbr"

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError("rate must be positive")

    @property
    def packet_interval_s(self) -> float:
        return self.packet_bytes * 8 / self.rate_bps

    def packet_times(self, t_start: float, duration: float) -> List[float]:
        interval = self.packet_interval_s
        n = int(duration / interval)
        return [t_start + k * interval for k in range(n)]


@dataclass(frozen=True)
class FileTransfer:
    """A fixed-size transfer (the paper's 600 MB download, §7.4)."""

    size_bytes: int
    packet_bytes: int = 1500
    flow_id: str = "file"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("file size must be positive")

    @property
    def n_packets(self) -> int:
        return math.ceil(self.size_bytes / self.packet_bytes)
