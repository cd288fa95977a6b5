"""PLC frame structure: the start-of-frame (SoF) delimiter.

The SoF delimiter is the paper's central measurement vector
(§2.2, Table 2): it is broadcast in ROBO modulation ahead of every frame, so a
sniffer decodes it even when the payload is undecodable, and it carries the
BLE of the tone map in use — which §7.1 shows is an accurate capacity
estimate. Arrival timestamps of SoFs are also how §8.1 detects
retransmissions (frames arriving < 10 ms apart).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SofDelimiter:
    """Frame control / start-of-frame delimiter, as captured by the sniffer.

    Attributes mirror what the Open Powerline Toolkit sniffer exposes.
    """

    timestamp: float          # arrival time (s) — Table 2's ``t``
    src: str                  # transmitting station id
    dst: str                  # destination station id ("*" for broadcast)
    tmi: int                  # tone-map index in use
    ble_bps: float            # bit-loading estimate of the active slot
    slot: int                 # tone-map slot the transmission started in
    n_pbs: int                # physical blocks carried
    duration_s: float         # on-air frame duration
    is_retransmission: bool = False
    is_sound: bool = False    # sound (channel-estimation) frame
    is_broadcast: bool = False

    def __post_init__(self) -> None:
        if self.ble_bps < 0:
            raise ValueError("BLE cannot be negative")
        if self.n_pbs < 1:
            raise ValueError("a frame carries at least one PB")
