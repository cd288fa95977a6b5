"""Measurement-campaign persistence (JSONL).

The paper's campaigns span a year of repeated experiments; anything built on
this library needs to save measurement runs and reload them for analysis
without re-simulating. The format is line-delimited JSON: one header line
(campaign metadata) followed by one line per record — diff-able and
stream-parseable, written and read through :mod:`repro.wire`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, List, Optional, Union

from repro.core.metrics import LinkMetricRecord, MetricSeries
from repro.wire import (
    FormatError,
    atomic_write,
    dumps_jsonl,
    read_headed_jsonl,
)

CAMPAIGN_FORMAT = "repro-campaign"
FORMAT_VERSION = 1


@dataclass
class Campaign:
    """A named collection of link-metric records."""

    name: str
    description: str = ""
    seed: Optional[int] = None
    records: List[LinkMetricRecord] = field(default_factory=list)

    def add(self, record: LinkMetricRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # --- queries -------------------------------------------------------------

    def links(self) -> List[tuple]:
        """Distinct (src, dst, medium) triples, sorted."""
        return sorted({(r.src, r.dst, r.medium) for r in self.records})

    def series(self, src: str, dst: str, medium: str,
               value: str = "capacity_bps") -> MetricSeries:
        """Extract one link's records as a time series of one field."""
        rows = sorted(
            ((r.time, getattr(r, value)) for r in self.records
             if (r.src, r.dst, r.medium) == (src, dst, medium)
             and getattr(r, value) is not None),
            key=lambda p: p[0])
        return MetricSeries([t for t, _ in rows], [v for _, v in rows],
                            name=f"{src}->{dst}/{medium}/{value}")


def save_campaign(campaign: Campaign, path: Union[str, Path]) -> None:
    """Write a campaign as JSONL (header line + one line per record)."""
    header = {"format": CAMPAIGN_FORMAT, "version": FORMAT_VERSION,
              "name": campaign.name, "description": campaign.description,
              "seed": campaign.seed, "n_records": len(campaign)}
    atomic_write(path, dumps_jsonl(
        [header] + [asdict(record) for record in campaign.records]))


def iter_records(path: Union[str, Path]) -> Iterator[LinkMetricRecord]:
    """Stream records from a campaign file without loading it whole."""
    _, lines = read_headed_jsonl(path, CAMPAIGN_FORMAT, FORMAT_VERSION)
    yield from _records(path, lines)


def load_campaign(path: Union[str, Path]) -> Campaign:
    """Read a campaign file back into memory."""
    header, lines = read_headed_jsonl(path, CAMPAIGN_FORMAT, FORMAT_VERSION)
    return Campaign(name=header.get("name", Path(path).stem),
                    description=header.get("description", ""),
                    seed=header.get("seed"),
                    records=list(_records(path, lines)))


def _records(path: Union[str, Path],
             lines: Iterable[Any]) -> Iterator[LinkMetricRecord]:
    for line_no, data in enumerate(lines, start=2):
        try:
            record = LinkMetricRecord(**data)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}:{line_no}: bad record: {exc}") from exc
        yield record


def record_survey(testbed, t: float, pairs=None,
                  campaign_name: str = "survey") -> Campaign:
    """Snapshot both media of (a subset of) the testbed into a campaign."""
    campaign = Campaign(name=campaign_name, seed=testbed.streams.seed,
                        description=f"dual-medium survey at t={t:.0f}s")
    for i, j in (pairs if pairs is not None else testbed.same_board_pairs()):
        plc = testbed.plc_link(i, j)
        if plc is not None:
            campaign.add(LinkMetricRecord(
                time=t, src=str(i), dst=str(j), medium="plc",
                capacity_bps=plc.avg_ble_bps(t),
                pb_err=plc.pb_err(t),
                throughput_bps=plc.throughput_bps(t, measured=False)))
        wifi = testbed.wifi_link(i, j)
        campaign.add(LinkMetricRecord(
            time=t, src=str(i), dst=str(j), medium="wifi",
            capacity_bps=wifi.phy_rate_bps(t),
            throughput_bps=wifi.throughput_bps(t, measured=False)))
    return campaign
