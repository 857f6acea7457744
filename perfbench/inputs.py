"""Seeded inputs: worlds, key sets, request streams and ingest records.

Everything here is a pure function of the workload seed and the table or
archive the seed produced, so the same seed gives the same inputs.  The
programs under test only ever see the generated archive (``repro
generate``), the tables built from it (``repro build``) and the request
frames below.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

from repro.hexgrid import cell_to_latlng
from repro.inventory.keys import GroupingSet
from repro.inventory.sstable import SSTableReader, _key_from_bytes


#: The world every workload's archive comes from.  It is fixed rather than
#: drawn from the workload seed because the synthetic world's size swings
#: several-fold between seeds (a 24-vessel world built 3.7 MB under one
#: seed and 23.5 MB under another), which would make the table-to-cache
#: ratio, and every number, depend on the seed.  The workload seed drives
#: what is asked of that world instead: request streams, key popularity,
#: read choices and the row order of the build archive.
WORLD_SEED = 42


@dataclass(frozen=True)
class World:
    """``repro generate`` arguments of one workload's world."""

    vessels: int
    days: float
    interval_s: float = 600.0

    def generate_args(self, out: Path) -> list[str]:
        return [
            "generate", "--seed", str(WORLD_SEED), "--vessels", str(self.vessels),
            "--days", str(self.days), "--interval", str(self.interval_s),
            "--out", str(out),
        ]


def shuffled_archive(source: Path, out: Path, seed: int) -> None:
    """``source``'s rows in a seeded order at ``out`` (fleet sidecar
    copied): the build path accepts raw archives in any order."""
    import shutil

    header, *rows = source.read_text().splitlines(keepends=True)
    random.Random(seed).shuffle(rows)
    out.write_text(header + "".join(rows))
    shutil.copyfile(source.with_suffix(".fleet.csv"), out.with_suffix(".fleet.csv"))


#: Request types of the serving workloads, sent in this rotation, so each
#: makes a fifth of the stream.  The repository's serving benchmark
#: (``benchmarks/bench_serving_throughput.py``) rotates the paper's online
#: mix of ``summary_at``, ``top_destinations_at`` and ``eta`` in equal
#: shares; no source gives other weights, so the two request types this
#: benchmark adds get the same share.  A fixed rotation rather than a
#: random draw keeps every stretch of the stream at the same mix.
REQUEST_TYPES = ("summary_at", "top_destinations_at", "eta", "destination", "multi_get")
MULTI_GET_KEYS = 16
TRACK_POINTS = 4
#: Zipf exponent of key popularity.  An assumption, not a measurement:
#: s = 1 is Zipf's law in its classic form, and no query log of the
#: inventory exists to fit it to.  With it the hot head fits the block
#: cache and the tail is spread over the whole table.
ZIPF_S = 1.0
#: Seed of the popularity ranking (which key is the most asked for).  Like
#: the world, it is fixed: the hot head's summaries differ in size between
#: rankings, and interleaved against one server the closed-loop capacity
#: of six seeds' rankings differed by 20 %.  The workload seed drives the
#: draws from this ranking instead.
RANKING_SEED = WORLD_SEED


def table_keys(path: Path) -> list[tuple[int, str | None]]:
    """Every CELL and CELL_TYPE key of a table as (cell, vessel type),
    read from the raw block entries (no summary is decoded)."""
    keys = []
    reader = SSTableReader(path)
    try:
        for block_index in range(reader.block_count):
            for key_raw, _ in reader.parse_entries(reader.read_block(block_index)):
                key = _key_from_bytes(key_raw)
                if key.grouping_set is not GroupingSet.CELL_OD_TYPE:
                    keys.append((key.cell, key.vessel_type))
    finally:
        reader.close()
    return keys


class ZipfKeys:
    """Zipf popularity over a key list.  ``ranking`` shuffles the rank
    order, so hot keys are spread over the table rather than packed into
    one block; ``draws`` picks the keys."""

    def __init__(self, keys: list[tuple[int, str | None]], ranking: random.Random,
                 draws: random.Random | None = None) -> None:
        if not keys:
            raise ValueError("the table holds no CELL or CELL_TYPE keys")
        self.keys = list(keys)
        ranking.shuffle(self.keys)
        self._cumulative = list(
            accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(len(self.keys)))
        )
        self._rng = ranking if draws is None else draws

    def draw(self) -> tuple[int, str | None]:
        point = self._rng.random() * self._cumulative[-1]
        return self.keys[min(bisect_right(self._cumulative, point), len(self.keys) - 1)]

    def head_share(self, n: int) -> float:
        """Share of draws that land on the ``n`` most popular keys."""
        return self._cumulative[min(n, len(self.keys)) - 1] / self._cumulative[-1]


def _position(key: tuple[int, str | None]) -> dict:
    lat, lon = cell_to_latlng(key[0])
    params: dict = {"lat": lat, "lon": lon}
    if key[1] is not None:
        params["vessel_type"] = key[1]
    return params


def tracks_from_archive(archive: Path) -> list[list[list[float]]]:
    """Short vessel tracks (``TRACK_POINTS`` consecutive valid reports of
    one vessel, in time order) for ``destination`` requests."""
    from repro.ais.csvio import read_csv

    by_vessel: dict[int, list[tuple[float, float, float]]] = {}
    for report in read_csv(archive):
        if -90.0 <= report.lat <= 90.0 and -180.0 <= report.lon <= 180.0:
            by_vessel.setdefault(report.mmsi, []).append(
                (report.epoch_ts, report.lat, report.lon)
            )
    tracks = []
    for mmsi in sorted(by_vessel):
        points = sorted(by_vessel[mmsi])
        for start in range(0, len(points) - TRACK_POINTS, TRACK_POINTS * 8):
            tracks.append(
                [[lat, lon] for _, lat, lon in points[start : start + TRACK_POINTS]]
            )
    return tracks


def request_stream(
    keys: list[tuple[int, str | None]],
    tracks: list[list[list[float]]],
    seed: int,
    count: int,
) -> list[dict]:
    """``count`` requests of the serving mix, keys drawn Zipf from the
    fixed ranking with draws seeded by ``seed``."""
    rng = random.Random(seed)
    zipf = ZipfKeys(keys, random.Random(RANKING_SEED), rng)
    requests = []
    for index in range(count):
        kind = REQUEST_TYPES[index % len(REQUEST_TYPES)]
        if kind == "multi_get":
            request = {
                "type": kind,
                "keys": [_position(zipf.draw()) for _ in range(MULTI_GET_KEYS)],
            }
        elif kind == "destination":
            track = tracks[rng.randrange(len(tracks))]
            request = {"type": kind, "track": track}
            vessel_type = zipf.draw()[1]
            if vessel_type is not None:
                request["vessel_type"] = vessel_type
        else:
            request = {"type": kind, **_position(zipf.draw())}
            if kind == "top_destinations_at":
                request["n"] = 5
        requests.append(request)
    return requests


def ingest_records(archive: Path) -> list[dict]:
    """The wire dicts ``repro ingest --feed archive`` sends (the CLI's own
    feed reader, fleet sidecar included), in time order."""
    from repro.cli import _feed_records, _fleet_sidecar, _read_fleet

    segments = {
        vessel.mmsi: vessel.segment.value
        for vessel in _read_fleet(_fleet_sidecar(archive))
    }
    records = list(_feed_records(SimpleNamespace(feed=archive, nmea=False), segments))
    records.sort(key=lambda record: record["ts"])
    return records
