"""Arithmetic shared by the benchmark: quantiles, failure counts, checksums.

Standard library only, so the orchestrator can import it without numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass


def quantile(sorted_values, q: float) -> float:
    """Linear-interpolation quantile of already sorted values, 0 <= q <= 1."""
    if not sorted_values:
        raise ValueError("quantile of no values")
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


@dataclass(frozen=True)
class Summary:
    median: float
    q1: float
    q3: float
    n: int

    @property
    def spread(self) -> float:
        """Inter-quartile distance as a share of the median."""
        return (self.q3 - self.q1) / abs(self.median) if self.median else math.inf


def summarize(values) -> Summary:
    """Median and quartiles as statistics.quantiles(values, n=4) gives them.

    One value has no spread, so its quartiles are the value itself.
    """
    values = list(values)
    if len(values) == 1:
        return Summary(values[0], values[0], values[0], 1)
    q1, med, q3 = statistics.quantiles(values, n=4)
    return Summary(med, q1, q3, len(values))


class Tally:
    """Operations attempted and failed; a tolerance miss or an exception fails one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        self.failed += 0 if ok else count

    def fail(self, count: int, why: str) -> None:
        self.attempted += count
        self.failed += count
        self.errors.append(why)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def sha256(data) -> str:
    """Checksum of bytes, or of a JSON value in canonical form."""
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def checksum_mismatches(history, records):
    """Compare new checksum records with earlier ones and with each other.

    Each record is a dict with "tree", "key" and "sha": the source tree
    the run used, what the unit computed (workload, inputs) and the
    checksum of its reports.  Returns (same_tree, other_tree): the keys of
    new records whose checksum differs from an earlier record's, from the
    same tree (a determinism failure) and from another tree (a change
    between versions, reported only).
    """
    seen: dict[tuple[str, str], set[str]] = {}

    def add(rec) -> None:
        seen.setdefault((rec["tree"], rec["key"]), set()).add(rec["sha"])

    for old in history:
        add(old)
    same_tree, other_tree = [], []
    for rec in records:
        for (tree, key), shas in seen.items():
            if key == rec["key"] and shas != {rec["sha"]}:
                (same_tree if tree == rec["tree"] else other_tree).append(key)
        add(rec)
    return same_tree, other_tree


# The reference probe's typical time on the reference machine (a shared
# 2-CPU Linux VM, Python 3.11.7, numpy 2.4.6).  Rescaled times read as
# seconds on that machine at its typical speed.
PROBE_NOMINAL_S = 0.0125


def at_reference_speed(seconds: float, probe_s: float | None) -> float:
    """A wall time rescaled by the probe timed around it; None leaves it as is."""
    return seconds if probe_s is None else seconds * PROBE_NOMINAL_S / probe_s
