"""Percentiles, spreads and the host facts recorded beside every run."""

from __future__ import annotations

import importlib.metadata
import math
import os
import platform
import re
import statistics
from pathlib import Path
from typing import Dict, Sequence

__all__ = [
    "METRIC_NAME",
    "cpu_ticks",
    "host_facts",
    "nearest_rank",
    "spread",
]

#: A metric or workload name: starts with a letter or digit, at most 64
#: letters, digits, ``_``, ``.`` and ``-``.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank percentile: the smallest value with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct!r}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the quartile distance as a share of the median.

    Quartiles are those of ``statistics.quantiles(values, n=4)``.
    """
    if len(values) < 2:
        raise ValueError("a spread needs at least two values")
    q1, median, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / abs(median) if median else math.inf
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": share}


def cpu_ticks() -> Dict[str, int]:
    """Aggregate CPU ticks from ``/proc/stat`` (steal and the total)."""
    try:
        line = Path("/proc/stat").read_text().splitlines()[0]
    except OSError:
        return {"steal": 0, "total": 0}
    fields = [int(x) for x in line.split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return {"steal": steal, "total": sum(fields[:8])}


def host_facts(ticks_before: Dict[str, int]) -> Dict[str, object]:
    """CPU count, versions, load average and the steal share since ``ticks_before``."""
    after = cpu_ticks()
    total = after["total"] - ticks_before["total"]
    steal = after["steal"] - ticks_before["steal"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "loadavg": list(os.getloadavg()),
        "steal_ticks": steal,
        "steal_share": steal / total if total > 0 else 0.0,
    }


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "missing"
