"""The paper's closed forms, recomputed with the standard library only.

These are written from the formulas in PAPER.md, not from the
program's modules, so the suite's theory columns are checked against
a second implementation:

- Theorems 1-2, the critical sensing areas::

      s_N,c(n) = -(pi /(theta n)) log(1 - (1 - 1/(n log n))^(1/K_N))
      s_S,c(n) = -(2 pi/(theta n)) log(1 - (1 - 1/(n log n))^(1/K_S))

  with ``K_N = ceil(pi/theta)`` and ``K_S = ceil(2 pi/theta)``;
- eqs. (2) and (13), per-point success under uniform deployment::

      1 - P(F) = [1 - prod_y (1 - theta s_y / (c pi))^{n_y}]^K

  with ``c = 1, K = K_N`` (necessary) or ``c = 2, K = K_S``
  (sufficient) and ``s_y = phi_y r_y^2 / 2``;
- Theorems 3-4, the Poisson closed forms::

      P = [1 - exp(-sum_y theta n_y s_y / (c pi))]^K

- eq. (19): at ``theta = pi`` the necessary CSA is
  ``(log n + log log n) / n``.

:func:`check_tables` compares these with the tables of FIG7, FIG8,
EQ19, EQ2-MC, EQ13-MC, THM3-MC and THM4-MC and returns what differs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "VALIDATION_PROFILE",
    "check_tables",
    "csa",
    "eq19_area",
    "group_counts",
    "poisson_success",
    "sector_count",
    "uniform_success",
]

#: The two-group camera mix EQ2-MC .. THM4-MC deploy:
#: ``(radius, angle_of_view, weight)`` per group.
VALIDATION_PROFILE: Tuple[Tuple[float, float, float], ...] = (
    (0.22, math.pi / 2.0, 0.6),
    (0.14, 1.8, 0.4),
)

#: Relative tolerance for a closed form against the program's column.
REL_TOL = 1e-9

#: ``pi/theta`` is an integer for the paper's angles, but float division
#: can land a hair above it; this slack keeps ``ceil`` on the integer.
_RATIO_SLACK = 1e-9


def sector_count(theta: float, condition: str) -> int:
    """``K_N = ceil(pi/theta)`` or ``K_S = ceil(2 pi/theta)``."""
    span = math.pi if condition == "necessary" else 2.0 * math.pi
    return math.ceil(span / theta - _RATIO_SLACK)


def _coefficient(condition: str) -> float:
    if condition not in ("necessary", "sufficient"):
        raise ValueError(f"condition must be necessary or sufficient, got {condition!r}")
    return 1.0 if condition == "necessary" else 2.0


def csa(n: int, theta: float, condition: str) -> float:
    """Theorem 1 (necessary) or Theorem 2 (sufficient)."""
    coefficient = _coefficient(condition)
    k = sector_count(theta, condition)
    budget = 1.0 / (n * math.log(n))
    # 1 - (1 - budget)^(1/K), without cancellation.
    vacancy = -math.expm1(math.log1p(-budget) / k)
    return -(coefficient * math.pi / (theta * n)) * math.log(vacancy)


def eq19_area(n: int) -> float:
    """eq. (19): the 1-coverage critical sensing area."""
    return (math.log(n) + math.log(math.log(n))) / n


def group_counts(n: int, weights: Sequence[float]) -> List[int]:
    """Integer group sizes by largest remainder (ties to the lower index)."""
    raw = [w * n for w in weights]
    counts = [math.floor(x) for x in raw]
    short = n - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def uniform_success(
    profile: Sequence[Tuple[float, float, float]], n: int, theta: float, condition: str
) -> float:
    """1 - eq. (2) (necessary) or 1 - eq. (13) (sufficient)."""
    coefficient = _coefficient(condition)
    k = sector_count(theta, condition)
    counts = group_counts(n, [w for _, _, w in profile])
    vacancy = 1.0
    for (radius, phi, _), n_y in zip(profile, counts):
        area = phi * radius * radius / 2.0
        p = min(1.0, theta * area / (coefficient * math.pi))
        vacancy *= (1.0 - p) ** n_y
    return (1.0 - vacancy) ** k


def poisson_success(
    profile: Sequence[Tuple[float, float, float]], n: int, theta: float, condition: str
) -> float:
    """Theorem 3 (necessary) or Theorem 4 (sufficient), closed form."""
    coefficient = _coefficient(condition)
    k = sector_count(theta, condition)
    exponent = 0.0
    for radius, phi, weight in profile:
        area = phi * radius * radius / 2.0
        exponent += theta * weight * n * area / (coefficient * math.pi)
    return (1.0 - math.exp(-exponent)) ** k


def _close(measured: float, expected: float) -> bool:
    return math.isclose(measured, expected, rel_tol=REL_TOL, abs_tol=1e-15)


def _rows(table: Dict) -> List[Dict]:
    return [dict(zip(table["columns"], row)) for row in table["rows"]]


def check_tables(tables: Dict[str, List[Dict]]) -> List[str]:
    """Every mismatch between the oracle and the experiments' tables.

    ``tables`` maps an experiment id to its tables, each
    ``{"columns": [...], "rows": [[...], ...]}``.  An empty list means
    every theory column agreed.
    """
    problems: List[str] = []

    def expect(label: str, measured: float, expected: float) -> None:
        if not _close(measured, expected):
            problems.append(f"{label}: program {measured!r}, oracle {expected!r}")

    for exp_id in ("FIG7", "FIG8", "EQ19", "EQ2-MC", "EQ13-MC", "THM3-MC", "THM4-MC"):
        if exp_id not in tables or not tables[exp_id] or not tables[exp_id][0]["rows"]:
            problems.append(f"{exp_id}: no table to check")
    if problems:
        return problems

    fig7 = _rows(tables["FIG7"][0])
    if len(fig7) < 2:
        problems.append("FIG7: fewer than two theta points")
    for i, row in enumerate(fig7):
        expected_ratio = 0.1 + 0.4 * i / (len(fig7) - 1)
        expect(f"FIG7 theta_over_pi[{i}]", row["theta_over_pi"], expected_ratio)
        theta = row["theta"]
        expect(f"FIG7 csa_necessary[{i}]", row["csa_necessary"], csa(1000, theta, "necessary"))
        expect(f"FIG7 csa_sufficient[{i}]", row["csa_sufficient"], csa(1000, theta, "sufficient"))

    for i, row in enumerate(_rows(tables["FIG8"][0])):
        n = int(row["n"])
        expect(f"FIG8 csa_necessary[n={n}]", row["csa_necessary"], csa(n, math.pi / 4, "necessary"))
        expect(f"FIG8 csa_sufficient[n={n}]", row["csa_sufficient"], csa(n, math.pi / 4, "sufficient"))

    for row in _rows(tables["EQ19"][0]):
        n = int(row["n"])
        expect(f"EQ19 csa_necessary_at_pi[n={n}]", row["csa_necessary_at_pi"], eq19_area(n))
        expect(f"EQ19 one_coverage_csa[n={n}]", row["one_coverage_csa"], eq19_area(n))
        expect(f"EQ19 theorem 1 at pi[n={n}]", csa(n, math.pi, "necessary"), eq19_area(n))

    for exp_id, condition in (("EQ2-MC", "necessary"), ("EQ13-MC", "sufficient")):
        for row in _rows(tables[exp_id][0]):
            n, theta = int(row["n"]), row["theta"]
            expected = uniform_success(VALIDATION_PROFILE, n, theta, condition)
            expect(f"{exp_id} theory_success[n={n}]", row["theory_success"], expected)

    for exp_id, condition in (("THM3-MC", "necessary"), ("THM4-MC", "sufficient")):
        for row in _rows(tables[exp_id][0]):
            n, theta = int(row["n"]), row["theta"]
            expected = poisson_success(VALIDATION_PROFILE, n, theta, condition)
            expect(f"{exp_id} theory_closed_form[n={n}]", row["theory_closed_form"], expected)
            expect(f"{exp_id} theory_series[n={n}]", row["theory_series"], expected)
    return problems
