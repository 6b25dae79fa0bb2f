"""The benchmark's arithmetic: judging one solve, PAR-2, tail percentile, spread.

Kept free of any `dper` import so that it can be tested against the
program's own scoring (`dper.bench`) rather than sharing code with it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

ANSWER_TOL = 1e-9  # relative: band maxima reach 1e-38, far below any
                   # absolute tolerance; every maximum is at most 1
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail value


@dataclass(frozen=True)
class Outcome:
    """One solve as the benchmark scores it."""

    seconds: float       # wall time of run_solve, on the benchmark's clock
    solved: bool         # ok, within the cap, and answered correctly
    wrong: bool          # returned an answer that misses the reference
    reason: str          # "" when solved


def matches(value: float, reference: float) -> bool:
    return math.isclose(value, reference, rel_tol=ANSWER_TOL, abs_tol=0.0)


def judge(report: dict, seconds: float, cap: float, reference: float) -> Outcome:
    """Score a `run_solve` report.

    A solve fails if its status is not ok, it took longer than the cap (the
    program's own deadline does not cover planning), its maximum misses the
    reference, or its maximizer re-count disagrees with its maximum.  Only
    the last two make the answer wrong.
    """
    status = report.get("status")
    if status != "ok":
        return Outcome(seconds, False, False, f"status {status}")
    if not matches(report["maximum"], reference):
        return Outcome(seconds, False, True,
                       f"maximum {report['maximum']!r} != reference {reference!r}")
    check = report.get("verification", {})
    if check.get("checked") and not check["agrees"]:
        return Outcome(seconds, False, True,
                       f"re-count {check['weighted_count']!r} disagrees")
    if seconds > cap:
        return Outcome(seconds, False, False, f"over the {cap:g} s cap")
    return Outcome(seconds, True, False, "")


def best_of_visits(visits: dict[str, list[Outcome]]) -> list[Outcome]:
    """One outcome per instance: its fastest visit, failed if any visit failed.

    Other tenants of a shared host slow single solves by tens of percent in
    bursts; the fastest of several visits is the time the program needs.
    """
    return [Outcome(min(o.seconds for o in outs),
                    all(o.solved for o in outs),
                    any(o.wrong for o in outs),
                    "; ".join(o.reason for o in outs if o.reason))
            for outs in visits.values()]


def par2(outcomes: list[Outcome], cap: float) -> float:
    """Mean PAR-2: wall time when solved, twice the cap otherwise."""
    return sum(o.seconds if o.solved else 2.0 * cap
               for o in outcomes) / len(outcomes)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With too few samples for
    any value to have TAIL_BEYOND beyond it, the upper quartile (inclusive
    method) stands in: the maximum of a handful of noisy timings swings
    with whichever one was unluckiest.
    """
    s = sorted(samples)
    n = len(s)
    if n < 2:
        return s[0], 100.0, 0
    if n <= TAIL_BEYOND:
        q3 = statistics.quantiles(s, n=4, method="inclusive")[2]
        return q3, 75.0, sum(x > q3 for x in s)
    k = n - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / n, n - 1 - k


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as `statistics.quantiles` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
