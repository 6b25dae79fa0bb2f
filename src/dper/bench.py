"""Benchmark records, PAR-2 scoring, and reference-answer checking.

A run's PAR-2 score is its wall time if it solved the instance within the
cap, and twice the cap otherwise.  Summaries report the mean PAR-2 score with
a 95% Student-t confidence interval over the per-instance scores.  An answer
that disagrees with a reference value by more than 1e-6 disqualifies the run:
it is scored as unsolved.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

REF_TOLERANCE = 1e-6


@dataclass
class BenchRecord:
    name: str
    solved: bool
    seconds: float
    answer: float | None = None
    width: int | None = None
    nodes_created: int | None = None
    peak_live_nodes: int | None = None
    executor: str | None = None
    status: str = ""  # the solve report's status, or "error" for a fault
    disqualified: bool = False

    def par2(self, cap: float) -> float:
        return self.seconds if self.solved else 2.0 * cap


@dataclass
class BenchSummary:
    records: list[BenchRecord]
    cap: float
    mean_par2: float = field(init=False, default=0.0)
    ci95: tuple[float, float] = field(init=False, default=(math.nan, math.nan))
    solved: int = field(init=False)
    disqualified: int = field(init=False)
    errors: int = field(init=False)

    def __post_init__(self):
        scores = [r.par2(self.cap) for r in self.records]
        self.solved = sum(r.solved for r in self.records)
        self.disqualified = sum(r.disqualified for r in self.records)
        self.errors = sum(r.status == "error" for r in self.records)
        if scores:
            self.mean_par2, self.ci95 = mean_with_ci(scores)


def mean_with_ci(scores):
    """Mean and 95% Student-t confidence interval of the mean."""
    import scipy.stats  # slow to import; only `dper bench` gets here

    n = len(scores)
    mean = sum(scores) / n
    if n < 2:
        return mean, (mean, mean)
    var = sum((s - mean) ** 2 for s in scores) / (n - 1)
    half = scipy.stats.t.ppf(0.975, n - 1) * math.sqrt(var / n)
    return mean, (mean - half, mean + half)


def apply_reference_answers(records: list[BenchRecord],
                            refs: dict[str, float]) -> None:
    """Disqualify solved records whose answer strays beyond the tolerance."""
    for r in records:
        ref = refs.get(r.name)
        if r.solved and ref is not None and r.answer is not None:
            if abs(r.answer - ref) > REF_TOLERANCE:
                r.disqualified = True
                r.solved = False


def load_reference_answers(text: str) -> dict[str, float]:
    """Parse 'name value' lines; '#' starts a comment.

    Raises ValueError naming the 1-based line of the first malformed entry
    or of a name's second listing.
    """
    out: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            name, value = line.rsplit(None, 1)
            ref = float(value)
            if not math.isfinite(ref):  # NaN would pass every comparison
                raise ValueError
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'name value' with a "
                             f"finite value, got {line!r}") from None
        if name in out:
            raise ValueError(f"line {lineno}: {name!r} is listed twice")
        out[name] = ref
    return out


def records_to_csv(records: list[BenchRecord], cap: float) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "solved", "seconds", "par2", "answer", "width",
                     "nodes_created", "peak_live_nodes", "executor", "status"])
    for r in records:
        writer.writerow([
            r.name,
            int(r.solved),
            f"{r.seconds:.6f}",
            f"{r.par2(cap):.6f}",
            "" if r.answer is None else f"{r.answer:.17g}",
            "" if r.width is None else r.width,
            "" if r.nodes_created is None else r.nodes_created,
            "" if r.peak_live_nodes is None else r.peak_live_nodes,
            r.executor or "",
            r.status,
        ])
    return buf.getvalue()
