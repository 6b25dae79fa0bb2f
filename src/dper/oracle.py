"""Exhaustive enumeration of the exist-random objective, for ground truth.

Assignments over the randomized block are enumerated in binary-counter order
(lowest variable id = least significant bit) and summed strictly left to
right in double precision.  The full enumeration reuses the exact same
per-row arithmetic as weighted_count, so the argmax set can be selected with
exact float equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formula import Problem

ENUM_GUARD = 24  # enumeration is 2^k; beyond this we refuse to try


class EnumerationGuardError(Exception):
    """Instance too large for brute-force enumeration."""


@dataclass
class OracleResult:
    maximum: float
    maximizers: list[dict[int, bool]]    # every optimal existential assignment


def _y_weight_table(p: Problem, yvars: list[int]) -> np.ndarray:
    """Weight of each randomized assignment, indexed as a bit counter."""
    w = np.ones(1 << len(yvars))
    idx = np.arange(len(w))
    for bit, y in enumerate(yvars):
        is_one = (idx >> bit) & 1
        w *= np.where(is_one, p.pr[y], 1.0 - p.pr[y])
    return w


def _clause_masks(p: Problem, xbit: dict[int, int], ybit: dict[int, int]):
    """Per clause: bitmasks of positive/negative literals in each block."""
    masks = []
    for clause in p.clauses:
        px = nx = py = ny = 0
        for lit in clause:
            v = abs(lit)
            if v in ybit:
                if lit > 0:
                    py |= 1 << ybit[v]
                else:
                    ny |= 1 << ybit[v]
            else:
                if lit > 0:
                    px |= 1 << xbit[v]
                else:
                    nx |= 1 << xbit[v]
        masks.append((px, nx, py, ny))
    return masks


def _row_sums(sat: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Left-to-right sum of satisfied weights along each row."""
    masked = np.where(sat, weights, 0.0)
    if masked.shape[-1] == 1:
        return masked[..., 0]
    return np.cumsum(masked, axis=-1)[..., -1]


def weighted_count(p: Problem, tau_x: dict[int, bool]) -> float:
    """Probability that a random assignment to Y satisfies phi under tau_x.

    tau_x must be total over the existential block.
    """
    if len(p.Y) > ENUM_GUARD:
        raise EnumerationGuardError(
            f"|Y| = {len(p.Y)} exceeds enumeration guard {ENUM_GUARD}")
    missing = p.X - set(tau_x)
    if missing:
        raise ValueError(f"assignment missing existential variables {sorted(missing)}")
    yvars = sorted(p.Y)
    ybit = {y: i for i, y in enumerate(yvars)}
    b = np.arange(1 << len(yvars))
    sat = np.ones(len(b), dtype=bool)
    for clause in p.clauses:
        fixed_true = False
        pos = neg = 0
        for lit in clause:
            v = abs(lit)
            if v in ybit:
                if lit > 0:
                    pos |= 1 << ybit[v]
                else:
                    neg |= 1 << ybit[v]
            elif tau_x[v] == (lit > 0):
                fixed_true = True
                break
        if not fixed_true:
            sat &= ((b & pos) != 0) | ((~b & neg) != 0)
    return float(_row_sums(sat, _y_weight_table(p, yvars)))


def enumerate_solve(p: Problem) -> OracleResult:
    """Maximum over all existential assignments plus the full argmax set."""
    if len(p.X) + len(p.Y) > ENUM_GUARD:
        raise EnumerationGuardError(
            f"|X| + |Y| = {len(p.X) + len(p.Y)} exceeds enumeration guard "
            f"{ENUM_GUARD}")
    xvars = sorted(p.X)
    yvars = sorted(p.Y)
    xbit = {x: i for i, x in enumerate(xvars)}
    ybit = {y: i for i, y in enumerate(yvars)}
    a = np.arange(1 << len(xvars))[:, None]
    b = np.arange(1 << len(yvars))[None, :]
    sat = np.ones((a.shape[0], b.shape[1]), dtype=bool)
    for px, nx, py, ny in _clause_masks(p, xbit, ybit):
        sat &= (((a & px) != 0) | ((~a & nx) != 0)
                | ((b & py) != 0) | ((~b & ny) != 0))
    vals = _row_sums(sat, _y_weight_table(p, yvars))

    maximum = float(vals.max())
    argmax_rows = np.nonzero(vals == maximum)[0]  # exact ties only
    maximizers = [
        {x: bool((int(m) >> i) & 1) for i, x in enumerate(xvars)}
        for m in argmax_rows
    ]
    return OracleResult(maximum=maximum, maximizers=maximizers)
