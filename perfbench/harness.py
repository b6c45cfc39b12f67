"""Closed-loop runner shared by the workloads: one caller, one call at a time.

Each timed operation is one call into archtext. Its output is checked
after the clock stops; an exception or a failed check counts as a failed
operation and its time is left out of every metric.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


CHECK = "check"   # the phase of calls a check makes; no metric counts them


class CheckError(Exception):
    """An output that is wrong for its input."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Op:
    """One call into the program.

    `check` raises CheckError on a wrong output and otherwise returns a
    summary of it; two ops with the same `key` must return equal summaries
    (the same input scored twice, or the same training step replayed).
    `unit` is (group, index): ops with the same unit make one latency sample
    (e.g. the four runner calls of an eval round); None keeps the op out of
    the latency samples.
    """

    phase: str
    items: int
    call: Callable[[], Any]
    check: Callable[[Any], Any]
    key: Any = None
    unit: Any = None


class TimeBudget:
    """Admits operations until `seconds` have passed since construction, and
    always a phase's first one, so every phase yields a measurement."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()

    def allows(self, phase: str, done: int) -> bool:
        return done == 0 or time.perf_counter() - self.start < self.seconds


class CountBudget:
    """Admits a fixed number of operations per phase, so traced runs do the
    same work every time and their counts repeat exactly."""

    def __init__(self, counts: dict[str, int]):
        self.counts = counts

    def allows(self, phase: str, done: int) -> bool:
        return done < self.counts[phase]


def percentile_tail(samples: list[float]) -> tuple[float, float, float, int]:
    """(median, tail, tail percentile, sample count).

    The tail is the highest percentile with at least ten samples beyond it;
    with ten samples or fewer it is the maximum.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return math.nan, math.nan, math.nan, 0
    if n <= 10:
        return statistics.median(xs), xs[-1], 100.0, n
    return statistics.median(xs), xs[n - 11], 100.0 * (n - 10) / n, n


@dataclass
class Tally:
    """What a pass did: one (phase, unit, items, seconds) record per
    successful op, and the attempted and failed operation counts.

    Rates are medians over ops or units, not totals: a burst of noise on a
    shared machine moves a median less than a sum.
    """

    records: list[tuple[str, Any, int, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0

    def fail(self, what: str, err: BaseException) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {what}: {type(err).__name__}: {err}", file=sys.stderr)

    @property
    def items(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for phase, _, n, _ in self.records:
            out[phase] += n
        return dict(out)

    def _units(self, group: str) -> list[tuple[int, float]]:
        units: dict[Any, list] = {}
        for _, unit, n, s in self.records:
            if unit is not None and unit[0] == group:
                u = units.setdefault(unit, [0, 0.0])
                u[0] += n
                u[1] += s
        return [tuple(u) for u in units.values()]

    def unit_rate(self, group: str) -> float:
        """Median items per second over the group's units."""
        return _median([n / s for n, s in self._units(group) if s > 0])

    def phase_rate(self, phase: str) -> float:
        """Median items per second over the phase's ops."""
        return _median([n / s for p, _, n, s in self.records if p == phase and s > 0])

    def latencies_ms(self, group: str) -> list[float]:
        return [1e3 * s for _, s in self._units(group)]


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else math.nan


def run_ops(ops: Iterable[Op], tally: Tally, memo: dict, tracer=None) -> Tally:
    """Call each op in turn, timing only the call."""
    start = time.perf_counter()
    for op in ops:
        tally.attempted += 1
        if tracer is not None:
            tracer.phase = op.phase
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as err:  # a failed call is counted, never fatal
            tally.fail(f"{op.phase} call", err)
            continue
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.phase = CHECK
        try:
            summary = op.check(out)
            if op.key is not None:
                seen = memo.setdefault(op.key, summary)
                require(seen == summary, f"output for {op.key!r} changed on repeat")
        except Exception as err:
            tally.fail(f"{op.phase} check", err)
            continue
        tally.records.append((op.phase, op.unit, op.items, dt))
    tally.wall = time.perf_counter() - start
    return tally


def compare_reference(got: dict, ref: dict, tally: Tally) -> None:
    """Each reference entry is one attempted check: the value, and beside
    each float reference the tolerance a reordered but equivalent
    computation stays within."""
    for name, entry in ref.items():
        tally.attempted += 1
        try:
            require(name in got, f"reference output {name!r} was not produced")
            _match(got[name]["value"], entry["value"], entry.get("abs_tol"),
                   entry.get("rel_tol"), name)
        except Exception as err:
            tally.fail(f"reference {name}", err)


def _match(got, want, abs_tol, rel_tol, where: str) -> None:
    if isinstance(want, list):
        require(isinstance(got, (list, tuple)) and len(got) == len(want),
                f"{where}: length {len(got) if isinstance(got, (list, tuple)) else '-'}"
                f" != {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            _match(g, w, abs_tol, rel_tol, f"{where}[{i}]")
    elif isinstance(want, dict):
        require(isinstance(got, dict) and sorted(got) == sorted(want),
                f"{where}: keys differ")
        for k in want:
            _match(got[k], want[k], abs_tol, rel_tol, f"{where}.{k}")
    elif isinstance(want, float) and (abs_tol is not None or rel_tol is not None):
        require(isinstance(got, (int, float)) and math.isclose(
            got, want, abs_tol=abs_tol or 0.0, rel_tol=rel_tol or 0.0),
            f"{where}: {got!r} != {want!r} (abs_tol={abs_tol}, rel_tol={rel_tol})")
    else:
        require(got == want, f"{where}: {got!r} != {want!r}")
