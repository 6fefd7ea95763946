"""Corpus work units, their static cost weights and the LPT service
order.

Work is split into :class:`WorkUnit`\\ s — a whole program, or one
``(program, function)`` pair for function-granularity runs where a
single giant program must not serialize the whole run.  Parallel runs
serve units heaviest-first (:func:`lpt_order`): the serving engine's
workers pull from one queue in that order, so the longest units start
first and the short tail fills the gaps.  A unit's weight is a static
proxy (:func:`unit_weight`) — source length for a program,
instruction count for a function — cheap, available cold, and
correlated with detection effort well enough to order the pull queue.
Corpus sources never change, so each unit's weight is computed once per
process.  A program's functions are listed and weighed from a
per-process function index that keeps no IR, so a serving parent
plans function units without holding a compiled module per program.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

Key = tuple[str, str]

@dataclass(frozen=True)
class WorkUnit:
    """One schedulable piece of corpus work.

    ``function=None`` is a whole program.  Otherwise the unit is one
    defined function of the program; ``lead`` marks exactly one unit
    per program as the carrier of the program-level stages (the
    baseline models run once per program, not once per function).
    """

    name: str
    suite: str
    function: str | None = None
    lead: bool = True

    @property
    def key(self) -> Key:
        return (self.name, self.suite)


def unit_weight(unit: WorkUnit) -> float:
    """Static cost proxy for one work unit.

    Whole programs weigh their source length; function units weigh
    1 + the function's instruction count, read from the program's
    function index (the one the unit planner built to enumerate its
    functions).  Detection effort grows with function count and
    size, and both proxies track it well enough to order work
    without running anything.  Computed once per unit for the life
    of the process: a long-lived server re-plans the same corpus
    units on every submit.
    """
    return _weight(unit.name, unit.suite, unit.function)


@functools.cache
def _weight(name: str, suite: str, function: str | None) -> float:
    if function is None:
        from ..workloads import program

        return float(len(program(name, suite).source))
    return _function_index(name, suite)[function]


@functools.cache
def _function_index(name: str, suite: str) -> dict[str, float]:
    """Each defined function of a corpus program → its unit weight
    (1 + instruction count), in module order.

    Built once per process from a ``fresh_module()`` compile that is
    dropped straight after, never from the program's cached
    ``compile()``: planning
    function units needs only names and sizes, and a long-lived
    serving parent would otherwise keep every planned program's IR
    for its whole life.  Callers must not mutate the returned dict.
    """
    from ..workloads import program

    module = program(name, suite).fresh_module()
    return {
        function.name: float(1 + sum(1 for _ in function.instructions()))
        for function in module.defined_functions()
    }


def plan_units(
    keys: Sequence[Key], granularity: str = "program"
) -> list[WorkUnit]:
    """Expand corpus keys into schedulable work units.

    ``granularity="program"`` maps each key to one whole-program unit.
    ``granularity="function"`` splits every program into per-function
    units (in the module's function order, so merged results are
    reproducible); the first unit of each program is the ``lead`` that
    also runs the program-level stages.  A program with no defined
    functions stays whole.
    """
    if granularity not in ("program", "function"):
        raise ValueError(
            f"granularity must be 'program' or 'function', "
            f"got {granularity!r}"
        )
    if granularity == "program":
        return [WorkUnit(name, suite) for name, suite in keys]
    units: list[WorkUnit] = []
    for name, suite in keys:
        functions = _function_index(name, suite)
        if not functions:
            units.append(WorkUnit(name, suite))
            continue
        for i, function in enumerate(functions):
            units.append(
                WorkUnit(name, suite, function=function, lead=(i == 0))
            )
    return units


def lpt_order(units: Sequence[WorkUnit]) -> list[WorkUnit]:
    """``units`` heaviest-first, ties broken by input position.

    The longest-processing-time service order of the serving engine,
    whose workers pull from one queue in this order.  Each unit's
    :func:`unit_weight` is evaluated exactly once (it may load a
    program and build its function index); the sort is stable, so
    equal weights keep their input order.
    """
    return sorted(units, key=unit_weight, reverse=True)
