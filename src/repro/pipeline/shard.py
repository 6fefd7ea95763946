"""Corpus work units, their cost weights and the LPT service order.

Work is split into :class:`WorkUnit`\\ s — a whole program, or one
``(program, function)`` pair for function-granularity runs where a
single giant program must not serialize the whole run.  Parallel runs
serve units heaviest-first (:func:`lpt_order`): the serving engine's
workers pull from one queue in that order, so the longest units start
first and the short tail fills the gaps.  The order is a pure function
of ``(items, weights)``.

Weights come from one of two sources:

* the **static proxy** — source length for a program, instruction
  count for a function: cheap, available cold, correlates with
  detection effort well enough to order a first run;
* **measured costs** (:func:`measured_weights`) — the recorded
  ``stage_seconds`` / ``constraint_evals`` of a previous run's digests,
  mirroring the cost-aware ``suggest_order``: feed observed effort
  back in and the service order follows what detection actually cost,
  with the static proxy as the cold-start fallback for unseen work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .digest import CorpusReport

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


def default_weight(key: Key) -> int:
    """Static cost proxy: the program's source length.

    Detection effort grows with function count and size; source length
    tracks both well enough to order work without running anything.
    """
    from ..workloads import program

    return len(program(key[0], key[1]).source)


def unit_weight(unit: WorkUnit) -> float:
    """Static cost proxy for one work unit.

    Whole programs weigh their source length; function units weigh the
    function's instruction count (from the cached compile — the unit
    planner already compiled the program to enumerate its functions).
    """
    if unit.function is None:
        return float(default_weight(unit.key))
    from ..workloads import program

    module = program(unit.name, unit.suite).compile()
    function = module.get_function(unit.function)
    return float(1 + sum(1 for _ in function.instructions()))


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
    from ..workloads import program

    units: list[WorkUnit] = []
    for name, suite in keys:
        module = program(name, suite).compile()
        functions = [f.name for f in module.defined_functions()]
        if not functions:
            units.append(WorkUnit(name, suite))
            continue
        for i, function in enumerate(functions):
            units.append(
                WorkUnit(name, suite, function=function, lead=(i == 0))
            )
    return units


def measured_weights(
    report: "CorpusReport",
) -> Callable[[WorkUnit | Key], float]:
    """A weight source backed by a previous run's measured costs.

    Program-level weights prefer the recorded per-stage wall clock
    (``ProgramDigest.stage_seconds``, summed); function-level weights
    are the function's ``constraint_evals`` — the solver effort that
    dominates the detect stage.  Both are expressed on the *seconds*
    scale (eval counts are rescaled by the report-wide seconds/eval
    ratio), so program and function units stay commensurable when one
    schedule mixes the two.

    **Cold-start blending**: work absent from the report (new
    programs, renamed functions) is scheduled at its *static proxy
    scaled into the measured distribution* — the proxy (source length
    for a program, instruction count for a function) divided by the
    mean proxy of the report's own entries, times the measured mean.
    Big unseen programs land heavier than small ones, yet stay on the
    measured scale, so one cold key cannot unbalance a warm schedule.
    Two graceful degradations bound the blend: an item whose proxy is
    unavailable (not in the corpus) falls back to the measured mean,
    and a report with *zero* resolvable entries of a kind — pure cold
    start — degrades to weights proportional to the static proxy,
    which order work identically to the proxy itself (LPT is
    invariant under positive scaling).
    """
    program_cost: dict[Key, float] = {}
    function_cost: dict[tuple[Key, str], float] = {}
    # Eval counts (thousands) and stage seconds (~0.01) are not
    # commensurable; everything below is rescaled onto the seconds
    # scale by the report-wide seconds/eval ratio, so untimed programs
    # and function units cannot jump the service order among
    # second-scale peers.
    timed = [
        (sum(d.stage_seconds.values()), 1 + d.constraint_evals)
        for d in report.programs
        if sum(d.stage_seconds.values()) > 0.0
    ]
    timed_seconds = sum(seconds for seconds, _ in timed)
    timed_evals = sum(evals for _, evals in timed)
    seconds_per_eval = (
        timed_seconds / timed_evals if timed_evals and timed_seconds else 1.0
    )
    for digest in report.programs:
        seconds = sum(digest.stage_seconds.values())
        program_cost[digest.key] = (
            seconds
            if seconds > 0.0
            else (1 + digest.constraint_evals) * seconds_per_eval
        )
        for function in digest.functions:
            function_cost[(digest.key, function.function)] = (
                (1 + function.constraint_evals) * seconds_per_eval
            )

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 1.0

    program_mean = mean(program_cost.values())
    function_mean = mean(function_cost.values())

    # Mean static proxy of the report's own entries, one baseline per
    # unit kind — the denominator that scales an unseen item's proxy
    # into the measured distribution.  Computed lazily (the function
    # baseline compiles the report's programs) and cached; entries the
    # current corpus cannot resolve are skipped, and a baseline with
    # no resolvable entries stays None (→ measured-mean fallback).
    proxy_baseline: dict[str, float | None] = {}

    def _proxy_of(unit: WorkUnit) -> float | None:
        # KeyError is the expected resolution failure — a program not
        # in the current corpus, or a function the program no longer
        # defines (both lookups raise it).  Anything else (a compile
        # crash, a corrupted module) is a genuine bug and must
        # propagate instead of silently degrading to the measured
        # mean.
        try:
            return unit_weight(unit)
        except KeyError:
            return None

    def _baseline(kind: str) -> float | None:
        if kind in proxy_baseline:
            return proxy_baseline[kind]
        if kind == "program":
            proxies = [
                p for p in (
                    _proxy_of(WorkUnit(*key)) for key in program_cost
                ) if p is not None
            ]
        else:
            proxies = [
                p for p in (
                    _proxy_of(WorkUnit(key[0], key[1], function=name))
                    for (key, name) in function_cost
                ) if p is not None
            ]
        proxy_baseline[kind] = (
            sum(proxies) / len(proxies) if proxies else None
        )
        return proxy_baseline[kind]

    def weight(item: WorkUnit | Key) -> float:
        unit = (
            item
            if isinstance(item, WorkUnit)
            else WorkUnit(item[0], item[1])
        )
        if unit.function is not None:
            measured = function_cost.get((unit.key, unit.function))
            measured_mean, kind = function_mean, "function"
        else:
            measured = program_cost.get(unit.key)
            measured_mean, kind = program_mean, "program"
        if measured is not None:
            return measured
        if not report.programs:
            # Empty report: nothing measured at all, so the blend *is*
            # the static proxy (modulo the unresolvable fallback).
            proxy = _proxy_of(unit)
            return proxy if proxy is not None else measured_mean
        # Cold start for unseen work: the static proxy scaled into the
        # measured distribution.  Raw proxies (characters,
        # instructions) are not commensurable with seconds, so the
        # proxy is normalized by the report's own mean proxy and
        # re-expressed at the measured mean — differentiated like the
        # proxy, scaled like the measurements.
        proxy = _proxy_of(unit)
        baseline = _baseline(kind) if proxy is not None else None
        if proxy is None or baseline is None or baseline <= 0.0:
            return measured_mean
        return measured_mean * proxy / baseline

    return weight


def lpt_order(
    items: Sequence[Hashable], weight: Callable | None = None
) -> list:
    """``items`` heaviest-first, ties broken by input position.

    The longest-processing-time service order of the serving engine,
    whose workers pull from one queue in this order.  ``weight``
    defaults to the static proxy (:func:`unit_weight` for work units,
    :func:`default_weight` for corpus keys) and is evaluated exactly
    once per item — cost sources may load programs or walk digests.
    """
    items = list(items)
    if weight is None:
        weight = (
            unit_weight
            if items and isinstance(items[0], WorkUnit)
            else default_weight
        )
    weights = {item: weight(item) for item in items}
    position = {item: i for i, item in enumerate(items)}
    return sorted(items, key=lambda k: (-weights[k], position[k]))
