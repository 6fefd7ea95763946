"""The traced run: per-layer metrics from spans around each layer's calls.

Spans are recorded by this file, never by the program: explicit spans
around the calls the benchmark makes into a layer's public functions,
and spans from wrapping a few class methods (the analyses, the solver
context, the parser) for the calls layers make into each other.  Class
methods are wrapped rather than module names rebound, so a layer that
changes how it imports another is still counted.  A layer function or
class that has gone missing becomes an absent metric, not a crash.

A *sweep* runs each of the workload's programs three ways:

1. untraced, through the stable surface (``compile_source``,
   ``find_reductions``, the extension idioms) — the overhead baseline;
2. traced: a copy of ``compile_source``'s pass sequence with a span per
   pass (its IR must print identically to ``compile_source``'s, so a
   stale copy is flagged), then detection and extension;
3. per spec: each idiom spec searched on its own, in detection's order,
   with its analyses forced first, so ``search_s.<spec>`` is search
   alone.  The per-spec evaluation counts must add up to the totals the
   detection reports, which flags a stale copy of detection's order.

Sweeps repeat until ``--seconds`` have passed (at least two).  Times
are medians over sweeps, of *self* time (a span's duration minus its
child spans); counts come from the first sweep and must repeat exactly
in every later one.  The import, plan, pipeline, serving and gateway
layers are measured once per run after the sweeps.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

from common import (
    CORPUS_COUNTS,
    CORPUS_FINGERPRINT,
    OUT,
    Result,
    median,
    remove,
    run_child,
    workdir,
)

MIN_SWEEPS = 2

#: ``compile_source``'s pass sequence, per defined function, in order.
PASSES = (
    ("repro.passes.simplify", "remove_unreachable_blocks"),
    ("repro.passes.mem2reg", "promote_allocas"),
    ("repro.passes.simplify", "dead_code_elimination"),
    ("repro.passes.simplify", "remove_trivial_phis"),
    ("repro.passes.simplify", "merge_straightline_blocks"),
    ("repro.passes.licm", "hoist_invariant_loads"),
    ("repro.passes.cse", "local_cse"),
)

#: Class methods wrapped in spans: (module, class, method, span name).
WRAPPED = (
    ("repro.frontend.parser", "Parser", "__init__", "frontend.tokenize"),
    ("repro.analysis.cfg", "CFG", "__init__", "analysis.cfg"),
    ("repro.analysis.dominators", "DominatorTree", "compute",
     "analysis.domtree"),
    ("repro.analysis.loops", "LoopInfo", "__init__", "analysis.loops"),
    ("repro.analysis.scev", "ScalarEvolution", "__init__", "analysis.scev"),
    ("repro.constraints.core", "SolverContext", "__init__",
     "constraints.context"),
)

#: Span name → build-count metric.  ``hoist_invariant_loads`` rebuilds
#: ``LoopInfo`` each time it hoists and visits loops in set (address)
#: order, so these counts can move by a few builds between sweeps; every
#: other count must repeat exactly.
BUILD_COUNTS = {
    "analysis.cfg": "analysis.cfg_builds",
    "analysis.domtree": "analysis.domtree_builds",
    "analysis.loops": "analysis.loopinfo_builds",
    "analysis.scev": "analysis.scev_builds",
}

#: Specs in the order ``find_reductions`` runs them (the for-loop base
#: is solved first), then those of ``find_extended_in_function``.
BASE_SPECS = ("for-loop", "scalar-reduction", "histogram")
EXTENSION_SPECS = ("dot-product", "argminmax", "nested-array-reduction")

#: ``SolverStats`` field → metric.
SOLVER_COUNTERS = {
    "constraint_evals": "constraints.evals",
    "evals_pruned": "constraints.evals_pruned",
    "proposal_cache_hits": "constraints.proposal_cache_hits",
    "prefix_reuses": "constraints.prefix_reuses",
    "trie_reuses": "constraints.trie_reuses",
    "solutions": "constraints.solutions",
}

#: Lazy ``SolverContext`` analyses forced before a per-spec search.
LAZY_ANALYSES = ("loop_info", "scev", "postdom", "control_deps", "purity")


def resolve(module: str, name: str):
    """``module.name``, or None when the layer no longer has it."""
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Nested spans ``[name, start, end, parent index]``, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.enabled = True
        self._patched: list[tuple] = []
        #: Span names of the wrapped class methods.
        self.wrapped: set[str] = set()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Wrapped methods run untraced; explicit spans still record."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr``."""
        raw = owner.__dict__[attr]
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            with tracer.span(name):
                return func(*args, **kwargs)

        setattr(owner, attr,
                classmethod(traced) if isinstance(raw, classmethod)
                else traced)
        self._patched.append((owner, attr, raw))
        self.wrapped.add(name)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched = []


def self_times(spans) -> tuple[dict, dict]:
    """Per span name: (summed self seconds, call count)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _), child in zip(spans, covered):
        seconds[name] = seconds.get(name, 0.0) + (end - start - child)
        calls[name] = calls.get(name, 0) + 1
    return seconds, calls


def metric_name(span: str) -> str:
    if span.startswith("constraints.search."):
        return "constraints.search_s." + span[len("constraints.search."):]
    return span + "_s"


def ir_lines(layers, module) -> list[str]:
    """The printed IR, lines sorted.

    ``hoist_invariant_loads`` visits loops in set order, so the order of
    the loads it hoists into a preheader can differ between two compiles
    of one source; the set of printed lines cannot.
    """
    return sorted(layers.print_module(module).splitlines())


def instruction_count(module) -> int:
    return sum(len(list(f.instructions()))
               for f in module.defined_functions())


# -- the sweep ---------------------------------------------------------------


class Sweep:
    """Everything one sweep over the workload's programs measured."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.untraced_s = 0.0
        self.traced_s = 0.0

    def add(self, metric: str, amount: int) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + amount


class Layers:
    """The layer functions this checkout still has."""

    def __init__(self, notes: list):
        from repro import compile_source

        self.compile_source = compile_source
        self.tokenize = resolve("repro.frontend.lexer", "tokenize")
        self.parse = resolve("repro.frontend.parser", "parse")
        self.lower_program = resolve("repro.frontend.lowering",
                                     "lower_program")
        self.verify_module = resolve("repro.ir", "verify_module")
        self.print_module = resolve("repro.ir", "print_module")
        self.passes = [(name, resolve(module, name))
                       for module, name in PASSES]
        self.find_reductions = resolve("repro.idioms", "find_reductions")
        self.find_extended_in_function = resolve(
            "repro.idioms", "find_extended_in_function")
        self.solver_stats = resolve("repro.constraints", "SolverStats")
        self.solver_context = resolve("repro.constraints", "SolverContext")
        self.detect = resolve("repro.constraints", "detect")
        self.registry = resolve("repro.idioms", "default_registry")
        self.icc = resolve("repro.baselines.icc", "analyze_module")
        self.polly = resolve("repro.baselines.polly", "analyze_module")
        missing = [name for name, value in vars(self).items()
                   if value is None]
        missing += [name for name, fn in self.passes if fn is None]
        for name in missing:
            notes.append(f"layer function {name} is missing: its metrics "
                         f"are absent")
        #: The traced compile needs every frontend piece and every pass.
        self.can_trace_compile = not any(
            value is None for value in (self.parse, self.lower_program,
                                        self.verify_module,
                                        self.print_module)
        ) and all(fn is not None for _, fn in self.passes)


def traced_compile(layers: Layers, tracer: Tracer, source: str, name: str,
                   sweep: Sweep):
    """``compile_source`` with a span per frontend phase and pass."""
    if not layers.can_trace_compile:
        with tracer.span("frontend.compile_source"):
            return layers.compile_source(source, name)
    with tracer.span("frontend.parse"):
        program = layers.parse(source)
    with tracer.span("frontend.lower"):
        module = layers.lower_program(program, name)
    sweep.add("frontend.ir_instructions", instruction_count(module))
    for function in list(module.defined_functions()):
        for pass_name, pass_fn in layers.passes:
            with tracer.span(f"passes.{pass_name}"):
                pass_fn(function)
    with tracer.span("ir.verify"):
        layers.verify_module(module)
    sweep.add("passes.ir_instructions_out", instruction_count(module))
    return module


def detect_and_extend(layers: Layers, tracer: Tracer, module, sweep: Sweep,
                      result: Result, label: str):
    """Detection and the extension idioms, as the library user runs them.

    Returns the detection report, the extension matches and the total
    constraint evaluations the reports charged.
    """
    with tracer.span("idioms.detect"):
        report = layers.find_reductions(module)
    extension_stats = layers.solver_stats()
    extended = SimpleNamespace(dot_products=[], argminmax=[], nested_array=[])
    with tracer.span("idioms.extend"):
        for function in list(module.defined_functions()):
            found = layers.find_extended_in_function(
                function, module, stats=extension_stats)
            extended.dot_products += found.dot_products
            extended.argminmax += found.argminmax
            extended.nested_array += found.nested_array
    sweep.add("idioms.reductions",
              len(report.scalars) + len(report.histograms)
              + len(extended.dot_products) + len(extended.argminmax)
              + len(extended.nested_array))
    total = layers.solver_stats()
    for fr in report.functions:
        per_spec = sum(s.constraint_evals for s in fr.spec_stats.values())
        result.check(per_spec == fr.stats.constraint_evals,
                     f"{label}:{fr.function.name}: per-spec evals "
                     f"{per_spec} != function total "
                     f"{fr.stats.constraint_evals}")
        total.merge(fr.stats)
    total.merge(extension_stats)
    for field, metric in SOLVER_COUNTERS.items():
        if hasattr(total, field):
            sweep.add(metric, getattr(total, field))
    sweep.add("analysis.functions", len(report.functions))
    return report, extended, total.constraint_evals


def spec_walk(layers: Layers, tracer: Tracer, module) -> int:
    """Search every spec on its own; the summed constraint evaluations.

    Runs with the tracer paused, so only the search spans record.
    Mirrors detection: one context for the core specs and a fresh one
    for the extension idioms, the for-loop base solved up front and
    cached in each, exactly as the detectors share it.
    """
    registry = layers.registry()
    evals = 0
    for function in list(module.defined_functions()):
        for specs in (BASE_SPECS, ("for-loop",) + EXTENSION_SPECS):
            ctx = layers.solver_context(function, module)
            for attr in LAZY_ANALYSES:
                getattr(ctx, attr, None)
            for name in specs:
                if name not in registry:
                    continue
                spec = registry.spec(name)
                stats = layers.solver_stats()
                with tracer.span(f"constraints.search.{name}"):
                    solutions = layers.detect(ctx, spec, stats=stats,
                                              cache=ctx.solver_cache)
                if name == "for-loop":
                    ctx.solver_cache.store_solutions(spec, solutions)
                evals += stats.constraint_evals
    return evals


def run_sweep(layers: Layers, tracer: Tracer, programs, result: Result,
              check_program) -> tuple[Sweep, list]:
    sweep = Sweep()
    tracer.take()
    for name, source in programs:
        tokens = len(layers.tokenize(source)) if layers.tokenize else None
        if tokens is not None:
            sweep.add("frontend.tokens", tokens)
        # The same work untraced, right before the traced copy, so both
        # see the same machine state and garbage-collector debt.
        with tracer.paused():
            started = time.perf_counter()
            reference = layers.compile_source(source, name)
            layers.find_reductions(reference)
            for function in list(reference.defined_functions()):
                layers.find_extended_in_function(function, reference)
            sweep.untraced_s += time.perf_counter() - started
        with tracer.span("program"):
            module = traced_compile(layers, tracer, source, name, sweep)
            report, extended, report_evals = detect_and_extend(
                layers, tracer, module, sweep, result, name)
        if layers.print_module is not None:
            result.check(
                ir_lines(layers, module) == ir_lines(layers, reference),
                f"{name}: traced pass sequence prints different IR than "
                f"compile_source (stale copy)")
        check_program(name, report, extended, result)
        with tracer.paused():
            if layers.icc is not None:
                with tracer.span("baselines.icc"):
                    layers.icc(module)
            if layers.polly is not None:
                with tracer.span("baselines.polly"):
                    layers.polly(module)
        if layers.detect is not None and layers.registry is not None:
            with tracer.paused():
                walk_evals = spec_walk(layers, tracer, module)
            result.check(walk_evals == report_evals,
                         f"{name}: per-spec evals sum {walk_evals} != "
                         f"report total {report_evals}")
    spans = tracer.take()
    seconds, calls = self_times(spans)
    # "program" is the root, not a layer: its span is the traced total.
    sweep.traced_s = sum(end - start for name, start, end, _ in spans
                         if name == "program")
    seconds.pop("program", None)
    for span, total in seconds.items():
        sweep.seconds[metric_name(span)] = total
    for span, metric in BUILD_COUNTS.items():
        if span in tracer.wrapped:
            sweep.counts[metric] = calls.get(span, 0)
    return sweep, spans


# -- layers measured once per run --------------------------------------------

IMPORT_SNIPPET = (
    "import sys\n"
    "before = len(sys.modules)\n"
    "import repro\n"
    "print(len(sys.modules) - before)\n"
)

IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def importtime_entries(stderr: str):
    """``(cumulative seconds, depth, module)`` per ``-X importtime`` line."""
    for match in IMPORTTIME.finditer(stderr):
        yield (int(match.group(2)) / 1e6, len(match.group(3)),
               match.group(4))


def measure_imports(tmp, result: Result, out: dict) -> None:
    """``import repro`` and the corpus verb under ``-X importtime``."""
    from cli_cold import check_corpus_run, corpus_argv

    repro_s, numpy_s, modules, verb_s = [], [], set(), []
    for i in range(3):
        run = run_child([sys.executable, "-X", "importtime", "-c",
                         IMPORT_SNIPPET], tmp)
        if not result.check(run.returncode == 0,
                            f"import probe: {run.stderr[-300:]}"):
            continue
        modules.add(int(run.stdout.split()[-1]))
        entries = list(importtime_entries(run.stderr))
        repro_s += [s for s, depth, name in entries
                    if name == "repro" and depth == 1]
        numpy_s.append(sum(s for s, _, name in entries if name == "numpy"))
        report_path = tmp / f"verb{i}.json"
        argv = corpus_argv(report_path)
        run = run_child(argv[:1] + ["-X", "importtime"] + argv[1:], tmp)
        check_corpus_run(run, report_path, result, "importtime corpus run")
        entries = list(importtime_entries(run.stderr))
        first = next((k for k, (_, depth, name) in enumerate(entries)
                      if depth == 1 and name.startswith("repro")), None)
        if first is not None:
            verb_s.append(sum(s for s, depth, _ in entries[first:]
                              if depth == 1))
    result.check(len(modules) == 1,
                 f"import repro loaded varying module counts {modules}")
    if repro_s:
        out["import.repro_s"] = (median(repro_s), "s")
        out["import.numpy_s"] = (median(numpy_s), "s")
        out["import.modules"] = (min(modules), "count")
    if verb_s:
        out["import.corpus_verb_s"] = (median(verb_s), "s")


def measure_plan_compile(out: dict) -> None:
    """Fresh registry plus a compiled plan for every registered spec."""
    registry_cls = resolve("repro.idioms", "IdiomRegistry")
    compile_plan = resolve("repro.constraints.plan", "compile_plan")
    if registry_cls is None or compile_plan is None:
        return
    samples = []
    for _ in range(5):
        registry = registry_cls()
        started = time.perf_counter()
        for entry in registry:
            compile_plan(entry.spec)
        samples.append(time.perf_counter() - started)
    out["constraints.plan_compile_s"] = (median(samples), "s")


def measure_pipeline(result: Result, out: dict) -> None:
    """Warm in-process ``detect_corpus`` and the report's JSON round trip."""
    from repro.pipeline import detect_corpus

    samples = []
    for i in range(4):
        started = time.perf_counter()
        report = detect_corpus(jobs=1, extended=True, baselines=True)
        if i:
            samples.append(time.perf_counter() - started)
    result.check(report.counts() == CORPUS_COUNTS
                 and report.fingerprint(effort=False) == CORPUS_FINGERPRINT,
                 "in-process detect_corpus differs from the pinned report")
    out["pipeline.detect_corpus_s"] = (median(samples), "s")
    to_json = resolve("repro.pipeline", "report_to_json")
    from_json = resolve("repro.pipeline", "report_from_json")
    if to_json is None or from_json is None:
        return
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        rebuilt = from_json(json.loads(json.dumps(to_json(report),
                                                  sort_keys=True)))
        samples.append(time.perf_counter() - started)
        result.check(rebuilt.fingerprint() == report.fingerprint(),
                     "report JSON round trip changed the fingerprint")
    out["pipeline.report_json_s"] = (median(samples), "s")


#: Single-program requests sent to the engine and to the gateway.
SERVING_REQUESTS = 40


def measure_serving(seed: int, result: Result, out: dict) -> None:
    """The in-process engine, then the gateway, on the same requests."""
    import gateway_mixed
    from repro.pipeline import PipelineOptions, ServingEngine

    reference = gateway_mixed.reference_report()
    keys_iter = gateway_mixed.key_sequence(
        [p.key for p in reference.programs], seed)
    keys = [next(keys_iter) for _ in range(SERVING_REQUESTS + 1)]

    def served(serve, key):
        started = time.perf_counter()
        report = serve(key)
        elapsed = time.perf_counter() - started
        result.check(report.programs == (reference.program(*key),),
                     f"served {key} differs from reference")
        return elapsed

    engine = ServingEngine(PipelineOptions(
        jobs=gateway_mixed.WORKERS, extended=True, granularity="function"))
    started = time.perf_counter()
    try:
        engine.start()
        engine.serve([keys[0]], priority="interactive")
        out["pipeline.serving.worker_start_s"] = (
            time.perf_counter() - started, "s")
        result.check(engine.serve().fingerprint() == reference.fingerprint(),
                     "in-process batch differs from reference")
        engine_ms = [1000 * served(
            lambda key: engine.serve([key], priority="interactive"), key)
            for key in keys[1:]]
        out["pipeline.serving.request_ms"] = (median(engine_ms), "ms")
        out["pipeline.serving.dispatch_gap_ms"] = (
            1000 * engine.mean_dispatch_gap(), "ms")
    finally:
        engine.shutdown()

    from repro.pipeline import GatewayClient

    tmp = workdir("trace-gateway")
    try:
        gateway = gateway_mixed.Gateway(tmp, 0)
        try:
            port = gateway.port()
            gateway_mixed.warm_up(port, reference, result)
            with GatewayClient(port=port,
                               timeout=gateway_mixed.CLIENT_TIMEOUT) as client:
                gateway_ms = [1000 * served(
                    lambda key: client.result(client.submit(
                        keys=[key], priority="interactive")), key)
                    for key in keys[1:]]
        finally:
            code, _, rejections = gateway.close()
        result.check(code == 0, f"gateway exited with {code}")
    finally:
        remove(tmp)
    out["pipeline.gateway.overhead_ms"] = (
        median(gateway_ms) - median(engine_ms), "ms")
    if rejections is not None:
        out["pipeline.gateway.rejections"] = (rejections, "count")


# -- workload inputs ---------------------------------------------------------


def corpus_programs():
    from repro.workloads import all_programs

    return [(p.name, p.source) for p in all_programs()]


def workload_programs(workload: str, seed: int):
    """``[(name, source)]`` and a per-program output check."""
    if workload != "lib-generated":
        return corpus_programs(), lambda name, report, extended, result: None
    import generator

    programs = generator.generate(seed)
    expected = {p.name: p.expected for p in programs}

    def check(name, report, extended, result):
        result.check(generator.detection_pairs(report, extended)
                     == expected[name],
                     f"{name}: detections differ from the planted ones")

    return [(p.name, p.source) for p in programs], check


# -- the run -----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float) -> Result:
    result = Result()
    tracer = Tracer()
    layers = Layers(result.notes)
    programs, check_program = workload_programs(workload, seed)
    for module, cls, attr, name in WRAPPED:
        owner = resolve(module, cls)
        if owner is None or attr not in owner.__dict__:
            result.notes.append(f"{cls}.{attr} is missing: {name} metrics "
                                f"are absent")
            continue
        tracer.wrap(owner, attr, name)
    sweeps, first_spans = [], None
    try:
        # Warm the registry and plans so the first sweep is not special.
        run_sweep(layers, tracer, programs[:1], Result(), check_program)
        deadline = time.perf_counter() + seconds
        while len(sweeps) < MIN_SWEEPS or time.perf_counter() < deadline:
            sweep, spans = run_sweep(layers, tracer, programs, result,
                                     check_program)
            if first_spans is None:
                first_spans = spans
            sweeps.append(sweep)
    finally:
        tracer.restore()
    for sweep in sweeps[1:]:
        for metric, count in sweeps[0].counts.items():
            if sweep.counts.get(metric) == count:
                continue
            line = (f"{metric} differs between sweeps: {count} then "
                    f"{sweep.counts.get(metric)}")
            if metric in BUILD_COUNTS.values():
                note = f"note: {line} (loop order of hoist_invariant_loads)"
                if note not in result.notes:
                    result.notes.append(note)
            else:
                result.fail(line)

    out: dict[str, tuple] = {}
    for metric in sweeps[0].seconds:
        out[metric] = (median([s.seconds.get(metric, 0.0) for s in sweeps]),
                       "s")
    functions = sweeps[0].counts.pop("analysis.functions", 0)
    for metric, count in sweeps[0].counts.items():
        out[metric] = (count, "count")
    if "analysis.cfg_builds" in out and functions:
        out["analysis.cfg_builds_per_function"] = (
            out["analysis.cfg_builds"][0] / functions, "count/function")
    out["trace.overhead_pct"] = (100.0 * (
        median([s.traced_s for s in sweeps])
        / median([s.untraced_s for s in sweeps]) - 1.0), "%")

    tmp = workdir("trace")
    try:
        measure_imports(tmp, result, out)
    finally:
        remove(tmp)
    measure_plan_compile(out)
    measure_pipeline(result, out)
    measure_serving(seed, result, out)

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    origin = first_spans[0][1] if first_spans else 0.0
    trace_path.write_text(json.dumps([
        {"name": name, "start": start - origin, "end": end - origin,
         "parent": parent}
        for name, start, end, parent in first_spans
    ]))
    for metric in sorted(out):
        if metric in PER_LAYER:
            value, unit = out[metric]
            result.put(metric, value, unit)
    result.notes += [
        f"{len(programs)} programs per sweep, {len(sweeps)} sweeps; "
        f"spans of the first sweep written to {trace_path.name}",
        f"tracing overhead {out['trace.overhead_pct'][0]:.1f}% "
        f"(traced {median([s.traced_s for s in sweeps]):.3f} s vs "
        f"untraced {median([s.untraced_s for s in sweeps]):.3f} s "
        f"per sweep)",
    ]
    return result


#: Every per-layer metric this file can report, in BENCHMARK.json order.
PER_LAYER = [
    "import.repro_s", "import.numpy_s", "import.modules",
    "import.corpus_verb_s",
    "frontend.tokenize_s", "frontend.tokens", "frontend.parse_s",
    "frontend.lower_s", "frontend.ir_instructions",
] + [f"passes.{name}_s" for _, name in PASSES] + [
    "ir.verify_s", "passes.ir_instructions_out",
    "analysis.cfg_builds", "analysis.domtree_builds",
    "analysis.loopinfo_builds", "analysis.scev_builds",
    "analysis.cfg_s", "analysis.domtree_s", "analysis.loops_s",
    "analysis.scev_s", "analysis.cfg_builds_per_function",
    "constraints.plan_compile_s", "constraints.context_s",
] + [f"constraints.search_s.{name}"
     for name in BASE_SPECS + EXTENSION_SPECS] + [
    "constraints.evals", "constraints.evals_pruned",
    "constraints.proposal_cache_hits", "constraints.prefix_reuses",
    "constraints.trie_reuses", "constraints.solutions",
    "idioms.detect_s", "idioms.extend_s", "idioms.reductions",
    "baselines.icc_s", "baselines.polly_s",
    "pipeline.detect_corpus_s", "pipeline.report_json_s",
    "pipeline.serving.request_ms", "pipeline.serving.dispatch_gap_ms",
    "pipeline.serving.worker_start_s", "pipeline.gateway.overhead_ms",
    "pipeline.gateway.rejections", "trace.overhead_pct",
]
