"""Command line interface: ``python -m repro <command> ...``.

Commands
--------

``detect FILE.c``
    Compile a mini-C file and report every detected reduction (plus the
    icc/Polly baseline verdicts with ``--baselines`` and the §8
    extension idioms with ``--extended``).  ``--spec`` adds user
    ``.icsl`` idiom files (custom idioms are matched and counted; a
    file idiom named like a built-in replaces it), ``--list-idioms``
    prints the registry.  ``--save-feedback`` records the run's
    per-spec solver statistics as a feedback artifact;
    ``--feedback-from`` re-orders every measured spec from one.

``lint [FILE.icsl ...]``
    Statically analyze idiom spec files (default: the six shipped
    specs, plus the cross-spec registry sweep).  Reports unconstrained
    order labels, labels with no guaranteed proposer at their depth,
    value-kind conflicts, constant (always-true/false) conjuncts,
    broken ``extends`` prefixes, the plan compiler's redundancy
    pruning, unused ``# lint: ignore[...]`` suppressions and pairwise
    idiom subsumption measured on a synthesized micro-universe.  Every
    finding carries a stable ``ICSL0xx`` code, a source span and a fix
    hint.  ``--strict`` promotes warnings to a nonzero exit, ``--json``
    emits the machine-readable report, ``--notes`` shows the
    engine-pruning notes, ``--no-cross`` skips the subsumption sweep.
    Exit status: 2 when a file fails to parse, 1 on gating findings,
    0 when clean.

``emit FILE.c``
    Print the canonical SSA IR after the full pass pipeline.

``parallelize FILE.c``
    Detect, plan, outline and run the program sequentially and on the
    simulated multicore machine; reports the simulated speedup.

``corpus``
    Run detection over the built-in 40-program corpus through the
    batched pipeline and print the Figure 8 panels.  ``--jobs N``
    serves the work on N worker processes (the merged report is
    identical to the serial one); ``--extended`` also runs the §8
    extension idioms; ``--granularity function`` ships
    ``(program, function)`` units so one giant module cannot serialize
    the run; work units are served heaviest-first by a static size
    proxy; ``--save-report`` records this run's digests (costs
    included); ``--save-feedback``/``--feedback-from`` record and
    replay the corpus-wide **solver feedback store** (per-spec search
    statistics that re-order every spec's label enumeration).  A
    report carrying ``UnitFailure`` records exits with status 3 unless
    ``--allow-failures``.

``serve``
    Run the same corpus through the **persistent serving engine**:
    long-lived workers, async submission, per-program digests streamed
    as they complete.  ``--requests N`` submits the corpus N times
    (the warm-worker path); ``--priority interactive|batch`` picks the
    scheduling class (interactive units overtake queued batch units);
    ``--max-tasks-per-worker N`` recycles each worker after N units;
    ``--cancel-after N`` cancels the *first* request after N streamed
    digests (later requests must — and do — still complete, the
    cancellation smoke); ``--check`` verifies the served report is
    fingerprint-identical to a serial batch run and exits non-zero on
    mismatch.  ``--feedback-from`` warms every worker's spec orders
    from a recorded feedback artifact, ``--self-tune`` re-derives the
    orders from served units at every submit, and ``--save-feedback``
    persists the session's merged store on exit; failed units exit 3
    unless ``--allow-failures``.

``feedback``
    Operate on recorded solver-feedback artifacts (the lifecycle side
    of ``--save-feedback``/``--feedback-from``; see
    ``docs/feedback.md``).  ``inspect ART.json`` prints the artifact's
    version, fingerprint, per-spec statistics, measured per-order
    observations and the orders a consuming run would derive
    (``--json`` for the machine-readable form); ``diff A.json B.json``
    compares two artifacts (exit 1 when they differ, 0 when
    identical); ``decay ART.json --keep R`` scales every recorded
    counter to ``R`` of its value (``--out`` writes elsewhere,
    default in place) — the retention knob that lets a drifted
    workload re-learn.  All output is deterministic: same artifacts,
    same bytes.

``gateway``
    Put the **socket gateway** in front of the serving engine: a
    long-lived TCP server (length-prefixed JSON frames) that any
    number of ``repro submit`` clients stream digests from
    concurrently.  ``--port 0`` binds an ephemeral port;
    ``--port-file FILE`` writes the bound port for clients to
    discover; ``--unit-budget N`` sets the per-connection admission
    budget (submits past it are rejected with a structured retry-after
    frame); ``--serve-seconds N`` exits after N seconds (otherwise
    serve until SIGINT/SIGTERM).

``submit``
    Submit programs to a running gateway and stream the results.
    ``--port-file FILE`` polls the server's port file; ``--program
    SUITE/NAME`` (repeatable) picks a corpus slice (default: the whole
    corpus); ``--priority interactive|batch`` picks the scheduling
    class; ``--cancel-after N`` cancels mid-stream after N digests;
    ``--check`` verifies the served report is fingerprint-identical to
    a local ``jobs=1`` batch run.  An admission rejection prints the
    retry-after hint and exits 4.
"""

from __future__ import annotations

import argparse
import sys

from . import compile_source, find_reductions, outline_loop, plan_all
from .ir import print_module
from .runtime import MachineModel, ParallelExecutor
from .runtime.parallel import run_sequential


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _build_registry(spec_paths, lint: bool = False):
    from .idioms import IdiomRegistry

    registry = IdiomRegistry(lint=lint)
    for path in spec_paths or ():
        registry.load_file(path)
    return registry


def _failure_exit(failures, allow_failures: bool,
                  describe: bool = True) -> int:
    """Print ``UnitFailure`` records; the exit code they mandate.

    The ``CorpusReport.failures`` contract: a report listing failures
    covers only the programs that completed, so consumers must not
    treat it as a full-corpus result by accident — ``corpus`` and
    ``serve`` exit with status 3 unless ``--allow-failures`` says the
    partial report is acceptable.  ``describe=False`` skips the
    per-failure lines for callers that already streamed them.
    """
    if describe:
        for failure in failures:
            print(f"FAILED {failure.describe()}", file=sys.stderr)
    if failures and not allow_failures:
        print(
            f"error: {len(failures)} unit(s) failed; the report is "
            f"partial (pass --allow-failures to accept it)",
            file=sys.stderr,
        )
        return 3
    return 0


def _feedback_error(exc) -> int:
    """Print the shared artifact-load error; the exit code (2)."""
    print(f"error: cannot load feedback artifact: {exc}",
          file=sys.stderr)
    return 2


def _load_feedback_cli(path: str):
    """``(store, None)`` or ``(None, exit code)`` with the error printed."""
    from .pipeline import load_feedback

    try:
        return load_feedback(path), None
    except (OSError, ValueError) as exc:
        return None, _feedback_error(exc)


def _save_feedback_cli(store, path: str) -> None:
    from .pipeline import save_feedback

    save_feedback(store, path)
    print(f"feedback saved to {path} ({store.describe()})")


def _cmd_detect(args) -> int:
    from .constraints import (
        SolverContext,
        SolverStats,
        SpecFileError,
        detect as solve,
    )

    try:
        registry = _build_registry(args.spec, lint=args.lint)
    except (OSError, ValueError, SpecFileError) as exc:
        # ValueError covers UnicodeDecodeError from non-text files.
        print(f"error: cannot load spec file: {exc}", file=sys.stderr)
        if isinstance(exc, SpecFileError):
            rendered = exc.render()
            if rendered != str(exc):
                print(rendered, file=sys.stderr)
        return 2
    if args.feedback_from:
        store, code = _load_feedback_cli(args.feedback_from)
        if store is None:
            return code
        reordered = registry.apply_orders(store.spec_orders(registry))
        if reordered:
            names = ", ".join(entry.name for entry in reordered)
            print(f"feedback: reordered {names}")
    if args.list_idioms:
        print(registry.describe())
        if args.file is None:
            return 0
    if args.file is None:
        print("error: a FILE.c argument is required unless --list-idioms",
              file=sys.stderr)
        return 2
    module = compile_source(_read(args.file), args.file)
    report = find_reductions(module, registry=registry)
    print(report.summary())
    for scalar in report.scalars:
        arrays = ", ".join(b.short_name() for b in scalar.input_bases)
        print(f"  scalar    {scalar.name}  op={scalar.op.value}  "
              f"reads [{arrays}]")
    for histogram in report.histograms:
        kind = "affine" if histogram.idx_affine else "indirect"
        checks = "; ".join(c.describe() for c in histogram.runtime_checks)
        print(f"  histogram {histogram.name}  op={histogram.op.value}  "
              f"({kind} index)  checks [{checks}]")
    if args.extended:
        from .idioms import find_extended_in_function

        for function_reductions in report.functions:
            extensions = find_extended_in_function(
                function_reductions.function, module, registry=registry,
                ctx=function_reductions.solver_context,
                stats=function_reductions.stats,
                spec_stats=function_reductions.spec_stats,
            )
            for dot in extensions.dot_products:
                print(f"  extension dot-product {dot.name}")
            for match in extensions.argminmax:
                print(f"  extension argminmax {match.name}")
            for nested in extensions.nested_array:
                print(f"  extension nested-array-reduction {nested.name}"
                      f"  op={nested.op.value}")
    custom = registry.custom()
    if custom:
        # Reuse the analyses detection already computed per function.
        for fr in report.functions:
            if fr.solver_context is None:
                fr.solver_context = SolverContext(fr.function, module)
        for entry in custom:
            total = 0
            for fr in report.functions:
                stats = SolverStats()
                matches = solve(fr.solver_context, entry.spec, stats=stats)
                fr.spec_stats.setdefault(
                    entry.name, SolverStats()
                ).merge(stats)
                if fr.stats is not None:
                    # Keep the documented invariant: the function
                    # aggregate is always the merge of the breakdown.
                    fr.stats.merge(stats)
                if matches:
                    print(f"  custom    {entry.name}  {len(matches)} "
                          f"match(es) in {fr.function.name}")
                total += len(matches)
            if total == 0:
                print(f"  custom    {entry.name}  no matches")
    if args.baselines:
        from .baselines import icc, polly

        icc_report = icc.analyze_module(module)
        polly_report = polly.analyze_module(module)
        print(f"  icc model   : {icc_report.reduction_count()} reduction(s)")
        scops, reduction_scops = polly_report.counts()
        print(f"  Polly model : {scops} SCoP(s), "
              f"{reduction_scops} with reductions")
    if args.save_feedback:
        from .pipeline import feedback_from_detection

        _save_feedback_cli(feedback_from_detection(report),
                           args.save_feedback)
    return 0


def _cmd_lint(args) -> int:
    from .constraints import BUILTIN_SPEC_FILES, builtin_spec_path
    from .constraints.analysis import (
        exit_code,
        lint_spec_files,
        render_report,
        report_json,
    )

    paths = args.files or [
        builtin_spec_path(name) for name in BUILTIN_SPEC_FILES
    ]
    diags, parse_failed = lint_spec_files(paths, cross=not args.no_cross)
    if args.json:
        print(report_json(diags, strict=args.strict, files=paths), end="")
    else:
        print(render_report(diags, notes=args.notes))
    return exit_code(diags, strict=args.strict, parse_failed=parse_failed)


def _cmd_emit(args) -> int:
    module = compile_source(_read(args.file), args.file)
    print(print_module(module), end="")
    return 0


def _cmd_parallelize(args) -> int:
    module = compile_source(_read(args.file), args.file)
    report = find_reductions(module)
    tasks = []
    for function_reductions in report.functions:
        plans, failures = plan_all(module, function_reductions)
        for failure in failures:
            print(f"  refused: {failure}")
        for plan in plans:
            task = outline_loop(module, plan)
            print(f"  outlined: {task.task.name} "
                  f"({len(plan.scalars)} scalar(s), "
                  f"{len(plan.histograms)} histogram(s))")
            tasks.append(task)
    if not tasks:
        print("nothing to parallelize")
        return 1
    _, _, sequential = run_sequential(module, entry=args.entry)
    executor = ParallelExecutor(module, tasks, threads=args.threads)
    result = executor.run(entry=args.entry)
    if result.output != sequential.output:
        print("ERROR: parallel output diverged", file=sys.stderr)
        return 2
    machine = MachineModel(cores=args.threads)
    t_seq = sequential.instructions_executed
    t_par = result.simulated_time(machine)
    print(f"sequential: {t_seq} cycles; parallel: {t_par:.0f} cycles "
          f"({args.threads} cores)")
    print(f"speedup: {t_seq / t_par:.2f}x; outputs match")
    return 0


def _cmd_corpus(args) -> int:
    from .evaluation.discovery import run_discovery, summary_against_paper
    from .pipeline import detect_corpus, feedback_from_report, save_report

    # Resolve the feedback artifact up front through the one shared
    # parent-side implementation (read + fingerprint-verified exactly
    # once), so a bad file exits cleanly while genuine pipeline
    # errors stay loud.
    feedback_orders = None
    if args.feedback_from:
        from .pipeline import PipelineOptions, resolve_feedback_options

        try:
            resolved = resolve_feedback_options(
                PipelineOptions(feedback_from=args.feedback_from)
            )
        except (OSError, ValueError) as exc:
            return _feedback_error(exc)
        feedback_orders = resolved.spec_orders
    # One pipeline run feeds both the Figure 8 panels and the
    # extension listing.
    report = detect_corpus(jobs=args.jobs, baselines=True,
                           extended=args.extended,
                           granularity=args.granularity,
                           spec_orders=feedback_orders,
                           explore=args.explore,
                           explore_seed=args.explore_seed)
    results = {
        name: run_discovery(name, report=report)
        for name in ("NAS", "Parboil", "Rodinia")
    }
    for result in results.values():
        print(result.render())
        print()
    print(summary_against_paper(results))
    if args.extended:
        print()
        print(f"extension idioms: {report.summary()}")
        for program in report.programs:
            for match in program.extended:
                detail = f"  [{match.detail}]" if match.detail else ""
                print(f"  {program.suite}/{program.name}  "
                      f"{match.idiom}  {match.name}{detail}")
    if args.save_report:
        save_report(report, args.save_report)
        print(f"report saved to {args.save_report}")
    if args.save_feedback:
        _save_feedback_cli(feedback_from_report(report),
                           args.save_feedback)
    return _failure_exit(report.failures, args.allow_failures)


def _order_rows(store, name):
    """``{order: [(bucket, obs), ...]}`` for one spec, sorted."""
    rows: dict = {}
    for (spec, order, bucket), obs in sorted(store.orders.items()):
        if spec == name:
            rows.setdefault(order, []).append((bucket, obs))
    return rows


def _render_feedback(store, registry) -> list[str]:
    """The deterministic ``feedback inspect`` body lines."""
    from .pipeline import canonical_orders

    lines = [f"  {store.describe()}"]
    current = {entry.name: entry.spec.label_order for entry in registry}
    derived = store.spec_orders(registry)
    for name in sorted(set(store.specs) | {k[0] for k in store.orders}):
        stats = store.specs.get(name)
        lines.append(f"spec {name}")
        if stats is not None:
            lines.append(
                f"  stats: {stats.constraint_evals} constraint eval(s), "
                f"{stats.solutions} solution(s), "
                f"{len(stats.candidates_per_prefix)} measured prefix "
                f"continuation(s)"
            )
        for order, buckets in _order_rows(store, name).items():
            tag = ""
            if order == current.get(name):
                tag = "  [incumbent]"
            elif name in derived and order == derived[name]:
                tag = "  [winner]"
            functions = sum(obs.functions for _, obs in buckets)
            evals = sum(obs.constraint_evals for _, obs in buckets)
            saving = sum(obs.saving() for _, obs in buckets)
            detail = f"functions={functions} evals={evals}"
            if saving:
                detail += f" paired saving {saving:+d}"
            lines.append(f"  order {' '.join(order)}{tag}")
            lines.append(f"    {detail} over "
                         f"{' '.join(sorted(b for b, _ in buckets))}")
    changed = canonical_orders(derived)
    if changed is None:
        lines.append("derive: no order changes")
    else:
        lines.append("derive:")
        for name, order in changed:
            lines.append(f"  {name}: {' '.join(order)}")
    return lines


def _cmd_feedback(args) -> int:
    from .pipeline import save_feedback
    from .pipeline.feedback import FEEDBACK_VERSION

    store, code = _load_feedback_cli(args.artifact)
    if store is None:
        return code
    if args.action == "inspect":
        registry = _build_registry(getattr(args, "spec", None))
        if args.json:
            import json as json_module

            payload = store.to_jsonable()
            payload["derived_orders"] = {
                name: list(order)
                for name, order in sorted(
                    store.spec_orders(registry).items()
                )
            }
            print(json_module.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"feedback artifact {args.artifact}")
        print(f"  version {FEEDBACK_VERSION}; "
              f"fingerprint {store.fingerprint()}")
        for line in _render_feedback(store, registry):
            print(line)
        return 0
    if args.action == "diff":
        other, code = _load_feedback_cli(args.other)
        if other is None:
            return code
        if store.fingerprint() == other.fingerprint():
            print(f"identical: {store.describe()}")
            return 0
        print(f"A {args.artifact}: {store.describe()}")
        print(f"B {args.other}: {other.describe()}")
        for name in sorted(set(store.specs) | set(other.specs)):
            a, b = store.specs.get(name), other.specs.get(name)
            if a is None:
                print(f"  spec {name}: only in B")
            elif b is None:
                print(f"  spec {name}: only in A")
            elif a.canonical() != b.canonical():
                print(f"  spec {name}: evals "
                      f"{b.constraint_evals - a.constraint_evals:+d}, "
                      f"solutions {b.solutions - a.solutions:+d}")
        added = sorted(set(other.orders) - set(store.orders))
        removed = sorted(set(store.orders) - set(other.orders))
        changed = sorted(
            key for key in set(store.orders) & set(other.orders)
            if store.orders[key].canonical()
            != other.orders[key].canonical()
        )
        for key in removed:
            print(f"  order row only in A: {key[0]} {key[2]}")
        for key in added:
            print(f"  order row only in B: {key[0]} {key[2]}")
        for key in changed:
            delta = (other.orders[key].constraint_evals
                     - store.orders[key].constraint_evals)
            print(f"  order row {key[0]} {key[2]}: evals {delta:+d}")
        return 1
    # decay
    before = store.describe()
    try:
        store.decay(args.keep)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = args.out or args.artifact
    save_feedback(store, out)
    print(f"decayed {args.artifact} (keep={args.keep}) -> {out}")
    print(f"  before: {before}")
    print(f"  after:  {store.describe()}")
    return 0


def _cmd_serve(args) -> int:
    from .pipeline import (
        JobCancelled,
        PipelineOptions,
        ServingEngine,
        save_report,
    )

    if args.requests < 1:
        print("error: --requests must be >= 1", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.cancel_after is not None and args.cancel_after < 1:
        print("error: --cancel-after must be >= 1", file=sys.stderr)
        return 2
    if (args.max_tasks_per_worker is not None
            and args.max_tasks_per_worker < 1):
        print("error: --max-tasks-per-worker must be >= 1",
              file=sys.stderr)
        return 2
    options = PipelineOptions(
        jobs=args.jobs,
        extended=args.extended,
        baselines=args.baselines,
        granularity=args.granularity,
        max_tasks_per_worker=args.max_tasks_per_worker,
        feedback_from=args.feedback_from,
        feedback_refresh=args.self_tune,
        explore=args.explore,
        explore_seed=args.explore_seed,
    )
    report = None
    failures: list = []
    engine = ServingEngine(options)
    try:
        # Resolve (and fingerprint-verify) the artifact before any
        # worker is spawned — one read, and a spawn failure can never
        # masquerade as an artifact error.
        engine.resolve_feedback()
    except (OSError, ValueError) as exc:
        return _feedback_error(exc)
    with engine:
        for request in range(args.requests):
            job = engine.submit(priority=args.priority)
            print(f"request {request + 1}/{args.requests}: "
                  f"{len(job.keys)} program(s) submitted to "
                  f"{engine.workers} persistent worker(s) "
                  f"[{job.priority.value}]")
            cancel_this = args.cancel_after is not None and request == 0
            streamed = 0
            try:
                for digest in job.stream():
                    streamed += 1
                    scalars, histograms = digest.counts()
                    print(f"  {digest.suite}/{digest.name}: "
                          f"{scalars} scalar, "
                          f"{histograms} histogram, "
                          f"{digest.constraint_evals} evals")
                    if cancel_this and streamed >= args.cancel_after:
                        drained = job.cancel()
                        print(f"request {request + 1}: cancelled after "
                              f"{streamed} digest(s), {drained} queued "
                              f"unit(s) drained")
            except JobCancelled:
                continue  # later requests prove the pool is unpoisoned
            if job.cancelled:
                # cancel() landed exactly as the job completed: the
                # stream ended normally, but result() would raise.
                continue
            report = job.result()
            if report.failures:
                failures.extend(report.failures)
                for failure in report.failures:
                    print(f"  FAILED {failure.describe()}",
                          file=sys.stderr)
            print(f"request {request + 1}: {report.summary()}")
        if engine.worker_deaths or engine.recycled:
            print(f"workers: {engine.worker_deaths} death(s), "
                  f"{engine.resubmissions} resubmission(s), "
                  f"{engine.recycled} recycle(s)")
        if engine.feedback_refreshes:
            print(f"feedback: {engine.feedback_refreshes} refresh(es), "
                  f"{engine.feedback_snapshot().describe()}")
        if args.save_feedback:
            _save_feedback_cli(engine.feedback_snapshot(),
                               args.save_feedback)
    if report is None:
        print("error: every request was cancelled; nothing to report",
              file=sys.stderr)
        return 2
    if args.save_report:
        save_report(report, args.save_report)
        print(f"report saved to {args.save_report}")
    # Failures first: a partial report is guaranteed to differ from
    # the batch engine, so running --check on it would mask the real
    # problem behind a misleading "diverged" verdict.
    code = _failure_exit(failures, args.allow_failures, describe=False)
    if code:
        return code
    if args.check:
        # The check verifies the *last* request's report; earlier
        # requests' accepted failures do not make it uncheckable.
        if report.failures:
            print("check: skipped — the accepted report is partial "
                  "and cannot match the batch engine")
            return 0
        from .pipeline import detect_corpus

        batch = detect_corpus(jobs=1, extended=args.extended,
                              baselines=args.baselines,
                              feedback_from=args.feedback_from)
        # A self-tuning session may legitimately have refreshed its
        # spec orders mid-session, moving search *effort* the batch
        # run cannot reproduce; the detections must still agree.
        effort = not engine.feedback_refreshes
        note = (
            "" if effort
            else " (detections only: self-tuned orders moved effort)"
        )
        if (report.fingerprint(effort=effort)
                != batch.fingerprint(effort=effort)):
            print("ERROR: served report diverged from the batch engine",
                  file=sys.stderr)
            return 2
        print(f"check: served fingerprint identical to jobs=1 batch "
              f"run{note}")
    return 0


def _cmd_gateway(args) -> int:
    import signal
    import time

    from .pipeline import GatewayServer, PipelineOptions

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.unit_budget is not None and args.unit_budget < 1:
        print("error: --unit-budget must be >= 1", file=sys.stderr)
        return 2
    if args.serve_seconds is not None and args.serve_seconds <= 0:
        print("error: --serve-seconds must be > 0", file=sys.stderr)
        return 2
    options = PipelineOptions(
        jobs=args.jobs,
        extended=args.extended,
        baselines=args.baselines,
        granularity=args.granularity,
        module_cache_size=args.module_cache_size,
        **({} if args.unit_budget is None
           else {"gateway_unit_budget": args.unit_budget}),
    )
    # A plain `kill PID` should shut down exactly like Ctrl-C: reuse
    # the KeyboardInterrupt path so workers and the port file are
    # cleaned up either way.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    server = GatewayServer(options, host=args.host, port=args.port)
    try:
        server.start()
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    print(f"gateway listening on {args.host}:{server.port} "
          f"({args.jobs} worker(s), budget {server.budget} unit(s))",
          flush=True)
    if args.port_file:
        with open(args.port_file, "w") as handle:
            handle.write(f"{server.port}\n")
    started = time.monotonic()
    try:
        while (args.serve_seconds is None
               or time.monotonic() - started < args.serve_seconds):
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        if args.port_file:
            import os

            try:
                os.unlink(args.port_file)
            except OSError:
                pass
    stats = server.stats
    print(f"gateway stats: {stats['connections']} connection(s), "
          f"{stats['submits']} submit(s), "
          f"{stats['rejections']} rejection(s), "
          f"{stats['completed']} completed, "
          f"{stats['cancelled'] + stats['disconnect_cancelled']} "
          f"cancelled, {stats['digests']} digest(s) streamed")
    return 0


def _resolve_gateway_port(args) -> int | None:
    """The port to dial, from --port or by polling --port-file."""
    import time

    if not args.port_file:
        return args.port if args.port else None
    deadline = time.monotonic() + args.timeout
    while time.monotonic() < deadline:
        try:
            with open(args.port_file) as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        time.sleep(0.1)
    return None


def _cmd_submit(args) -> int:
    from .pipeline import (
        GatewayClient,
        GatewayError,
        GatewayRejected,
        JobCancelled,
    )

    if args.cancel_after is not None and args.cancel_after < 1:
        print("error: --cancel-after must be >= 1", file=sys.stderr)
        return 2
    port = _resolve_gateway_port(args)
    if port is None:
        print("error: no gateway port (pass --port or --port-file of a "
              "running gateway)", file=sys.stderr)
        return 2
    keys = None
    if args.program:
        keys = []
        for spec in args.program:
            suite, _, name = spec.partition("/")
            if not name:
                print(f"error: --program wants SUITE/NAME, got {spec!r}",
                      file=sys.stderr)
                return 2
            keys.append((name, suite))
    if args.check and keys is not None:
        print("error: --check needs a whole-corpus submit "
              "(drop --program)", file=sys.stderr)
        return 2
    try:
        with GatewayClient(
            host=args.host, port=port, timeout=args.timeout,
            connect_retries=args.connect_retries,
        ) as client:
            try:
                request = client.submit(keys=keys, priority=args.priority)
            except GatewayRejected as exc:
                print(f"rejected: {exc.pending_units} pending + "
                      f"{exc.requested_units} requested unit(s) exceed "
                      f"the budget of {exc.budget}; retry after "
                      f"{exc.retry_after}s", file=sys.stderr)
                return 4
            print(f"accepted: {request.units} unit(s) "
                  f"[{args.priority}]")
            streamed = 0
            try:
                for digest in client.stream(request):
                    streamed += 1
                    scalars, histograms = digest.counts()
                    print(f"  {digest.suite}/{digest.name}: "
                          f"{scalars} scalar, {histograms} histogram, "
                          f"{digest.constraint_evals} evals")
                    if (args.cancel_after is not None
                            and streamed >= args.cancel_after):
                        drained = client.cancel(request)
                        print(f"cancelled after {streamed} digest(s), "
                              f"{drained} queued unit(s) drained")
                report = client.result(request)
            except JobCancelled:
                return 0
    except GatewayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    code = _failure_exit(report.failures, args.allow_failures,
                         describe=True)
    if code:
        return code
    if args.check:
        from .pipeline import detect_corpus

        batch = detect_corpus(jobs=1, extended=args.extended,
                              baselines=args.baselines)
        if report.fingerprint() != batch.fingerprint():
            print("ERROR: gateway report diverged from the batch "
                  "engine", file=sys.stderr)
            return 2
        print("check: gateway fingerprint identical to jobs=1 batch run")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Constraint-based reduction discovery (CGO 2017).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    detect_cmd = commands.add_parser("detect", help="detect reductions")
    detect_cmd.add_argument("file", nargs="?", default=None)
    detect_cmd.add_argument("--baselines", action="store_true",
                            help="also run the icc/Polly models")
    detect_cmd.add_argument("--extended", action="store_true",
                            help="also run the extension idioms")
    detect_cmd.add_argument("--spec", action="append", metavar="FILE.icsl",
                            help="load extra idiom spec file(s)")
    detect_cmd.add_argument("--list-idioms", action="store_true",
                            help="print the idiom registry")
    detect_cmd.add_argument("--feedback-from", metavar="FEEDBACK.json",
                            default=None,
                            help="re-order idiom specs from a recorded "
                                 "solver feedback artifact")
    detect_cmd.add_argument("--save-feedback", metavar="FEEDBACK.json",
                            default=None,
                            help="save this run's per-spec solver "
                                 "statistics for later --feedback-from use")
    detect_cmd.add_argument("--lint", action="store_true",
                            help="gate every loaded spec on the static "
                                 "analyzer (errors reject the spec)")
    detect_cmd.set_defaults(fn=_cmd_detect)

    lint_cmd = commands.add_parser(
        "lint", help="statically analyze idiom spec files")
    lint_cmd.add_argument("files", nargs="*", metavar="FILE.icsl",
                          help="spec files to analyze (default: the "
                               "shipped built-in specs)")
    lint_cmd.add_argument("--strict", action="store_true",
                          help="warnings also produce a nonzero exit")
    lint_cmd.add_argument("--json", action="store_true",
                          help="emit the machine-readable JSON report")
    lint_cmd.add_argument("--notes", action="store_true",
                          help="show engine-pruning notes in the text "
                               "report (JSON always carries them)")
    lint_cmd.add_argument("--no-cross", action="store_true",
                          help="skip the cross-spec subsumption sweep")
    lint_cmd.set_defaults(fn=_cmd_lint)

    emit_cmd = commands.add_parser("emit", help="print canonical SSA IR")
    emit_cmd.add_argument("file")
    emit_cmd.set_defaults(fn=_cmd_emit)

    par_cmd = commands.add_parser("parallelize",
                                  help="outline + simulate parallel run")
    par_cmd.add_argument("file")
    par_cmd.add_argument("--threads", type=int, default=64)
    par_cmd.add_argument("--entry", default="main")
    par_cmd.set_defaults(fn=_cmd_parallelize)

    corpus_cmd = commands.add_parser("corpus",
                                     help="Figure 8 over the corpus")
    corpus_cmd.add_argument("--jobs", type=int, default=1,
                            help="worker processes for the pipeline")
    corpus_cmd.add_argument("--extended", action="store_true",
                            help="also run the extension idioms")
    corpus_cmd.add_argument("--granularity",
                            choices=("program", "function"),
                            default="program",
                            help="work-unit granularity")
    corpus_cmd.add_argument("--save-report", metavar="REPORT.json",
                            default=None,
                            help="save this run's digests")
    corpus_cmd.add_argument("--feedback-from", metavar="FEEDBACK.json",
                            default=None,
                            help="re-order idiom specs from a recorded "
                                 "solver feedback artifact")
    corpus_cmd.add_argument("--save-feedback", metavar="FEEDBACK.json",
                            default=None,
                            help="save the merged corpus-wide solver "
                                 "feedback for later --feedback-from use")
    corpus_cmd.add_argument("--allow-failures", action="store_true",
                            help="exit 0 even when the report records "
                                 "failed units (default: exit 3)")
    corpus_cmd.add_argument("--explore", type=float, default=0.0,
                            metavar="EPS",
                            help="deterministically explore perturbed "
                                 "spec orders on this fraction of "
                                 "functions (recorded per-order "
                                 "observations feed --save-feedback)")
    corpus_cmd.add_argument("--explore-seed", type=int, default=0,
                            metavar="N",
                            help="seed of the exploration sample (same "
                                 "seed, same sample — byte-reproducible)")
    corpus_cmd.set_defaults(fn=_cmd_corpus)

    feedback_cmd = commands.add_parser(
        "feedback", help="inspect / diff / decay feedback artifacts")
    feedback_actions = feedback_cmd.add_subparsers(dest="action",
                                                   required=True)
    inspect_cmd = feedback_actions.add_parser(
        "inspect", help="print an artifact's content and derived orders")
    inspect_cmd.add_argument("artifact", metavar="FEEDBACK.json")
    inspect_cmd.add_argument("--spec", action="append",
                             metavar="FILE.icsl",
                             help="derive against extra idiom spec "
                                  "file(s) too")
    inspect_cmd.add_argument("--json", action="store_true",
                             help="emit the machine-readable JSON form")
    inspect_cmd.set_defaults(fn=_cmd_feedback)
    diff_cmd = feedback_actions.add_parser(
        "diff", help="compare two artifacts (exit 1 when they differ)")
    diff_cmd.add_argument("artifact", metavar="A.json")
    diff_cmd.add_argument("other", metavar="B.json")
    diff_cmd.set_defaults(fn=_cmd_feedback)
    decay_cmd = feedback_actions.add_parser(
        "decay", help="scale every recorded counter (retention)")
    decay_cmd.add_argument("artifact", metavar="FEEDBACK.json")
    decay_cmd.add_argument("--keep", type=float, required=True,
                           metavar="R",
                           help="fraction of every counter to keep, "
                                "in [0, 1]")
    decay_cmd.add_argument("--out", metavar="OUT.json", default=None,
                           help="write the decayed artifact here "
                                "(default: in place)")
    decay_cmd.set_defaults(fn=_cmd_feedback)

    serve_cmd = commands.add_parser(
        "serve", help="persistent serving engine over the corpus")
    serve_cmd.add_argument("--jobs", type=int, default=2,
                           help="persistent worker processes")
    serve_cmd.add_argument("--requests", type=int, default=1,
                           help="times to submit the corpus")
    serve_cmd.add_argument("--extended", action="store_true",
                           help="also run the extension idioms")
    serve_cmd.add_argument("--baselines", action="store_true",
                           help="also run the icc/Polly models")
    serve_cmd.add_argument("--granularity",
                           choices=("program", "function"),
                           default="function",
                           help="work-unit granularity (default: function)")
    serve_cmd.add_argument("--priority",
                           choices=("interactive", "batch"),
                           default="batch",
                           help="scheduling class for the submits "
                                "(interactive overtakes queued batch)")
    serve_cmd.add_argument("--max-tasks-per-worker", type=int,
                           default=None, metavar="N",
                           help="recycle each worker after N units")
    serve_cmd.add_argument("--cancel-after", type=int, default=None,
                           metavar="N",
                           help="cancel the first request after N "
                                "streamed digests (cancellation smoke)")
    serve_cmd.add_argument("--save-report", metavar="REPORT.json",
                           default=None,
                           help="save the last request's digests")
    serve_cmd.add_argument("--feedback-from", metavar="FEEDBACK.json",
                           default=None,
                           help="warm every worker's spec orders from a "
                                "recorded solver feedback artifact")
    serve_cmd.add_argument("--save-feedback", metavar="FEEDBACK.json",
                           default=None,
                           help="save the session's merged solver "
                                "feedback (initial artifact + served "
                                "units) on exit")
    serve_cmd.add_argument("--self-tune", action="store_true",
                           help="re-derive spec orders from served "
                                "units at every submit (long-lived "
                                "sessions tune themselves)")
    serve_cmd.add_argument("--explore", type=float, default=0.0,
                           metavar="EPS",
                           help="deterministically explore perturbed "
                                "spec orders on this fraction of served "
                                "functions (pairs with --self-tune: "
                                "measured winners are adopted live)")
    serve_cmd.add_argument("--explore-seed", type=int, default=0,
                           metavar="N",
                           help="seed of the exploration sample")
    serve_cmd.add_argument("--allow-failures", action="store_true",
                           help="exit 0 even when requests recorded "
                                "failed units (default: exit 3)")
    serve_cmd.add_argument("--check", action="store_true",
                           help="verify fingerprint identity with the "
                                "jobs=1 batch engine")
    serve_cmd.set_defaults(fn=_cmd_serve)

    gateway_cmd = commands.add_parser(
        "gateway", help="socket gateway over the serving engine")
    gateway_cmd.add_argument("--jobs", type=int, default=2,
                             help="persistent worker processes")
    gateway_cmd.add_argument("--host", default="127.0.0.1",
                             help="bind address (default: loopback)")
    gateway_cmd.add_argument("--port", type=int, default=0,
                             help="TCP port (0 = ephemeral)")
    gateway_cmd.add_argument("--port-file", metavar="FILE", default=None,
                             help="write the bound port here for "
                                  "clients to discover")
    gateway_cmd.add_argument("--extended", action="store_true",
                             help="also run the extension idioms")
    gateway_cmd.add_argument("--baselines", action="store_true",
                             help="also run the icc/Polly models")
    gateway_cmd.add_argument("--granularity",
                             choices=("program", "function"),
                             default="function",
                             help="work-unit granularity "
                                  "(default: function)")
    gateway_cmd.add_argument("--unit-budget", type=int, default=None,
                             metavar="N",
                             help="per-connection admission budget in "
                                  "pending work units")
    gateway_cmd.add_argument("--module-cache-size", type=int,
                             default=None, metavar="N",
                             help="bound each worker's compiled-module "
                                  "cache to N entries (LRU)")
    gateway_cmd.add_argument("--serve-seconds", type=float, default=None,
                             metavar="N",
                             help="exit after N seconds (default: "
                                  "serve until SIGINT/SIGTERM)")
    gateway_cmd.set_defaults(fn=_cmd_gateway)

    submit_cmd = commands.add_parser(
        "submit", help="submit programs to a running gateway")
    submit_cmd.add_argument("--host", default="127.0.0.1",
                            help="gateway address")
    submit_cmd.add_argument("--port", type=int, default=0,
                            help="gateway port")
    submit_cmd.add_argument("--port-file", metavar="FILE", default=None,
                            help="poll this file for the gateway port "
                                 "(written by `gateway --port-file`)")
    submit_cmd.add_argument("--program", action="append",
                            metavar="SUITE/NAME",
                            help="submit only these programs "
                                 "(default: whole corpus)")
    submit_cmd.add_argument("--priority",
                            choices=("interactive", "batch"),
                            default="batch",
                            help="scheduling class for the request")
    submit_cmd.add_argument("--cancel-after", type=int, default=None,
                            metavar="N",
                            help="cancel the request after N streamed "
                                 "digests")
    submit_cmd.add_argument("--timeout", type=float, default=120.0,
                            help="socket/port-file timeout in seconds")
    submit_cmd.add_argument("--connect-retries", type=int, default=20,
                            help="connection attempts before giving up")
    submit_cmd.add_argument("--extended", action="store_true",
                            help="--check comparison flag: the gateway "
                                 "runs the extension idioms")
    submit_cmd.add_argument("--baselines", action="store_true",
                            help="--check comparison flag: the gateway "
                                 "runs the baseline models")
    submit_cmd.add_argument("--allow-failures", action="store_true",
                            help="exit 0 even when the report records "
                                 "failed units (default: exit 3)")
    submit_cmd.add_argument("--check", action="store_true",
                            help="verify fingerprint identity with a "
                                 "local jobs=1 batch run "
                                 "(whole-corpus submits only)")
    submit_cmd.set_defaults(fn=_cmd_submit)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
