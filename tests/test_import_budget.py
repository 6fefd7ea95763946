"""Cold-start import budget: each entry point loads only what it runs.

Every probe runs in a fresh interpreter, so the modules this test
process already imported cannot hide an eager import.  No timer is
read: the budget is which modules end up in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

LAZY_PACKAGES = [
    "repro", "repro.pipeline", "repro.evaluation", "repro.ir",
    "repro.constraints", "repro.idioms", "repro.analysis",
    "repro.baselines",
]

LIBRARY_SOURCE = """
double a[32]; int n;
double total(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + a[i];
    return s;
}
"""


def loaded_after(code: str) -> list[str]:
    """The modules a fresh interpreter has loaded after running ``code``."""
    probe = code + textwrap.dedent("""
        import json, sys
        sys.__stdout__.write("\\n" + json.dumps(sorted(sys.modules)))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def offenders(modules: list[str], banned: list[str]) -> list[str]:
    """Loaded modules that are, or live under, a banned one."""
    return [name for name in modules
            if any(name == ban or name.startswith(ban + ".")
                   for ban in banned)]


def test_import_repro_loads_only_the_lazy_helper():
    modules = loaded_after("import repro")
    assert [m for m in modules if m.startswith("repro")] \
        == ["repro", "repro._lazy"]


def test_library_surface_loads_no_driver_code():
    modules = loaded_after(
        "from repro import (compile_source, find_extended_reductions,\n"
        "                   find_reductions)\n"
        f"module = compile_source({LIBRARY_SOURCE!r})\n"
        "assert find_reductions(module).scalars\n"
        "find_extended_reductions(module)\n"
    )
    assert "repro.idioms.extensions" in modules
    assert offenders(modules, [
        "repro.pipeline", "repro.runtime", "repro.transform",
        "repro.evaluation", "repro.baselines",
        "repro.constraints.analysis", "repro.idioms.forloop",
        "asyncio", "multiprocessing",
    ]) == []


def test_corpus_verb_loads_no_serving_code():
    """``--jobs 1`` is the in-process sweep: no engine is imported."""
    modules = loaded_after(
        "import contextlib, io\n"
        "from repro.__main__ import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['corpus', '--extended', '--jobs', '1']) == 0\n"
    )
    assert "repro.pipeline.engine" in modules
    assert offenders(modules, [
        "repro.pipeline.gateway", "repro.pipeline.serving",
        "repro.runtime", "repro.transform", "asyncio",
    ]) == []


def test_default_corpus_verb_loads_the_engine_only():
    """With two usable CPUs the default verb runs a short-lived serving
    engine, by design, and still nothing of the gateway or runtime.
    The affinity is faked so the probe takes this path on any host."""
    modules = loaded_after(
        "import contextlib, io, os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from repro.__main__ import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['corpus', '--extended']) == 0\n"
    )
    assert "repro.pipeline.serving" in modules
    assert offenders(modules, [
        "repro.pipeline.gateway", "repro.runtime", "repro.transform",
        "asyncio",
    ]) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_is_listed_and_resolves(package):
    """``dir()`` lists a name before its first use, and it resolves."""
    loaded_after(
        "import importlib\n"
        f"package = importlib.import_module({package!r})\n"
        "listed = dir(package)\n"
        "missing = [n for n in package.__all__ if n not in listed]\n"
        "assert not missing, missing\n"
        "for name in package.__all__:\n"
        "    assert getattr(package, name) is not None, name\n"
        "    assert getattr(package, name) is getattr(package, name)\n"
    )


def test_subpackages_stay_reachable_as_attributes():
    modules = loaded_after(
        "import repro\n"
        "assert repro.pipeline.detect_corpus\n"
        "assert repro.ir.printer.print_module\n"
        "assert repro.baselines.icc.analyze_module\n"
        "assert not hasattr(repro, 'no_such_module')\n"
    )
    assert "repro.pipeline" in modules
