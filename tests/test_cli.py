"""Tests for the ``python -m repro`` command line interface."""

import multiprocessing
import os
import re
import subprocess
import sys

import pytest

from repro.__main__ import main

SOURCE = """
double a[32]; int hist[8]; int keys[32]; int n;

double total(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + a[i];
    return s;
}

void count(void) {
    for (int i = 0; i < n; i++) hist[keys[i]]++;
}

int main(void) {
    n = 32;
    for (int i = 0; i < n; i++) { a[i] = fmod(i * 0.7, 1.0); keys[i] = i % 8; }
    count();
    print_double(total());
    return 0;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


def test_detect_command(source_file, capsys):
    assert main(["detect", source_file]) == 0
    out = capsys.readouterr().out
    assert "1 scalar reduction(s), 1 histogram reduction(s)" in out
    assert "op=add" in out


def test_detect_with_baselines(source_file, capsys):
    assert main(["detect", source_file, "--baselines"]) == 0
    out = capsys.readouterr().out
    assert "icc model" in out
    assert "Polly model" in out


def test_emit_command(source_file, capsys):
    assert main(["emit", source_file]) == 0
    out = capsys.readouterr().out
    assert "define double @total()" in out
    assert "phi" in out


def test_parallelize_command(source_file, capsys):
    assert main(["parallelize", source_file, "--threads", "8"]) == 0
    out = capsys.readouterr().out
    assert "outlined:" in out
    assert "outputs match" in out


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_parallelize_rejects_threads_below_one(source_file, threads, capsys):
    assert main(["parallelize", source_file, "--threads", threads]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --threads must be >= 1\n"
    assert "diverged" not in captured.out + captured.err


@pytest.mark.parametrize("verb", ["corpus", "serve", "gateway"])
def test_verbs_reject_jobs_below_one(verb, capsys):
    assert main([verb, "--jobs", "0"]) == 2
    assert capsys.readouterr().err == "error: --jobs must be >= 1\n"


@pytest.mark.parametrize("argv, message", [
    (["--timeout", "0"], "error: --timeout must be > 0"),
    (["--timeout", "-1"], "error: --timeout must be > 0"),
    (["--connect-retries", "-1"], "error: --connect-retries must be >= 0"),
])
def test_submit_rejects_bad_timeout_and_retries(argv, message, capsys):
    assert main(["submit", "--port", "9", *argv]) == 2
    assert capsys.readouterr().err == message + "\n"


def test_detect_list_idioms_without_file(capsys):
    assert main(["detect", "--list-idioms"]) == 0
    out = capsys.readouterr().out
    assert "registered idioms:" in out
    for name in ("for-loop", "scalar-reduction", "histogram",
                 "dot-product", "argminmax", "nested-array-reduction"):
        assert name in out
    assert "forloop.icsl" in out
    assert "argminmax.icsl" in out


def test_detect_extended_flag(tmp_path, capsys):
    path = tmp_path / "dot.c"
    path.write_text(
        "double xs[16]; double ys[16]; int n;\n"
        "double dot(void) {\n"
        "    double s = 0.0;\n"
        "    for (int i = 0; i < n; i++) s = s + xs[i] * ys[i];\n"
        "    return s;\n"
        "}\n"
    )
    assert main(["detect", str(path), "--extended"]) == 0
    out = capsys.readouterr().out
    assert "extension dot-product" in out


def test_corpus_command_with_jobs_and_extended(capsys):
    assert main(["corpus", "--jobs", "2", "--extended"]) == 0
    out = capsys.readouterr().out
    assert "Figure 8 (NAS): reductions detected" in out
    assert "paper vs measured" in out
    assert "extension idioms:" in out
    assert "nested-array-reduction" in out


def _fake_usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


def _record_engine_sizes(monkeypatch):
    """The worker count of every serving engine started from now on."""
    from repro.pipeline import serving

    sizes = []

    class RecordingEngine(serving.ServingEngine):
        def __init__(self, options=None, **kwargs):
            super().__init__(options, **kwargs)
            sizes.append(self.workers)

    monkeypatch.setattr(serving, "ServingEngine", RecordingEngine)
    return sizes


def _corpus_stdout(argv, capsys):
    """The verb's stdout with the run's timing and report path masked."""
    assert main(["corpus", "--extended", *argv]) == 0
    out = capsys.readouterr().out
    out = re.sub(r"\[jobs=\d+, (\d+) evals, \d+ ms\]",
                 r"[jobs=N, \1 evals, T ms]", out)
    return re.sub(r"report saved to .*", "report saved to PATH", out)


def test_corpus_default_jobs_follow_the_usable_cpus(tmp_path, monkeypatch,
                                                     capsys):
    """One usable CPU, or ``--jobs 1``, keeps the in-process path; three
    CPUs serve the 40 programs on three workers, none of which outlives
    the verb, and print what the serial run prints."""
    from repro.pipeline import load_report

    earlier_children = set(multiprocessing.active_children())
    sizes = _record_engine_sizes(monkeypatch)
    _fake_usable_cpus(monkeypatch, 1)
    one_cpu = _corpus_stdout([], capsys)
    _fake_usable_cpus(monkeypatch, 3)
    serial = _corpus_stdout(
        ["--jobs", "1", "--save-report", str(tmp_path / "serial.json")],
        capsys)
    assert sizes == []
    default = _corpus_stdout(
        ["--save-report", str(tmp_path / "default.json")], capsys)
    assert sizes == [3]
    assert set(multiprocessing.active_children()) <= earlier_children
    assert default == serial
    assert one_cpu == serial.replace("report saved to PATH\n", "")
    reports = [load_report(str(tmp_path / name))
               for name in ("serial.json", "default.json")]
    assert [report.jobs for report in reports] == [1, 3]
    assert reports[0].fingerprint() == reports[1].fingerprint()


def test_detect_without_file_or_list_flag_errors(capsys):
    assert main(["detect"]) == 2
    assert "FILE.c" in capsys.readouterr().err


def test_detect_feedback_round_trip(source_file, tmp_path, capsys):
    feedback = tmp_path / "feedback.json"
    assert main(["detect", source_file, "--extended",
                 "--save-feedback", str(feedback)]) == 0
    out = capsys.readouterr().out
    assert "feedback saved to" in out
    assert feedback.exists()
    assert main(["detect", source_file, "--extended",
                 "--feedback-from", str(feedback)]) == 0
    out = capsys.readouterr().out
    assert "1 scalar reduction(s), 1 histogram reduction(s)" in out


def test_detect_reports_bad_feedback_artifact(source_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": 99, \"specs\": {}}")
    assert main(["detect", source_file, "--feedback-from", str(bad)]) == 2
    assert "cannot load feedback artifact" in capsys.readouterr().err


def test_corpus_feedback_round_trip(tmp_path, capsys):
    feedback = tmp_path / "corpus-feedback.json"
    assert main(["corpus", "--save-feedback", str(feedback)]) == 0
    out = capsys.readouterr().out
    assert "feedback saved to" in out
    assert main(["corpus", "--feedback-from", str(feedback)]) == 0
    out = capsys.readouterr().out
    assert "Figure 8 (NAS): reductions detected" in out


def test_detect_with_user_spec_file(source_file, tmp_path, capsys):
    spec = tmp_path / "rmw.icsl"
    spec.write_text(
        "idiom read-modify-write {\n"
        "  order: st v p\n"
        "  opcode(st, store, v, p)\n"
        "  (opcode(v, add, _, _) | opcode(v, fadd, _, _))\n"
        "}\n"
    )
    assert main(["detect", source_file, "--spec", str(spec),
                 "--list-idioms"]) == 0
    out = capsys.readouterr().out
    assert "read-modify-write" in out
    assert "custom" in out
    assert "match(es)" in out


def test_detect_reports_malformed_spec_file(source_file, tmp_path, capsys):
    bad = tmp_path / "bad.icsl"
    bad.write_text("idiom broken {\n  order: x\n  frobnicate(x)\n}\n")
    assert main(["detect", source_file, "--spec", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "cannot load spec file" in err
    assert "line 3" in err


def test_detect_reports_missing_spec_file(source_file, capsys):
    assert main(["detect", source_file, "--spec", "/nonexistent.icsl"]) == 2
    assert "cannot load spec file" in capsys.readouterr().err


def test_detect_reports_binary_spec_file(source_file, tmp_path, capsys):
    binary = tmp_path / "binary.icsl"
    binary.write_bytes(b"\xff\xfe\x00garbage")
    assert main(["detect", source_file, "--spec", str(binary)]) == 2
    assert "cannot load spec file" in capsys.readouterr().err


def test_parallelize_reports_nothing_to_do(tmp_path, capsys):
    path = tmp_path / "empty.c"
    path.write_text("int main(void) { print_int(1); return 0; }")
    assert main(["parallelize", str(path)]) == 1
    assert "nothing to parallelize" in capsys.readouterr().out


#: One source per frontend error kind, and what stderr must say.
BAD_SOURCES = [
    ("int main(void) { int $x; return 0; }",
     ":1:22: unexpected character '$'"),
    ("int main(void) {\n  /* never closed", ":2:3: unterminated block comment"),
    ("int main(void) { return 0 }", ":1:27: expected ';'"),
    ("int main(voidx) { return 0; }", ":1:10: expected type"),
    ("int a[0]; int main(void) { return 0; }",
     ": non-positive dimension in a"),
    ("int n; int n; int main(void) { return 0; }",
     ": global 'n' already defined"),
    ("int f(void) { return 1; } int f(void) { return 2; }",
     ": function 'f' already defined"),
    ("int main(void) { return y; }", ": unknown variable 'y'"),
    ("int main(void) { break; return 0; }", ": break outside of a loop"),
    # Nesting past the parser's limit: 120 parentheses, and a 900-term
    # sum whose left-leaning tree is 900 levels high.  Both used to
    # overflow Python's recursion limit (parser, lowering).
    ("int a; int main(void) { a = " + "(" * 120 + "a" + ")" * 120
     + "; return 0; }", ":1:128: nesting deeper than 100 levels"),
    ("int a; int main(void) { a = " + " + ".join(["a"] * 900)
     + "; return 0; }", ":1:427: expression deeper than 100 levels"),
]


@pytest.mark.parametrize("verb", ["detect", "emit", "parallelize"])
@pytest.mark.parametrize("source,message", BAD_SOURCES)
def test_frontend_errors_exit_2_without_traceback(verb, source, message,
                                                  tmp_path, capsys):
    path = tmp_path / "bad.c"
    path.write_text(source)
    assert main([verb, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{path}{message}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("verb", ["detect", "emit", "parallelize"])
def test_missing_source_file_exits_2(verb, tmp_path, capsys):
    path = tmp_path / "absent.c"
    assert main([verb, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "No such file or directory" in err


def test_frontend_error_exits_2_from_a_fresh_process(tmp_path):
    path = tmp_path / "bad.c"
    path.write_text("int main(void) { return 0 }")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "detect", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"{path}:1:27: expected ';' (got op '}}')\n"


def test_detect_renders_spec_diagnostic(source_file, tmp_path, capsys):
    """The malformed-spec path shows the caret-rendered diagnostic."""
    bad = tmp_path / "bad.icsl"
    bad.write_text("idiom broken {\n  order: x\n  frobnicate(x)\n}\n")
    assert main(["detect", source_file, "--spec", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:3:3: error:" in err
    assert "^" in err


def test_detect_lint_gate_rejects_bad_spec(source_file, tmp_path, capsys):
    """--lint rejects a parseable spec with an unconstrained label."""
    bad = tmp_path / "loose.icsl"
    bad.write_text(
        "idiom loose {\n"
        "  order: x ghost\n\n"
        "  opcode(x, add, _, _)\n"
        "}\n"
    )
    assert main(["detect", source_file, "--spec", str(bad)]) == 0
    capsys.readouterr()
    assert main(
        ["detect", source_file, "--spec", str(bad), "--lint"]
    ) == 2
    err = capsys.readouterr().err
    assert "ICSL001" in err
    assert "ghost" in err


def test_lint_shipped_specs_clean(capsys):
    assert main(["lint", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_lint_json_report(capsys):
    import json

    assert main(["lint", "--strict", "--json", "--no-cross"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["summary"]["error"] == 0
    assert payload["summary"]["warning"] == 0
    assert all(d["code"].startswith("ICSL") for d in payload["diagnostics"])


def test_lint_bad_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.icsl"
    bad.write_text("idiom broken {\n  order: x\n  frobnicate(x)\n}\n")
    assert main(["lint", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "ICSL000" in out


def test_lint_strict_promotes_warnings(tmp_path, capsys):
    spec = tmp_path / "warny.icsl"
    spec.write_text(
        "idiom warny {\n"
        "  order: header body\n\n"
        "  branch(header, body)\n"
        "  dominates(header, header)\n"
        "}\n"
    )
    assert main(["lint", str(spec)]) == 0
    capsys.readouterr()
    assert main(["lint", str(spec), "--strict"]) == 1
    assert "ICSL005" in capsys.readouterr().out


# -- feedback lifecycle commands ----------------------------------------------


@pytest.fixture(scope="module")
def recorded_artifacts(tmp_path_factory):
    """Two feedback artifacts of the Parboil slice: one recorded under
    the curated spec orders, one under the static ``suggest_order``
    heuristic (different searches, so different statistics)."""
    from repro.constraints import suggest_order
    from repro.idioms.registry import IdiomRegistry
    from repro.pipeline import (detect_corpus, feedback_from_report,
                                save_feedback)
    from repro.workloads import corpus_keys

    small = [key for key in corpus_keys() if key[1] == "Parboil"]
    static = {entry.name: suggest_order(entry.spec)
              for entry in IdiomRegistry()}
    root = tmp_path_factory.mktemp("feedback")
    paths = []
    for name, orders in (("curated", None), ("static", static)):
        report = detect_corpus(jobs=1, keys=small, spec_orders=orders)
        path = root / f"{name}.json"
        save_feedback(feedback_from_report(report), str(path))
        paths.append(str(path))
    return tuple(paths)


def test_feedback_inspect_is_deterministic(recorded_artifacts, capsys):
    for artifact in recorded_artifacts:
        assert main(["feedback", "inspect", artifact]) == 0
        first = capsys.readouterr().out
        assert f"feedback artifact {artifact}" in first
        assert "fingerprint" in first
        assert "spec for-loop" in first
        assert "constraint eval(s)" in first
        assert "derive:" in first
        assert main(["feedback", "inspect", artifact]) == 0
        assert capsys.readouterr().out == first


def test_feedback_inspect_json(recorded_artifacts, capsys):
    import json

    artifact = recorded_artifacts[0]
    assert main(["feedback", "inspect", artifact, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 4
    assert payload["specs"]
    assert "orders" not in payload
    assert "derived_orders" in payload


def test_feedback_diff_exit_codes(recorded_artifacts, tmp_path, capsys):
    curated, static = recorded_artifacts
    assert main(["feedback", "diff", curated, curated]) == 0
    assert "identical:" in capsys.readouterr().out

    assert main(["feedback", "diff", curated, static]) == 1
    out = capsys.readouterr().out
    assert f"A {curated}:" in out
    assert f"B {static}:" in out
    assert "spec " in out

    missing = tmp_path / "missing.json"
    assert main(["feedback", "diff", curated, str(missing)]) == 2
    assert "cannot load feedback artifact" in capsys.readouterr().err


def test_feedback_commands_reject_bad_artifact(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": 99, \"specs\": {}}")
    assert main(["feedback", "inspect", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "cannot load feedback artifact" in err
    assert str(bad) in err
    assert "hint:" in err
