"""Tests for detection report records and the module-level driver."""

from repro.frontend import compile_source
from repro.idioms import find_reductions, find_reductions_in_function


SOURCE = """
double a[32]; int hist[16]; int keys[32]; int n;

double suma(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + a[i];
    return s;
}

void count(void) {
    for (int i = 0; i < n; i++) hist[keys[i]]++;
}

int main(void) {
    n = 16;
    count();
    print_double(suma());
    return 0;
}
"""


def test_module_report_aggregates_functions():
    module = compile_source(SOURCE)
    report = find_reductions(module)
    assert report.counts() == (1, 1)
    assert report.solve_seconds > 0
    summary = report.summary()
    assert "1 scalar" in summary and "1 histogram" in summary


def test_per_function_driver():
    module = compile_source(SOURCE)
    suma = find_reductions_in_function(module.get_function("suma"), module)
    count = find_reductions_in_function(module.get_function("count"), module)
    assert len(suma.scalars) == 1 and not suma.histograms
    assert len(count.histograms) == 1 and not count.scalars


def test_reduction_names_are_stable_identifiers():
    module = compile_source(SOURCE)
    report = find_reductions(module)
    assert report.scalars[0].name.startswith("suma:")
    assert report.histograms[0].name.startswith("count:")
    assert "@hist" in report.histograms[0].name


def test_no_duplicate_solutions_per_reduction():
    """One record per accumulator / per histogram store, even though
    the raw solver may produce several assignments."""
    module = compile_source(SOURCE)
    report = find_reductions(module)
    scalar_keys = {(id(s.header), id(s.acc)) for s in report.scalars}
    histogram_keys = {
        (id(h.header), id(h.hist_store)) for h in report.histograms
    }
    assert len(scalar_keys) == len(report.scalars)
    assert len(histogram_keys) == len(report.histograms)


def test_main_loop_calls_do_not_confuse_detection():
    module = compile_source(SOURCE)
    report = find_reductions(module)
    main_records = [
        f for f in report.functions if f.function.name == "main"
    ]
    assert main_records
    assert not main_records[0].scalars
    assert not main_records[0].histograms
