"""Figure 4: parameter types of single-argument-set functions.

Paper claims checked:

* the web is object/string-dominated (35.57% objects, 32.95% strings,
  only 6.36% integers);
* the benchmark suites use integers far more than the web (37.5%,
  48.72%, 33.03% for SunSpider/V8/Kraken).
"""

import pytest

from repro.bench.figures import parameter_types, suite_histograms, web_histograms
from repro.telemetry.histograms import FIGURE4_CATEGORIES
from repro.workloads import ALL_SUITES, PAPER_SUITES
from repro.workloads.web import WebCorpusConfig


@pytest.fixture(scope="module")
def distributions():
    rows = {"WEB": parameter_types(web_histograms(WebCorpusConfig(num_functions=2300)))}
    for name in PAPER_SUITES:
        rows[name] = parameter_types(suite_histograms(ALL_SUITES[name]))
    return rows


def test_figure4_distributions(benchmark, distributions):
    rows = benchmark.pedantic(lambda: distributions, rounds=1, iterations=1)
    print("\nFigure 4 — parameter type mix of single-argument-set functions:")
    header = "  %-10s" % "population" + "".join("%11s" % c for c in FIGURE4_CATEGORIES)
    print(header)
    for name, dist in rows.items():
        print("  %-10s" % name + "".join("%10.1f%%" % (100 * dist[c]) for c in FIGURE4_CATEGORIES))

    web = rows["WEB"]
    # Web: objects and strings dominate; integers are rare.
    assert web["object"] > 0.25
    assert web["string"] > 0.25
    assert web["int"] < 0.15

    # Benchmarks use integers much more often than the web.
    for suite_name in PAPER_SUITES:
        assert rows[suite_name]["int"] > web["int"], (
            "%s should be more integer-heavy than the web" % suite_name
        )


def test_distribution_sums_to_one(benchmark, distributions):
    rows = benchmark.pedantic(lambda: distributions, rounds=1, iterations=1)
    for name, dist in rows.items():
        assert abs(sum(dist.values()) - 1.0) < 1e-6 or sum(dist.values()) == 0.0
