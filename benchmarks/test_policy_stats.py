"""§4 "Specialization policy": specialized / successful / deoptimized.

The paper reports, per suite: SunSpider 56 specialized (18 successful,
38 deoptimized), V8 37 (11, 26), Kraken 38 (14, 24).  The suites here
are smaller, so the counts are smaller; the checked shape is that a
meaningful fraction of specializations succeed (stay valid for the
whole run) and the rest deoptimize exactly once each.
"""

import pytest

from repro.workloads import PAPER_SUITES


@pytest.mark.parametrize("suite_name", PAPER_SUITES)
def test_policy_counts(benchmark, suite_name, all_sweeps):
    sweeps = {s.suite_name: s for s in all_sweeps}
    sweep = sweeps[suite_name]

    def collect():
        specialized = successful = deoptimized = 0
        for name in sweep.benchmarks():
            run = sweep.run_for("all", name)
            specialized += len(run.specialized)
            successful += len(run.successful)
            deoptimized += len(run.deoptimized)
        return specialized, successful, deoptimized

    specialized, successful, deoptimized = benchmark.pedantic(collect, rounds=1, iterations=1)
    print(
        "\n%s: specialized=%d successful=%d deoptimized=%d"
        % (suite_name, specialized, successful, deoptimized)
    )
    assert specialized == successful + deoptimized
    assert specialized > 0
    assert successful > 0, "some functions must stay specialized (win-win)"
    assert deoptimized > 0, "some functions must deoptimize (varying args)"


def test_one_specialization_attempt_per_function(benchmark, sunspider_sweep):
    """The policy never re-specializes a deoptimized function, so
    invalidations are bounded by the number of specialized functions."""

    def check():
        for name in sunspider_sweep.benchmarks():
            run = sunspider_sweep.run_for("all", name)
            assert run.summary["deoptimized"] <= run.summary["specialized"]
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)
