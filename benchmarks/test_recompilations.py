"""§4 "Impact on number of recompilations".

The paper: compilations of the same function grow by 3.6% (SunSpider),
4.35% (V8) and 7.58% (Kraken) when parameter specialization is on —
"despite the highly speculative nature of our approach, its drawback
is not so big as one could at first expect".  The bench checks the
growth is positive but bounded.
"""

import pytest

from repro.workloads import PAPER_SUITES


@pytest.mark.parametrize("suite_name", PAPER_SUITES)
def test_recompilation_growth(benchmark, suite_name, all_sweeps):
    sweeps = {s.suite_name: s for s in all_sweeps}
    sweep = sweeps[suite_name]

    def collect():
        base = spec = 0
        for name in sweep.benchmarks():
            base += sweep.run_for("baseline", name).summary["compiles"]
            spec += sweep.run_for("all", name).summary["compiles"]
        return base, spec

    base, spec = benchmark.pedantic(collect, rounds=1, iterations=1)
    growth = 100.0 * (spec - base) / base if base else 0.0
    print("\n%s: compiles baseline=%d specialized=%d growth=%+.2f%%" % (suite_name, base, spec, growth))
    assert spec >= base, "specialization can only add compilations"
    assert growth < 150.0, "recompilation storm: policy is broken"
