"""Pipeline-wide dominance invariant: defs dominate uses after every
pass combination, on every workload benchmark's hot functions — and,
with the verifiers run at every pass's end, after every single pass of
the suites' compiles."""

import pytest

from repro.engine.config import BASELINE, EXTENDED, FULL_SPEC, PAPER_CONFIGS
from repro.engine.runtime_engine import Engine
from repro.errors import CompilerError
from repro.mir.builder import build_mir
from repro.mir.verifier import verify_dominance, verify_graph
from repro.opts.loop_inversion import rotate_loops
from repro.opts.pass_manager import PassWork, optimize
from repro.workloads import ALL_SUITES

from tests.helpers import ROOT, compile_and_profile

KERNELS = [
    (
        "arith-loop",
        "function f(a, n) { var s = 0; for (var i = 0; i < n; i++) s += a * i; return s; } f(3, 30);",
        [3, 30],
    ),
    (
        "array-store",
        "function f(a, n) { for (var i = 0; i < n; i++) a[i] = i * 2; return a[0]; } f([0,0,0,0,0], 5);",
        None,
    ),
    (
        "branches",
        "function f(c, x) { var y = 0; if (c) y = x + 1; else y = x - 1; while (y > 0) y -= 3; return y; } f(true, 10);",
        [True, 10],
    ),
    (
        "strings",
        "function f(s) { var h = 0; for (var i = 0; i < s.length; i++) h = (h * 31 + s.charCodeAt(i)) & 0xffff; return h; } f('dominance');",
        ["dominance"],
    ),
    (
        "closure-inline",
        """
        function inc(x) { return x + 1; }
        function map(s, n, g) { for (var i = 0; i < n; i++) s[i] = g(s[i]); return s[0]; }
        map([1, 2, 3], 3, inc);
        """,
        None,
    ),
]


@pytest.mark.parametrize("config", [BASELINE, FULL_SPEC, EXTENDED] + PAPER_CONFIGS,
                         ids=lambda c: c.name)
@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k[0])
def test_dominance_holds_after_pipeline(kernel, config):
    name, source, spec_args = kernel
    _top, code = compile_and_profile(source)
    if config.loop_inversion:
        rotate_loops(code)
    param_values = spec_args if config.param_spec else None
    if name == "closure-inline" and config.param_spec:
        # Build the constant-callee situation the inliner wants.
        from repro.jsvm.objects import JSArray
        from repro.jsvm.values import JSFunction

        _top2, map_code = compile_and_profile(source, "map")
        inc_code = [
            c for c in _top2.constants if hasattr(c, "instructions") and c.name == "inc"
        ][0]
        code = map_code
        if config.loop_inversion:
            rotate_loops(code)
        param_values = [JSArray(ROOT, [1, 2, 3]), 3, JSFunction(inc_code, ())]
    graph = build_mir(code, feedback=code.feedback, param_values=param_values)
    optimize(graph, config)
    verify_graph(graph)
    verify_dominance(graph)


def _verify_every_pass(monkeypatch):
    """Run both MIR verifiers at every ``PassWork.charge`` (each pass's
    end); returns the list of pass names checked.  A failure names the
    pass, the function and the verifier's message."""
    checked = []
    charge = PassWork.charge

    def verified_charge(self, name, graph, result=None):
        charge(self, name, graph, result)
        try:
            verify_graph(graph)
            verify_dominance(graph)
        except CompilerError as error:
            raise AssertionError(
                "after pass %r on %s: %s" % (name, graph.code.name, error)
            ) from None
        checked.append(name)

    monkeypatch.setattr(PassWork, "charge", verified_charge)
    return checked


#: Config and suites whose compiles are verified at every pass's end.
#: ``BASELINE`` runs a subset of the others' passes, so it skips the two
#: slowest suites to keep the three runs near 8 s.
VERIFIED_RUNS = [
    (BASELINE, ("v8", "objects", "churn")),
    (FULL_SPEC, tuple(sorted(ALL_SUITES))),
    (EXTENDED, tuple(sorted(ALL_SUITES))),
]


@pytest.mark.parametrize(
    "config,suites", VERIFIED_RUNS, ids=[config.name for config, _suites in VERIFIED_RUNS]
)
def test_every_pass_leaves_a_verified_graph_on_the_suites(config, suites, monkeypatch):
    checked = _verify_every_pass(monkeypatch)
    for name in suites:
        for benchmark in ALL_SUITES[name]:
            Engine(config=config).run_source(benchmark.source)
    assert {"type_specialization", "gvn", "licm"} <= set(checked)


def _misorder(graph):
    """A planted pass: move the first instruction that uses a value
    defined earlier in its own block to just above that definition."""
    for block in graph.blocks:
        for index, instruction in enumerate(block.instructions):
            if instruction.is_control:
                continue
            for position, other in enumerate(block.instructions[:index]):
                if any(operand is other for operand in instruction.operands):
                    block.instructions.insert(position, block.instructions.pop(index))
                    return
    raise AssertionError("no in-block use to misorder")


def test_a_misordering_pass_is_named(monkeypatch):
    _verify_every_pass(monkeypatch)
    _top, code = compile_and_profile(KERNELS[0][1])
    graph = build_mir(code, feedback=code.feedback)
    work = optimize(graph, FULL_SPEC)
    _misorder(graph)
    with pytest.raises(AssertionError, match=r"after pass 'misorder' on f: .*does not dominate"):
        work.charge("misorder", graph)
