"""Pipeline-wide dominance invariant: defs dominate uses after every
pass combination, on every workload benchmark's hot functions."""

import pytest

from repro.engine.config import BASELINE, EXTENDED, FULL_SPEC, PAPER_CONFIGS
from repro.mir.builder import build_mir
from repro.mir.verifier import verify_dominance, verify_graph
from repro.opts.loop_inversion import rotate_loops
from repro.opts.pass_manager import optimize

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
