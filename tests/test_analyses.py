"""Tests for the CFG analyses: dominators, natural loops, ranges."""

from repro.jsvm.bytecode import Op
from repro.mir.builder import build_mir
from repro.mir.specializer import specialize_types
from repro.opts.dominators import DominatorTree
from repro.opts.loop_inversion import rotate_loops
from repro.opts.loops import find_loops
from repro.opts.range_analysis import compute_ranges
from repro.mir import instructions as mi

from tests.helpers import backward_jump_target, compile_and_profile, instrs


def graph_of(source, name=None, rotate=False, param_values=None, osr=False):
    _top, code = compile_and_profile(source, name)
    if rotate:
        rotate_loops(code)
    kwargs = {}
    if osr:
        from repro.jsvm.values import UNDEFINED

        kwargs = dict(
            osr_pc=backward_jump_target(code),
            osr_args=[0] * code.num_params,
            osr_locals=[UNDEFINED] * code.num_locals,
        )
    graph = build_mir(code, feedback=code.feedback, param_values=param_values, **kwargs)
    specialize_types(graph)
    return graph


LOOP = "function f(n) { var s = 0; for (var i = 0; i < n; i++) s += i; return s; } f(9);"
NESTED = """
function f(n) {
  var s = 0;
  for (var i = 0; i < n; i++)
    for (var j = 0; j < n; j++)
      s += i * j;
  return s;
}
f(4);
"""


class TestDominators:
    def test_entry_dominates_everything(self):
        graph = graph_of(LOOP)
        tree = DominatorTree(graph)
        for block in graph.blocks:
            assert tree.dominates(graph.entry, block)

    def test_self_domination(self):
        graph = graph_of(LOOP)
        tree = DominatorTree(graph)
        for block in graph.blocks:
            assert tree.dominates(block, block)

    def test_idom_is_a_strict_dominator(self):
        graph = graph_of(NESTED)
        tree = DominatorTree(graph)
        for block in graph.blocks:
            idom = tree.idom.get(id(block))
            if idom is not None and idom is not tree.root:
                assert idom is not block
                assert tree.dominates(idom, block)

    def test_branch_blocks_do_not_dominate_join(self):
        source = "function f(c) { var x; if (c) x = 1; else x = 2; return x; } f(true);"
        graph = graph_of(source)
        tree = DominatorTree(graph)
        returns = [b for b in graph.blocks if isinstance(b.terminator, mi.MReturn)]
        join = returns[0]
        for pred in join.predecessors:
            if len(join.predecessors) > 1:
                assert not tree.dominates(pred, join) or pred is join

    def test_osr_breaks_entry_domination(self):
        graph = graph_of(LOOP, osr=True)
        tree = DominatorTree(graph)
        # The loop header is reachable from both entries, so neither
        # entry block dominates it.
        header = [b for b in graph.blocks if b.phis][0]
        assert not tree.dominates(graph.entry, header)
        assert not tree.dominates(graph.osr_entry, header)

    def test_children_partition(self):
        graph = graph_of(NESTED)
        tree = DominatorTree(graph)
        seen = set()
        for block in graph.blocks:
            for child in tree.dominator_tree_children(block):
                assert id(child) not in seen
                seen.add(id(child))


class TestLoops:
    def test_finds_single_loop(self):
        graph = graph_of(LOOP)
        loops = find_loops(graph)
        assert len(loops) == 1
        assert loops[0].latches

    def test_nested_loops(self):
        graph = graph_of(NESTED)
        loops = find_loops(graph)
        assert len(loops) == 2
        outer, inner = loops[0], loops[1]
        assert len(outer.body) > len(inner.body)
        assert all(id(b) in outer.body for b in inner.blocks)

    def test_preheader(self):
        graph = graph_of(LOOP)
        loop = find_loops(graph)[0]
        preheader = loop.preheader()
        assert preheader is not None
        assert not loop.contains(preheader)

    def test_osr_loop_has_no_preheader(self):
        graph = graph_of(LOOP, osr=True)
        loop = find_loops(graph)[0]
        assert loop.preheader() is None

    def test_rotated_loop_is_do_while_shaped(self):
        graph = graph_of(LOOP, rotate=True)
        loops = find_loops(graph)
        assert any(loop.is_do_while_shaped() for loop in loops)

    def test_unrotated_loop_is_not(self):
        graph = graph_of(LOOP, rotate=False)
        loops = find_loops(graph)
        assert not any(loop.is_do_while_shaped() for loop in loops)

    def test_exits(self):
        graph = graph_of(LOOP)
        loop = find_loops(graph)[0]
        exits = loop.exits()
        assert exits
        for block, successor in exits:
            assert loop.contains(block)
            assert not loop.contains(successor)


class TestRangeAnalysis:
    def test_induction_range_from_constant_bound(self):
        source = "function f() { var s = 0; for (var i = 2; i < 100; i++) s += i; return s; } f();"
        graph = graph_of(source, param_values=[])
        loops = find_loops(graph)
        ranges = compute_ranges(graph, loops)
        assert ranges, "induction variable should be recognized"
        spans = sorted((r.low, r.high) for r in ranges.values())
        assert (2, 99) in spans  # the phi
        assert (3, 100) in spans  # the increment

    def test_unknown_bound_gives_no_range(self):
        graph = graph_of(LOOP)  # bound is the parameter n, not constant
        loops = find_loops(graph)
        assert compute_ranges(graph, loops) == {}

    def test_specialized_bound_gives_range(self):
        graph = graph_of(LOOP, param_values=[9])
        loops = find_loops(graph)
        ranges = compute_ranges(graph, loops)
        assert any(r.low == 0 and r.high == 8 for r in ranges.values())

    def test_le_bound_inclusive(self):
        source = "function f() { var s = 0; for (var i = 0; i <= 10; i++) s += i; return s; } f();"
        graph = graph_of(source, param_values=[])
        ranges = compute_ranges(graph, find_loops(graph))
        assert any(r.high == 10 for r in ranges.values())

    def test_decreasing_loop_not_recognized(self):
        source = "function f() { var s = 0; for (var i = 10; i > 0; i--) s += i; return s; } f();"
        graph = graph_of(source, param_values=[])
        ranges = compute_ranges(graph, find_loops(graph))
        assert ranges == {}  # the paper's pattern is increasing-only
