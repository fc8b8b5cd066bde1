"""The optimization pipeline, configured per :class:`OptConfig`.

Pass order follows the paper: parameter specialization happens during
graph construction (the builder already did it by the time this module
runs); inlining of specialization constants comes next (§3.7); then the
baseline type specialization and GVN; constant propagation (§3.3);
a second inlining round so method loads folded to constants can inline
("we are also able to inline methods from objects passed as
parameters"); dead-code elimination (§3.5); LICM; and bounds-check
elimination (§3.6) last, on the cleaned-up graph.

Loop inversion (§3.4) is a bytecode transform applied before MIR
construction (see :mod:`repro.opts.loop_inversion`); its compile-time
cost is charged here nonetheless.

The returned :class:`PassWork` records how many instructions each pass
visited — the unit the engine's cost model converts into compile-time
cycles, so that configurations running more passes pay for them and
smaller (specialized) graphs compile faster.
"""

from repro.mir.specializer import specialize_types
from repro.opts.constprop import run_constant_propagation
from repro.opts.dce import merge_blocks, run_dce, simplify_trivial_phis
from repro.opts.gvn import run_gvn
from repro.opts.inlining import run_inlining
from repro.opts.licm import run_licm
from repro.opts.bounds_check import run_bounds_check_elimination


class PassWork(object):
    """Per-pass work units and outcome counts for one compilation.

    With a tracer subscribed to the ``pass`` channel, every charge also
    emits a ``pass.run`` event carrying the graph's instruction and
    guard counts sampled at pass boundaries (the "before" counts are
    the previous pass's "after" counts).
    """

    def __init__(self, graph=None, tracer=None):
        self.units = {}  # pass name -> instructions visited
        self.results = {}  # pass name -> pass-specific result
        self._tracer = (
            tracer if (tracer is not None and tracer.wants("pass")) else None
        )
        if self._tracer is not None and graph is not None:
            self._counts = (graph.num_instructions(), graph.num_guards())
        else:
            self._counts = None

    def charge(self, name, graph, result=None):
        self.units[name] = self.units.get(name, 0) + graph.num_instructions()
        if result is not None:
            self.results[name] = result
        if self._tracer is not None:
            before = self._counts if self._counts is not None else (None, None)
            after = (graph.num_instructions(), graph.num_guards())
            self._counts = after
            self._tracer.emit(
                "pass",
                "run",
                fn=graph.code.name,
                name=name,
                instructions_before=before[0],
                instructions_after=after[0],
                guards_before=before[1],
                guards_after=after[1],
                units=after[0],
                result=result,
            )

    @property
    def total_units(self):
        return sum(self.units.values())


def optimize(graph, config, loop_inversion_applied=False, tracer=None):
    """Run the configured pipeline on ``graph``; returns PassWork."""
    work = PassWork(graph, tracer)

    if loop_inversion_applied:
        # The rotation itself ran on the bytecode; bill its walk here.
        work.charge("loop_inversion", graph)

    if config.param_spec and graph.specialized:
        inlined = run_inlining(graph)
        work.charge("inlining", graph, inlined)

    specialize_types(graph)
    work.charge("type_specialization", graph)

    merged = run_gvn(graph)
    work.charge("gvn", graph, merged)

    if config.constprop:
        folded = run_constant_propagation(graph)
        work.charge("constprop", graph, folded)
        if config.param_spec and graph.specialized:
            # Second round: callees constant propagation made constant.
            inlined = run_inlining(graph)
            if inlined:
                specialize_types(graph)
                folded = run_constant_propagation(graph)
            work.charge("inlining2", graph, inlined)

    if config.dce:
        branches, blocks, instructions = run_dce(graph)
        work.charge("dce", graph, (branches, blocks, instructions))
    else:
        # Even without the configurable DCE, collapsing single-input
        # phis is part of SSA bookkeeping every compiler does.
        simplify_trivial_phis(graph)

    hoisted = run_licm(graph)
    work.charge("licm", graph, hoisted)

    # Graph finishing: fold straight-line block chains (always on; this
    # is bookkeeping every compiler does before lowering).
    merge_blocks(graph)

    if config.bounds_check:
        removed = run_bounds_check_elimination(graph)
        work.charge("bounds_check", graph, removed)
        if removed and config.dce:
            # Removing a check leaves its length computation dead.
            from repro.opts.dce import remove_dead_instructions

            remove_dead_instructions(graph)

    # --- §6 future-work extensions (off in all paper configurations) ---
    if config.unroll:
        from repro.opts.unrolling import run_unrolling

        unrolled = run_unrolling(graph)
        work.charge("unroll", graph, unrolled)
        if unrolled and config.constprop:
            # Unrolled bodies often evaluate away entirely.
            run_constant_propagation(graph)
            if config.dce:
                run_dce(graph)

    if config.overflow_elim:
        from repro.opts.overflow_check import run_overflow_check_elimination

        cleared = run_overflow_check_elimination(graph)
        work.charge("overflow_elim", graph, cleared)

    return work
