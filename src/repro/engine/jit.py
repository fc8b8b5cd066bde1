"""One JIT compilation: bytecode → MIR → passes → LIR → native.

:func:`compile_function` is the whole pipeline of the paper's Figure 5
right-hand side, parameterized by the optimization configuration and,
when parameter specialization is active, by the actual argument values
sitting on the interpreter's stack.
"""

from repro.errors import NotCompilable
from repro.jsvm.feedback import shape_ic_fingerprint
from repro.lir.native import generate_native
from repro.mir.builder import build_mir
from repro.opts.pass_manager import optimize

#: Test-only hook: when set to a callable, every freshly generated
#: binary is passed through it before being returned to the engine.
#: The differential fuzzer's self-test plants a deliberate miscompile
#: here (e.g. flipping one opcode) to prove the oracle catches a wrong
#: binary end-to-end.  Never set in production paths.
_MISCOMPILE_HOOK = None


class CompileResult(object):
    """A finished compilation plus its cost-model inputs."""

    __slots__ = ("native", "work", "codegen_stats", "graph", "mir_instructions")

    def __init__(self, native, work, codegen_stats, graph, mir_instructions=None):
        self.native = native
        self.work = work
        self.codegen_stats = codegen_stats
        self.graph = graph
        #: Size of the optimized MIR graph (for the compile trace).
        self.mir_instructions = mir_instructions


def compile_function(
    code,
    config,
    feedback=None,
    param_values=None,
    this_value=None,
    osr_pc=None,
    osr_args=None,
    osr_locals=None,
    generic=False,
    shape_guards=True,
    keep_graph=False,
    tracer=None,
):
    """Compile ``code`` under ``config``.

    ``param_values`` (plus ``this_value``) activates parameter
    specialization; ``osr_pc`` adds the OSR entry block; ``generic``
    disables type speculation entirely (used after repeated bailouts);
    ``shape_guards=False`` widens only the shape-guarded property fast
    paths while keeping type speculation (deoptless generalized
    siblings, docs/DEOPTLESS.md).
    ``tracer`` receives per-pass ``pass.run`` events (docs/TRACING.md).
    Raises :class:`NotCompilable` for functions the JIT refuses.
    """
    if not config.param_spec:
        param_values = None
        this_value = None
    graph = build_mir(
        code,
        feedback=feedback,
        param_values=param_values,
        this_value=this_value,
        osr_pc=osr_pc,
        osr_args=osr_args,
        osr_locals=osr_locals,
        generic=generic,
        shape_guards=shape_guards,
    )
    try:
        work = optimize(
            graph, config, loop_inversion_applied=config.loop_inversion, tracer=tracer
        )
        native, codegen_stats = generate_native(graph)
        mir_instructions = graph.num_instructions()
    finally:
        # The graph is this compile's temporary: unlinked here, it is
        # freed by reference count instead of waiting for a collection.
        if not keep_graph:
            graph.release()
    # Stamp the IC snapshot the compile consumed: the engine compares
    # it against the live IC on a shape-retrain to detect recompiles
    # that would reproduce the binary bit-identically (retrain_noop,
    # docs/DEOPTLESS.md).  repr() keeps meta marshal-safe for the
    # persistent code cache.
    native.meta["ic_fingerprint"] = repr(
        shape_ic_fingerprint(feedback.shape_ics) if feedback is not None else ()
    )
    if _MISCOMPILE_HOOK is not None:
        _MISCOMPILE_HOOK(native)
    return CompileResult(
        native,
        work,
        codegen_stats,
        graph if keep_graph else None,
        mir_instructions=mir_instructions,
    )
