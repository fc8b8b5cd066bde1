"""A tour of the compiler internals, following the paper's Figures 6-8.

This example compiles the paper's running example — ``map`` applying
``inc`` over an array — by hand, pass by pass, printing the MIR after
each stage so you can watch:

* parameter specialization replace parameter nodes with constants
  (Figure 7a),
* constant propagation fold type guards and arithmetic (Figure 7b),
* dead-code elimination delete the constant branches (Figure 8a),
* bounds-check elimination remove the array guards (Figure 8b),
* inlining splice ``inc``'s body into the loop (Figure 8c).

Run it with::

    python examples/specialization_tour.py
"""

from repro.engine.config import FULL_SPEC
from repro.jsvm.bytecompiler import compile_source
from repro.jsvm.feedback import TypeFeedback
from repro.jsvm.interpreter import Interpreter
from repro.jsvm.objects import JSArray
from repro.jsvm.values import JSFunction
from repro.lir.native import generate_native
from repro.mir.builder import build_mir
from repro.mir.printer import format_graph
from repro.mir.specializer import specialize_types
from repro.opts.bounds_check import run_bounds_check_elimination
from repro.opts.constprop import run_constant_propagation
from repro.opts.dce import run_dce
from repro.opts.gvn import run_gvn
from repro.opts.inlining import run_inlining

SOURCE = """
function inc(x) { return x + 1; }
function map(s, b, n, f) {
  var i = b;
  while (i < n) { s[i] = f(s[i]); i++; }
  return s;
}
map([1, 2, 3, 4, 5], 2, 5, inc);
"""


def banner(title):
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def main():
    # Compile and warm up in the interpreter so type feedback exists,
    # exactly as the engine would before a function gets hot.
    toplevel = compile_source(SOURCE)
    functions = {}

    def collect(code):
        for constant in code.constants:
            if hasattr(constant, "instructions"):
                functions[constant.name] = constant
                collect(constant)

    collect(toplevel)
    map_code = functions["map"]
    inc_code = functions["inc"]
    for code in (map_code, inc_code):
        code.feedback = TypeFeedback(code.num_params)

    interpreter = Interpreter()
    original = interpreter.call_function

    def recording(function, this_value, args):
        if function.code.feedback is not None:
            function.code.feedback.record_args(args)
        return original(function, this_value, args)

    interpreter.call_function = recording
    interpreter.run_code(toplevel)

    # The actual runtime arguments we specialize on (what the engine
    # reads off the interpreter stack at the hot call).
    array = JSArray(interpreter.runtime.shapes.root, [1, 2, 3, 4, 5])
    inc_function = JSFunction(inc_code, ())
    arguments = [array, 2, 5, inc_function]

    banner("1. MIR as built, with parameter specialization (Figure 7a)")
    graph = build_mir(map_code, feedback=map_code.feedback, param_values=arguments)
    print(format_graph(graph))

    banner("2. After inlining inc (Figure 8c) - no guards needed")
    inlined = run_inlining(graph)
    print("inlined %d call(s)" % inlined)
    print(format_graph(graph))

    banner("3. After baseline type specialization (typed arithmetic)")
    specialize_types(graph)
    print(format_graph(graph))

    banner("4. After GVN + constant propagation (Figure 7b)")
    merged = run_gvn(graph)
    folded = run_constant_propagation(graph)
    print("gvn merged %d, constprop folded %d instruction(s)" % (merged, folded))
    print(format_graph(graph))

    banner("5. After dead-code elimination (Figure 8a)")
    branches, blocks, instructions = run_dce(graph)
    print(
        "folded %d branch(es), removed %d block(s), %d instruction(s)"
        % (branches, blocks, instructions)
    )
    print(format_graph(graph))

    banner("6. After bounds-check elimination (Figure 8b)")
    removed = run_bounds_check_elimination(graph)
    print("removed %d bounds check(s)" % removed)
    print(format_graph(graph))

    banner("7. Final native code")
    native, stats = generate_native(graph)
    print(native.disassemble())
    print(
        "\n%d native instructions, %d LIR, %d live intervals, %d spills"
        % (native.size, stats["lir_instructions"], stats["intervals"], stats["spills"])
    )


if __name__ == "__main__":
    main()
