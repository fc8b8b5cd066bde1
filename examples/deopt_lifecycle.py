"""The life cycle of a specialized binary: hit, reuse, discard, fall back.

Walks the paper's Section 4 specialization policy step by step with a
live engine, printing what the cache does at every stage:

1. a function becomes hot and is compiled specialized on its actual
   arguments;
2. further calls with the same arguments reuse the cached binary;
3. a call with different arguments discards it, recompiles the
   function "in IonMonkey's traditional mode", and marks it so it is
   never specialized again;
4. a type-guard bailout shows the other recovery path: rebuild the
   interpreter frame from the guard's snapshot and resume in bytecode.

Run it with::

    python examples/deopt_lifecycle.py
"""

from repro import FULL_SPEC, Engine
from repro.jsvm.values import UNDEFINED


def stage(title):
    print("\n--- %s " % title + "-" * max(0, 60 - len(title)))


def main():
    engine = Engine(config=FULL_SPEC, hot_call_threshold=5)
    interpreter = engine.interpreter

    # Define a function by running its definition.
    from repro.jsvm.bytecompiler import compile_source

    code = compile_source("function scale(v, k) { return v * k + 1; }")
    interpreter.run_code(code)
    scale = interpreter.runtime.get_global("scale")

    stage("1. warm-up: interpreted calls with the same arguments")
    for i in range(5):
        result = interpreter.call_function(scale, UNDEFINED, [7, 3])
    state = engine._state(scale.code)
    print("calls: %d, compiled: %s" % (state.call_count, state.native is not None))

    stage("2. hot: compiled, specialized on (7, 3)")
    result = interpreter.call_function(scale, UNDEFINED, [7, 3])
    state = engine._state(scale.code)
    print("result: %s" % result)
    print("native code: %s" % state.native)
    print("specialized: %s" % state.native.meta["specialized"])
    print("baked-in arguments: %s" % (state.native.meta["specialized_args"],))
    print("code size: %d instructions" % state.native.size)

    stage("3. cache hits: same arguments reuse the binary")
    compiles_before = engine.stats.compiles
    for i in range(1000):
        interpreter.call_function(scale, UNDEFINED, [7, 3])
    print("1000 calls, new compilations: %d" % (engine.stats.compiles - compiles_before))

    stage("4. different arguments: discard + generic recompile + mark")
    result = interpreter.call_function(scale, UNDEFINED, [10, 10])
    state = engine._state(scale.code)
    print("result: %s" % result)
    print("specialized now: %s" % state.native.meta["specialized"])
    print("never-specialize mark: %s" % state.never_specialize)
    print("deoptimized functions: %d" % len(engine.stats.deoptimized_functions))
    print("generic code size: %d instructions (specialized was smaller)" % state.native.size)

    stage("5. bailout: a type guard fails inside generic-typed code")
    bailouts_before = engine.stats.bailouts
    result = interpreter.call_function(scale, UNDEFINED, ["oops", 3])
    print("result: %s (computed correctly by the interpreter after the bailout)" % result)
    print("bailouts taken: %d" % (engine.stats.bailouts - bailouts_before))

    stage("summary")
    for key, value in sorted(engine.stats.summary().items()):
        print("  %-16s %s" % (key, value))


if __name__ == "__main__":
    main()
