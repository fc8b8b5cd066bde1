"""Watch the deopt life cycle through the JIT event tracer.

Runs the same specialize → reuse → discard → recompile → bailout
story as ``deopt_lifecycle.py``, but instead of poking engine
internals it subscribes a :class:`repro.telemetry.tracing.Tracer` to
the ``compile``/``specialize``/``cache``/``deopt``/``bailout``
channels and lets the event stream tell the story (the schema is
documented in docs/TRACING.md).

Run it with::

    python examples/trace_deopt.py
"""

from repro import FULL_SPEC, Engine
from repro.jsvm.values import UNDEFINED
from repro.telemetry.tracing import Tracer, format_timeline, to_chrome_trace


def main():
    tracer = Tracer(
        channels=["compile", "specialize", "cache", "deopt", "bailout", "osr"]
    )
    engine = Engine(config=FULL_SPEC, hot_call_threshold=5, tracer=tracer)
    interpreter = engine.interpreter

    from repro.jsvm.bytecompiler import compile_source

    code = compile_source("function scale(v, k) { return v * k + 1; }")
    interpreter.run_code(code)
    scale = interpreter.runtime.get_global("scale")

    # 1. warm-up + hot compile, specialized on (7, 3).
    for _ in range(6):
        interpreter.call_function(scale, UNDEFINED, [7, 3])
    # 2. same arguments: cache hits, no recompilation.
    for _ in range(3):
        interpreter.call_function(scale, UNDEFINED, [7, 3])
    # 3. different arguments: discard + generic recompile + mark.
    interpreter.call_function(scale, UNDEFINED, [10, 10])
    # 4. a type guard fails inside the generic-typed code: bailout.
    interpreter.call_function(scale, UNDEFINED, ["oops", 3])

    print("-- per-function timeline " + "-" * 40)
    print(format_timeline(tracer.events))

    print()
    print("-- the story the events tell " + "-" * 36)
    for event in tracer.events:
        label = "%s.%s" % (event["ch"], event["event"])
        if label == "specialize.specialized":
            print("specialized on args=%s (key cached)" % (event["args"],))
        elif label == "cache.hit":
            print("cache hit: same arguments reuse the binary")
        elif label == "cache.miss":
            print("cache miss: a second distinct argument set")
        elif label == "deopt.discard":
            print("deopt: binary discarded (%s), never-specialize mark set" % event["reason"])
        elif label == "specialize.generic":
            print("recompiled generically (never_specialize=%s)" % event["never_specialize"])
        elif label == "bailout.guard":
            print(
                "bailout: %s failed %s at native[%s], resume pc %s (resume point %s)"
                % (
                    event["guard_op"],
                    event["reason"],
                    event["native_index"],
                    event["resume_pc"],
                    event["resume_point"],
                )
            )

    chrome = to_chrome_trace(tracer.events)
    print()
    print(
        "Chrome trace: %d entries (write with --chrome via `python -m repro trace`)"
        % len(chrome["traceEvents"])
    )


if __name__ == "__main__":
    main()
