"""repro: a reproduction of "Just-in-Time Value Specialization" (CGO'13).

A JavaScript-subset virtual machine with an IonMonkey-style JIT that
specializes native code on the runtime values of function parameters.

Quickstart::

    from repro import Engine, FULL_SPEC

    engine = Engine(config=FULL_SPEC)
    engine.run_source('''
        function bitsInByte(b) {
            var m = 1, c = 0;
            while (m < 0x100) { if (b & m) c++; m <<= 1; }
            return c;
        }
        var total = 0;
        for (var i = 0; i < 3000; i++) total += bitsInByte(173);
        print(total);
    ''')
    print(engine.stats.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every figure and table.
"""

from repro.engine.config import (
    BASELINE,
    FULL_SPEC,
    PAPER_CONFIGS,
    CostModel,
    OptConfig,
)
from repro.engine.runtime_engine import Engine
from repro.engine.stats import EngineStats
from repro.telemetry.profiler import CycleProfiler
from repro.jsvm.interpreter import Interpreter
from repro.jsvm.runtime import Runtime
from repro.errors import (
    CompilerError,
    JSRangeError,
    JSReferenceError,
    JSSyntaxError,
    JSTypeError,
    NotCompilable,
    OwnerDropped,
    ReproError,
)

__version__ = "1.0.0"

__all__ = [
    "Engine",
    "EngineStats",
    "CycleProfiler",
    "Interpreter",
    "Runtime",
    "OptConfig",
    "CostModel",
    "BASELINE",
    "FULL_SPEC",
    "PAPER_CONFIGS",
    "ReproError",
    "JSSyntaxError",
    "JSTypeError",
    "JSReferenceError",
    "JSRangeError",
    "CompilerError",
    "NotCompilable",
    "OwnerDropped",
    "__version__",
]
