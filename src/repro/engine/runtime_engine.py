"""The JIT engine: hotness policy, specialization cache, deoptimization.

This module implements the paper's §4 "Specialization policy":

* Every function the interpreter finds hot is compiled; with parameter
  specialization enabled, the compiler bakes the current actual
  arguments in as constants and the engine caches that argument set.
* A later call with the *same* arguments reuses the specialized binary
  (the cache hit the paper's Figure 2 shows happens ~60% of the time
  on the web).
* A call with *different* arguments discards the binary, recompiles
  the function generically, and marks it never-specialize-again — one
  cached binary per function, at most one specialization attempt.

It also implements on-stack replacement (both entry points of Figure
6), bailout handling (rebuilding the interpreter frame from guard
snapshots and resuming at the recorded bytecode pc), bailout-driven
type-feedback updates, and a repeated-bailout escape hatch that
recompiles without type speculation.
"""

import weakref

from repro.cache.disk import program_key
from repro.engine.bailout import describe_bailout
from repro.engine.config import BASELINE, CostModel
from repro.engine.jit import compile_function
from repro.engine.stats import EngineStats
from repro.errors import NotCompilable
from repro.jsvm.bytecode import CodeObject
from repro.jsvm.bytecompiler import compile_source
from repro.jsvm.feedback import TypeFeedback
from repro.jsvm.interpreter import Frame, Interpreter
from repro.jsvm.values import (
    _key_matcher,
    _key_recurrable,
    _spec_key,
    describe_key,
    value_key,
)
from repro.lir.closures import ClosureExecutor
from repro.lir.executor import Bailout, NativeExecutor
from repro.lir.native import FAULT_INJECTED
from repro.lir.wholefn import WholeExecutor
from repro.opts.loop_inversion import rotate_loops
from repro.telemetry.metrics import metrics_payload

#: Compile a function once it has been called this many times...
HOT_CALL_THRESHOLD = 10
#: ...or once its loops have taken this many back edges.
OSR_BACKEDGE_THRESHOLD = 100
#: Give up on type speculation after this many bailouts.
BAILOUT_LIMIT = 8
#: Deoptless (docs/DEOPTLESS.md): table misses per function before its
#: generalized sibling is compiled, so the table converges...
DEOPTLESS_MISS_THRESHOLD = 2
#: ...and specialized lines per function before calls fall through to
#: that sibling (never below the engine's ``spec_cache_capacity``).
DEOPTLESS_TABLE_CAPACITY = 4

#: The selectable native-executor backends.  All are bit-identical in
#: every observable (stats, cycles, output, traces; docs/PERF.md):
#: "simple" is the reference re-decoding interpreter loop, "closure"
#: pre-compiles each binary into per-block bound Python closures, and
#: "whole" lowers each binary to a single dispatch-free Python function
#: (docs/CODEGEN.md) — the fastest backend, and the default.
EXECUTOR_BACKENDS = {
    "simple": NativeExecutor,
    "closure": ClosureExecutor,
    "whole": WholeExecutor,
}

#: Backend used when the constructor argument picks none.
DEFAULT_EXECUTOR_BACKEND = "whole"


def resolve_executor_backend(name=None):
    """Pick the executor backend: the explicit argument, else the default.

    Returns the backend name; raises ``ValueError`` for unknown names.
    """
    if name is None:
        name = DEFAULT_EXECUTOR_BACKEND
    if name not in EXECUTOR_BACKENDS:
        raise ValueError(
            "unknown executor backend %r; available: %s"
            % (name, ", ".join(sorted(EXECUTOR_BACKENDS)))
        )
    return name


class FunctionState(object):
    """Per-code-object JIT state.

    ``native`` is the currently active binary; ``spec_cache`` maps
    argument-set keys to previously specialized binaries.  The paper
    caches exactly one binary per function (capacity 1, the default);
    the §6 extension makes the capacity configurable so the "best
    tradeoff" hypothesis can be tested (see the cache-capacity
    ablation bench).
    """

    __slots__ = (
        "code",
        "call_count",
        "backedge_count",
        "native",
        "_key",
        "key_match",
        "key_recorded",
        "osr_state_key",
        "spec_cache",
        "never_specialize",
        "force_generic",
        "not_compilable",
        "bailout_count",
        "generalized",
        "generalized_osr",
        "deoptless_misses",
        "miss_keys",
        "__weakref__",
    )

    def __init__(self, code):
        self.code = code
        self.call_count = 0
        self.backedge_count = 0
        self.native = None
        self.spec_key = None
        self.osr_state_key = None
        #: spec key -> (native, osr_state_key)
        self.spec_cache = {}
        self.never_specialize = False
        self.force_generic = False
        self.not_compilable = False
        self.bailout_count = 0
        #: The deoptless dispatch table's convergence target: the
        #: call-entry generalized sibling, a guard-widened binary whose
        #: entry preconditions accept any argument values
        #: (docs/DEOPTLESS.md).  Retained alongside ``spec_cache`` —
        #: together with ``generalized_osr`` they are the function's
        #: specialization dispatch table.
        self.generalized = None
        #: The OSR-entry generalized sibling: same widened guards plus
        #: an OSR entry for mid-loop re-entry.  Kept as a separate table
        #: line because the OSR entry has a real per-iteration price
        #: (it blocks loop-invariant hoisting past the entry merge), so
        #: the call path must never be stuck running it.
        self.generalized_osr = None
        #: Dispatch-table misses (precondition mismatches with no
        #: compatible sibling); at the engine's threshold the function
        #: is judged genuinely polymorphic and a generalized sibling
        #: is compiled.
        self.deoptless_misses = 0
        #: Spec-key miss counts: how often each argument-set key has
        #: reached the call path without a matching table line.  A key
        #: seen twice marks a *recurring* precondition regime and earns
        #: its own specialized sibling while the table has room
        #: (docs/DEOPTLESS.md); bounded — cleared at
        #: ``_MISS_KEY_BOUND`` so churning identities cannot grow it.
        self.miss_keys = {}

    def install(self, native, spec_key=None, osr_state_key=None):
        """Make ``native`` (None: nothing) the active binary, under its keys."""
        self.native = native
        self.spec_key = spec_key
        self.osr_state_key = osr_state_key

    @property
    def spec_key(self):
        """The argument-set key ``native`` is specialized on, or None.

        ``_spec_key(this, args)`` of the call it was compiled for: the
        values themselves, an object as ``('ref', object)``.  A call
        matches exactly when its own key equals this one.  Installing a
        key also resets what the warm call derives from it:

        ``key_match``
            the key pre-digested for the one comparison every call on a
            specialized binary makes, in ``try_native_call``
            (:func:`_key_matcher`); None only while no key is installed;
        ``key_recorded``
            the ``TypeFeedback`` on which the key's own values are known
            to be recorded, or None.  While that is the code object's
            live feedback, ``record_args`` on a primary-key hit is a
            no-op (tag sets only grow) and the warm call skips it.  It
            is forgotten with every installed key because only a
            call-entry compile keys on values ``record_args`` just saw:
            an OSR compile keys on ``frame.args``, which the body may
            have reassigned to values no call ever recorded.
        """
        return self._key

    @spec_key.setter
    def spec_key(self, key):
        self._key = key
        self.key_match = None if key is None else _key_matcher(key)
        self.key_recorded = None


#: Cap on ``FunctionState.miss_keys``: past this many distinct miss
#: keys the recurrence counters reset, bounding host memory against
#: callers that never repeat an argument set.
_MISS_KEY_BOUND = 64


def _osr_key(args, locals_):
    return tuple(value_key(v) for v in args) + tuple(value_key(v) for v in locals_)


def _unowned_clock(stats):
    """``stats.total_cycles`` as a 0-arg clock that does not own ``stats``.

    A tracer is handed to the engine and outlives it in its owner's
    hands, and the interpreter (which ``stats`` holds) owns it too;
    given the stats itself the clock would close a cycle, and nothing
    would be freed without a collection.  Once the stats are gone a
    call is its last answer: the clock stands still.
    """
    stats = weakref.ref(stats)
    last = [0]

    def call():
        live = stats()
        if live is not None:
            last[0] = live.total_cycles
        return last[0]

    return call


class Engine(object):
    """The orchestrator the interpreter consults (Figure 5)."""

    def __init__(
        self,
        config=BASELINE,
        hot_call_threshold=HOT_CALL_THRESHOLD,
        osr_backedge_threshold=OSR_BACKEDGE_THRESHOLD,
        bailout_limit=BAILOUT_LIMIT,
        spec_cache_capacity=1,
        tracer=None,
        executor_backend=None,
        cycle_profiler=None,
        code_cache=None,
        fault_injector=None,
        metrics=None,
        deoptless=False,
    ):
        self.config = config
        #: Optional structured event tracer (repro.telemetry.tracing);
        #: None (the default) means no events and zero overhead.
        self.tracer = tracer
        #: Optional cycle-exact profiler (repro.telemetry.profiler): it
        #: attributes every cycle of ``stats.total_cycles`` to a
        #: (function, tier, block) triple.  None means zero overhead.
        #: (The §2 call histogram is the interpreter's own hook,
        #: ``Interpreter(profiler=)``, and needs no engine.)
        self.cycle_profiler = cycle_profiler
        self.interpreter = Interpreter(
            engine=self, tracer=tracer, cycle_profiler=cycle_profiler
        )
        #: Which native-executor backend runs compiled binaries; all
        #: three are observably identical (docs/PERF.md), differing
        #: only in host speed.
        self.executor_backend = resolve_executor_backend(executor_backend)
        self.executor = EXECUTOR_BACKENDS[self.executor_backend](self.interpreter)
        if cycle_profiler is not None:
            self.executor.cycle_profiler = cycle_profiler
        #: Optional chaos-deopt injector
        #: (``repro.engine.bailout.GuardFaultInjector``).  Armed, both
        #: executor backends consult it before every guard and force
        #: the selected ones to fail with exact recovery values; pair
        #: with a large ``bailout_limit`` for full-sweep runs.
        self.fault_injector = fault_injector
        if fault_injector is not None:
            self.executor.fault_injector = fault_injector
        #: The ledger: the engine's own counts, plus the interpreter's,
        #: executor's and code cache's read live (docs/STATS.md).
        self.stats = EngineStats(self.interpreter, self.executor, code_cache)
        if tracer is not None:
            tracer.bind_clock(_unowned_clock(self.stats))
        #: True when nothing watches the call path — no tracer, cycle
        #: profiler or fault injector (all fixed at construction) — so a
        #: warm call may go straight from ``try_native_call`` to the
        #: executor.
        self._unobserved = (
            tracer is None and cycle_profiler is None and fault_injector is None
        )
        self.states = {}
        self.hot_call_threshold = hot_call_threshold
        self.osr_backedge_threshold = osr_backedge_threshold
        self.bailout_limit = bailout_limit
        #: Specialized binaries cached per function.  1 is the paper's
        #: policy; larger values implement its §6 "different
        #: heuristics" follow-up (a function deoptimizes only after
        #: exceeding the capacity in distinct argument sets).
        self.spec_cache_capacity = spec_cache_capacity
        #: Optional persistent cross-run code cache
        #: (``repro.cache.DiskCodeCache``).  A hit skips the
        #: MIR→LIR→codegen pipeline on the host — pure wall-clock; the
        #: simulated compile cycles are charged identically either way.
        self.code_cache = code_cache
        #: Optional metrics registry
        #: (``repro.telemetry.metrics.MetricsRegistry``) that
        #: :meth:`finish` fills with ``metrics_payload(self)``; nothing
        #: reads or writes it during a run (docs/METRICS.md).
        self.metrics = metrics
        #: Deoptless recovery (docs/DEOPTLESS.md): keep every compiled
        #: sibling in the per-function dispatch table and, on a guard
        #: precondition miss, dispatch into a compatible sibling (via
        #: OSR at the next loop back edge, or at the next call) instead
        #: of the §4 discard-and-recompile.  Off by default: ``False``
        #: keeps every observable bit-identical to the paper's policy.
        self.deoptless = deoptless
        self.deoptless_table_capacity = max(
            spec_cache_capacity, DEOPTLESS_TABLE_CAPACITY
        )

    # -- program entry -------------------------------------------------------

    def run_source(self, source):
        """Compile and run a whole script under this engine."""
        return self.run_code(self.load_source(source))

    def load_source(self, source):
        """Source text to the bytecode :meth:`run_code` takes.

        With a code cache attached this is key → load: the program
        entry holds the tree as compiled and rotated, so a cached source
        is never lexed, parsed, bytecompiled or rotated again
        (docs/COMPILE_PIPELINE.md, "Program entries").  A miss compiles,
        rotates and stores.  Either way the tree and its code ids, which
        the runtime's counter issues, come out the same.
        """
        ids = self.interpreter.runtime.code_ids
        cache = self.code_cache
        if cache is None:
            return compile_source(source, ids)  # run_code rotates
        key = program_key(source, self.config)
        code = cache.load_program(key, ids)
        if code is None:
            code = compile_source(source, ids)
            if self.config.loop_inversion:
                rotate_loops(code)
            cache.store_program(key, code)
        return code

    def forget(self, code):
        """Drop the per-function state of a code tree no one will run again."""
        self.states.pop(code.code_id, None)
        for constant in code.constants:
            if type(constant) is CodeObject:
                self.forget(constant)

    def run_code(self, code):
        if self.config.loop_inversion:
            rotate_loops(code)
        self.interpreter.run_code(code)
        self.finish()
        return self.interpreter.runtime.printed

    def finish(self):
        """End a run: load an attached metrics registry.

        When both a tracer and a cycle profiler are attached, a single
        ``profile.summary`` event is appended here — after every other
        event of the run, so the preceding stream (sequence numbers
        included) is exactly what an unprofiled run would record.
        """
        if self.metrics is not None:
            self.metrics.load(metrics_payload(self))
        if self.tracer is not None and self.cycle_profiler is not None:
            self.tracer.emit(
                "profile",
                "summary",
                total_cycles=self.stats.total_cycles,
                **self.cycle_profiler.summary()
            )

    # -- the emit point: each engine fact is stated once ---------------------------

    def _emit(self, channel, event, code, **fields):
        """State one fact about ``code`` as a trace event, if a tracer listens.

        ``fn``/``code_id`` are stamped here, and a spec key in ``key``
        becomes text (:func:`describe_key`).  Reads only its arguments
        and charges nothing, so a tracer moves no observable; the fact's
        count, where it has one, is the caller's ``stats`` entry.
        """
        if self.tracer is not None:
            if type(fields.get("key")) is tuple:
                fields["key"] = describe_key(fields["key"])
            self.tracer.emit(
                channel, event, fn=code.name, code_id=code.code_id, **fields
            )

    def _interpret_call(self):
        """Account a call left to the interpreter; the policy's False."""
        self.stats.interp_calls += 1
        if self.cycle_profiler is not None:
            self.cycle_profiler.interp_call()
        return False

    def _charge_entry(self, native, cost):
        """Charge one transition into ``native`` (the warm call does it in line)."""
        self.executor.cycles += cost
        if self.cycle_profiler is not None:
            self.cycle_profiler.charge_entry(native, cost)

    def _invalidate(self, code):
        """Charge one discarded binary to the ledger and the profiler."""
        self.stats.record_invalidation()
        if self.cycle_profiler is not None:
            self.cycle_profiler.record_invalidation(code, CostModel.invalidation)

    # -- state -------------------------------------------------------------------

    def _state(self, code):
        state = self.states.get(code.code_id)
        if state is None:
            state = FunctionState(code)
            self.states[code.code_id] = state
        return state

    # -- call-path hook (interpreter.call_function) ----------------------------------

    def try_native_call(self, function, this_value, args):
        """Count the call; maybe compile; maybe execute natively.

        Returns ``(handled, result)``.

        The steady state — a live binary, nothing observing — is decided
        here and goes straight to the executor: state, key match, run.
        Every other call (first calls, misses, deoptless dispatch,
        anything a tracer, profiler or fault injector watches) takes
        :meth:`_call_policy`, which only *decides*; the binary it leaves
        in ``state.native`` is entered below, in the one place that
        does the depth and entry-cost bookkeeping.
        """
        code = function.code
        state = self.states.get(code.code_id)
        if state is None:
            state = self._state(code)
        state.call_count += 1
        native = state.native
        feedback = code.feedback
        warm = hit = False
        if native is not None:
            steady = self._unobserved and feedback is not None and not state.not_compilable
            if native.specialized:
                # The primary key, compared in line: the one matcher of the
                # specialization cache (a specialized binary always has a key).
                this_kind, this_stored, kinds, stored_args = state.key_match
                if (
                    type(this_value) is this_kind
                    and (this_stored is this_value or this_stored == this_value)
                    and len(args) == len(kinds)
                ):
                    for kind, stored, value in zip(kinds, stored_args, args):
                        if type(value) is not kind or (stored is not value and stored != value):
                            break
                    else:
                        hit = True
                if hit and steady:
                    warm = True
                    if state.key_recorded is not feedback:
                        feedback.record_args(args)
                        state.key_recorded = feedback
                    self.stats.spec_cache_hits += 1
            elif steady and not self.deoptless:
                warm = True
                feedback.record_args(args)
        if not warm:
            if not self._call_policy(state, function, this_value, args, hit):
                return False, None
            native = state.native
        interpreter = self.interpreter
        interpreter.call_depth += 1
        self.executor.cycles += CostModel.native_call_entry
        if self.cycle_profiler is not None:
            self.cycle_profiler.charge_entry(native, CostModel.native_call_entry)
        try:
            return True, self.executor.run(native, function, this_value, args)
        except Bailout as bail:
            return True, self._handle_call_bailout(state, function, this_value, args, bail)
        finally:
            interpreter.call_depth -= 1

    def _call_policy(self, state, function, this_value, args, hit):
        """Everything a call may need besides running a matching binary.

        Records feedback, consults the specialization cache and the
        deoptless table, compiles — in that order, counting and tracing
        every fact of the call path.  ``hit`` is ``try_native_call``'s
        verdict that the call matches the active specialized binary's
        key; the policy matches nothing itself.  Returns True when ``state.native`` now accepts this call
        (the caller runs it), False when the call is to be interpreted.
        """
        code = state.code
        if state.call_count == self.hot_call_threshold and not state.not_compilable:
            self._emit("interp", "hot_call", code, calls=state.call_count)
        if state.not_compilable:
            return self._interpret_call()
        if code.feedback is None:
            code.feedback = TypeFeedback(code.num_params)
        code.feedback.record_args(args)

        stats = self.stats
        native = state.native
        if native is not None:
            if native.specialized:
                if hit:
                    stats.spec_cache_hits += 1
                    self._emit("cache", "hit", code, key=state.spec_key, primary=True)
                    return True
                key = _spec_key(this_value, args)
                cached = state.spec_cache.get(key)
                if cached is not None:
                    # Cache hit on a previously specialized set (only
                    # possible with capacity > 1, the §6 extension).
                    state.install(cached[0], key, cached[1])
                    stats.spec_cache_hits += 1
                    self._emit("cache", "hit", code, key=key, primary=False)
                    return True
                stats.spec_cache_misses += 1
                self._emit("cache", "miss", code, key=key, entries=len(state.spec_cache))
                if not self.deoptless and len(state.spec_cache) < self.spec_cache_capacity:
                    # Room for another specialized binary (the §6
                    # eager extension; under deoptless, growth instead
                    # waits for the key to recur — ``_deoptless_call``).
                    if self._compile(state, function, this_value, args, osr_frame=None):
                        return True
                if self.deoptless:
                    # Deoptless: the table is over capacity but nothing
                    # is discarded — dispatch into the generalized
                    # sibling (compiling it once the miss count proves
                    # real polymorphism), else interpret this call.
                    if self._deoptless_call(state, function, this_value, args):
                        return True
                else:
                    # §4: one distinct argument set too many — discard,
                    # mark, recompile in IonMonkey's traditional mode.
                    self._discard_specialized(state, "new-args")
            else:
                if self.deoptless:
                    key = _spec_key(this_value, args)
                    cached = state.spec_cache.get(key)
                    if cached is not None and cached[0] is not state.native:
                        # A generalized sibling is active but the table
                        # still holds specialized siblings: when this
                        # call's values satisfy one's baked
                        # preconditions, dispatch back into it — the
                        # specialized code is strictly faster in its
                        # own steady state.
                        self._dispatch_into(
                            state, cached[0], "respecialize", None, key, cached[1]
                        )
                        stats.spec_cache_hits += 1
                    elif cached is None and self._deoptless_promote(
                        state, function, this_value, args, key
                    ):
                        # A recurring regime reached the generalized
                        # catch-all often enough to earn its own line.
                        pass
                    elif (
                        state.native is state.generalized_osr
                        and state.native is not state.generalized
                    ):
                        # A call landed on the OSR-entry sibling, which
                        # pays the entry-merge price on every loop
                        # iteration: move the call path onto the lean
                        # call-entry line, compiling it on first need.
                        if state.generalized is None:
                            self._generalize(
                                state, function, this_value, args, osr_frame=None
                            )
                        if state.generalized is not None:
                            self._dispatch_into(
                                state, state.generalized, "call", None
                            )
                return True

        if state.native is None and state.call_count >= self.hot_call_threshold:
            if self._compile(state, function, this_value, args, osr_frame=None):
                return True

        return self._interpret_call()

    # -- back-edge hook (interpreter loops) ----------------------------------------------

    def on_backedge(self, interpreter, frame, target_pc):
        """Maybe OSR into native code at a hot loop's back edge.

        Returns None (keep interpreting), ``("return", value)`` when
        native code finished the frame, or ``("resume", (pc, stack))``
        after a bailout.
        """
        code = frame.code
        state = self._state(code)
        if state.not_compilable:
            return None
        state.backedge_count += 1
        if state.backedge_count == self.osr_backedge_threshold:
            self._emit(
                "osr", "trip", code, backedges=state.backedge_count, target_pc=target_pc
            )
        if state.backedge_count < self.osr_backedge_threshold:
            # A cached binary with a matching OSR entry can be re-entered
            # cheaply even below the compile threshold.
            if not self._can_reenter_osr(state, frame, target_pc):
                return None
        native = state.native
        needs_osr_compile = (
            native is None
            or native.osr_index is None
            or native.meta.get("osr_pc") != target_pc
        )
        if not needs_osr_compile and not self._can_reenter_osr(state, frame, target_pc):
            if self.deoptless:
                # Dispatched OSR: the active binary's baked-in OSR
                # preconditions no longer hold, but the dispatch table
                # may hold (or earn) a generalized sibling whose OSR
                # entry accepts this frame unconditionally.  Nothing is
                # discarded either way.
                if not self._deoptless_osr(state, frame, target_pc):
                    return None
            else:
                # A specialized binary whose baked-in OSR state no longer
                # matches this frame (e.g. we bailed out mid-loop and the
                # locals moved on).  Per the §4 policy this is a different
                # input: discard, mark, and recompile generically below.
                self._discard_specialized(state, "osr-state-mismatch")
                native = None
                needs_osr_compile = True
        elif (
            needs_osr_compile
            and self.deoptless
            and native is not None
            and (native is state.generalized or native is state.generalized_osr)
        ):
            # The generalized sibling lacks a usable OSR entry at this
            # loop: widen it in place (recompile generalized with the
            # OSR entry) rather than growing a new specialized table
            # line that would miss again on the next shape/value flip.
            if not self._deoptless_osr(state, frame, target_pc):
                return None
            needs_osr_compile = False
        if needs_osr_compile:
            if native is not None and native.specialized:
                # Keep the specialized call-entry binary; adding an OSR
                # entry means recompiling with the same constants.
                if _spec_key(frame.this_value, frame.args) != state.spec_key:
                    return None
            if code.feedback is None:
                code.feedback = TypeFeedback(code.num_params)
            if not self._compile(
                state, frame.function, frame.this_value, frame.args, osr_frame=(target_pc, frame)
            ):
                return None
        self.stats.osr_enters += 1
        self._emit("osr", "enter", code, osr_pc=target_pc, backedges=state.backedge_count)
        return self._run_osr(state, frame, target_pc)

    def _can_reenter_osr(self, state, frame, target_pc):
        native = state.native
        if native is None or native.osr_index is None:
            return False
        if native.meta.get("osr_pc") != target_pc:
            return False
        if native.specialized:
            return state.osr_state_key == _osr_key(frame.args, frame.locals)
        return True

    # -- deoptless dispatch (docs/DEOPTLESS.md) ----------------------------------------------

    def _charge_dispatch(self, native):
        """Charge the table-consult + side-entry cost of one dispatch."""
        self._charge_entry(native, CostModel.deoptless_dispatch)

    def _dispatch_into(self, state, native, kind, osr_pc, spec_key=None, osr_state_key=None):
        """Activate a dispatch-table sibling for immediate re-entry.

        The keys are a specialized sibling's; a generalized one has none.
        """
        state.install(native, spec_key, osr_state_key)
        self._charge_dispatch(native)
        self.stats.deoptless_reentries += 1
        self._emit(
            "deoptless",
            "dispatch",
            state.code,
            kind=kind,
            osr_pc=osr_pc,
            misses=state.deoptless_misses,
        )

    def _deoptless_miss(self, state, reason):
        """Count one dispatch-table miss (no compatible sibling yet)."""
        state.deoptless_misses += 1
        self.stats.deoptless_misses += 1
        self._emit(
            "deoptless", "miss", state.code, reason=reason, misses=state.deoptless_misses
        )

    def _record_generalized(self, state, native, osr_pc):
        """File a generalized sibling in the table line of its entry kind."""
        if osr_pc is not None:
            state.generalized_osr = native
        else:
            state.generalized = native
        self.stats.deoptless_generalized_compiles += 1
        self._emit(
            "deoptless",
            "generalize",
            state.code,
            osr=osr_pc is not None,
            osr_pc=osr_pc,
            misses=state.deoptless_misses,
        )

    def _generalize(self, state, function, this_value, args, osr_frame):
        """Compile the generalized sibling and record it in the table.

        "Generalized" widens exactly the guards that churn: no baked
        argument values and no shape guards (property ops compile to
        their generic forms), while type speculation — which converges
        even on polymorphic functions — stays on, so the sibling's
        steady state matches the §4 policy's post-discard code.  The
        sibling lands in the table line matching its entry kind:
        ``generalized_osr`` when compiled with an OSR entry,
        ``generalized`` (the call-entry line) otherwise.
        Returns the new native, or None when the JIT refuses.
        """
        result = self._produce(
            state, function, this_value, args, osr_frame=osr_frame, generalized=True
        )
        if result is None:
            return None
        native = result.native
        self._record_generalized(
            state, native, None if osr_frame is None else osr_frame[0]
        )
        return native

    def _deoptless_promote(self, state, function, this_value, args, key):
        """Grow a specialized table line for a recurring argument set.

        Counts ``key`` against the function's recurrence counters and,
        on its second arrival while the table has room, compiles the
        specialized sibling for it — the table's "multiple compiled
        versions keyed by guard preconditions" (docs/DEOPTLESS.md).
        One-allocation keys (identity-matched components) never earn a
        line.  Returns True when ``state.native`` is now that sibling.
        """
        if not _key_recurrable(key):
            return False
        if len(state.miss_keys) >= _MISS_KEY_BOUND:
            state.miss_keys.clear()
        seen = state.miss_keys.get(key, 0) + 1
        state.miss_keys[key] = seen
        if seen < 2 or len(state.spec_cache) >= self.deoptless_table_capacity:
            return False
        if self._compile(state, function, this_value, args, osr_frame=None):
            state.miss_keys.pop(key, None)
            return True
        return False

    def _deoptless_call(self, state, function, this_value, args):
        """Spec-table miss on the call path: grow, dispatch, or widen.

        Policy, in order: an argument-set key arriving for the second
        time marks a *recurring* precondition regime and earns its own
        specialized table line while the table has room (the "multiple
        compiled versions keyed by guard preconditions" of
        docs/DEOPTLESS.md); otherwise dispatch into the generalized
        catch-all when it exists; otherwise count a table miss and, at
        the engine's threshold, compile the generalized sibling.
        Returns True when ``state.native`` now accepts this call (the
        caller runs it natively); False to interpret this call.
        """
        if self._deoptless_promote(
            state, function, this_value, args, _spec_key(this_value, args)
        ):
            return True
        if state.generalized is not None:
            self._dispatch_into(state, state.generalized, "call", None)
            return True
        self._deoptless_miss(state, "new-args")
        if state.deoptless_misses < DEOPTLESS_MISS_THRESHOLD:
            return False
        if self._generalize(state, function, this_value, args, osr_frame=None) is None:
            return False
        self._dispatch_into(state, state.generalized, "call", None)
        return True

    def _deoptless_osr(self, state, frame, target_pc):
        """OSR-precondition miss: dispatch into the generalized sibling.

        Returns True when ``state.native`` can now be OSR-entered at
        ``target_pc`` (the caller emits ``osr.enter`` and runs it);
        False to keep interpreting this iteration.
        """
        generalized = state.generalized_osr
        if (
            generalized is not None
            and generalized.osr_index is not None
            and generalized.meta.get("osr_pc") == target_pc
        ):
            self._dispatch_into(state, generalized, "osr", target_pc)
            return True
        if generalized is None and state.generalized is None:
            self._deoptless_miss(state, "osr-state-mismatch")
            if state.deoptless_misses < DEOPTLESS_MISS_THRESHOLD:
                return False
        generalized = self._generalize(
            state,
            frame.function,
            frame.this_value,
            frame.args,
            osr_frame=(target_pc, frame),
        )
        if generalized is None:
            return False
        self._dispatch_into(state, generalized, "osr", target_pc)
        return True

    # -- compilation -------------------------------------------------------------------------

    def _produce(self, state, function, this_value, args, osr_frame, generalized=False):
        """Run one compilation and account it; no installation.

        Emits ``compile.start``/``compile.finish`` (or ``reject``),
        charges the compile cycles, and returns the compile result — or
        None when the JIT refuses the function.  Consulting the
        persistent code cache happens here: a disk hit replays the
        stored artifact instead of running MIR→LIR→codegen, with
        identical cycle accounting.
        ``generalized`` compiles the deoptless sibling: parameter
        values unbaked and shape guards widened away, but type
        speculation kept and no §4 policy bit on the function flipped
        (docs/DEOPTLESS.md).
        """
        code = state.code
        generic = state.force_generic
        specialize = (
            self.config.param_spec
            and not state.never_specialize
            and not generic
            and not generalized
        )
        osr_pc = None
        osr_args = None
        osr_locals = None
        if osr_frame is not None:
            osr_pc, frame = osr_frame
            osr_args = list(frame.args)
            osr_locals = list(frame.locals)
        self._emit(
            "compile",
            "start",
            code,
            reason="osr" if osr_frame is not None else "call",
            attempt_specialize=specialize,
            generic=generic,
        )
        # The cache key's inputs are the compiler's inputs.
        inputs = dict(
            feedback=code.feedback,
            param_values=list(args) if specialize else None,
            this_value=this_value if specialize else None,
            osr_pc=osr_pc,
            osr_args=osr_args,
            osr_locals=osr_locals,
            generic=generic,
            shape_guards=not generalized,
        )
        result = None
        cache = self.code_cache
        cache_key = None
        if cache is not None:
            cache_key = cache.key_for(code, self.config, **inputs)
            if cache_key is not None:
                result = cache.load(cache_key, code, inputs)
                if result is not None:
                    self._emit("cache", "disk_hit", code, key=cache_key)
        if result is None:
            try:
                result = compile_function(code, self.config, tracer=self.tracer, **inputs)
            except NotCompilable:
                state.not_compilable = True
                self.stats.not_compilable.add(code.code_id)
                self._emit("compile", "reject", code)
                return None
            if cache_key is not None:
                cache.store(cache_key, result, executor=self.executor, inputs=inputs)
        native = result.native
        codegen = result.codegen_stats
        compile_cycles = self.stats.record_compile(
            code, native, result.work.total_units, codegen, osr_pc is not None
        )
        if self.cycle_profiler is not None:
            self.cycle_profiler.record_compile(code, native, compile_cycles)
        self._emit(
            "compile",
            "finish",
            code,
            specialized=native.specialized,
            osr=osr_pc is not None,
            mir_instructions=result.mir_instructions,
            lir_instructions=codegen["lir_instructions"],
            native_size=native.size,
            intervals=codegen["intervals"],
            spills=codegen["spills"],
            cycles=compile_cycles,
        )
        return result

    def _compile(self, state, function, this_value, args, osr_frame):
        """Compile synchronously and make the binary the active code."""
        result = self._produce(state, function, this_value, args, osr_frame)
        if result is None:
            return False
        native = result.native
        code = state.code
        spec_key = osr_state_key = None
        if native.specialized:
            spec_key = _spec_key(this_value, args)
            if osr_frame is not None:
                osr_state_key = _osr_key(osr_frame[1].args, osr_frame[1].locals)
        state.install(native, spec_key, osr_state_key)
        if native.specialized:
            # A specialized binary also takes its specialization-cache line.
            self.stats.specialized_functions.add(code.code_id)
            state.spec_cache[spec_key] = (native, osr_state_key)
            self._emit(
                "specialize",
                "specialized",
                code,
                key=spec_key,
                args=args,
                osr=osr_state_key is not None,
            )
            self.stats.spec_cache_stores += 1
            self._emit("cache", "store", code, key=spec_key, entries=len(state.spec_cache))
        elif self.config.param_spec:
            self._emit(
                "specialize",
                "generic",
                code,
                never_specialize=state.never_specialize,
                force_generic=state.force_generic,
            )
        return True

    def _discard_specialized(self, state, reason):
        code = state.code
        self._emit("deopt", "discard", code, reason=reason, dropped=len(state.spec_cache))
        state.install(None)
        state.spec_cache.clear()
        state.never_specialize = True
        self.stats.deoptimized_functions.add(code.code_id)
        self._invalidate(code)

    # -- native execution -----------------------------------------------------------------------

    def _handle_call_bailout(self, state, function, this_value, args, bail):
        self._note_bailout(state, bail)
        if (
            self.deoptless
            and state.generalized is None
            and state.backedge_count == 0
            and state.deoptless_misses >= DEOPTLESS_MISS_THRESHOLD
            and not state.not_compilable
        ):
            # A loop-free function churning on shape guards has no back
            # edge to dispatch at, so widen now: the *next* call enters
            # the generalized sibling natively (this one resumes in the
            # interpreter — its frame is mid-expression, not at an OSR
            # point).
            if self._generalize(state, function, this_value, args, osr_frame=None) is not None:
                state.install(state.generalized)
        frame = Frame(state.code, function, this_value, list(bail.frame_args))
        frame.locals[:] = bail.frame_locals
        pc = bail.pc + 1 if bail.mode == "after" else bail.pc
        return self.interpreter.execute(frame, pc, list(bail.frame_stack))

    def _run_osr(self, state, frame, target_pc):
        """Enter the cached binary at its OSR entry for ``frame``."""
        self._charge_entry(state.native, CostModel.native_call_entry)
        try:
            value = self.executor.run(
                state.native,
                frame.function,
                frame.this_value,
                frame.args,
                entry="osr",
                osr_args=list(frame.args),
                osr_locals=list(frame.locals),
            )
            return ("return", value)
        except Bailout as bail:
            self._note_bailout(state, bail)
            frame.args[:] = bail.frame_args
            frame.locals[:] = bail.frame_locals
            pc = bail.pc + 1 if bail.mode == "after" else bail.pc
            return ("resume", (pc, list(bail.frame_stack)))

    def _note_bailout(self, state, bail):
        """Account a bailout and feed the observation back into typing."""
        code = state.code
        self.stats.record_bailout()
        if self.cycle_profiler is not None:
            self.cycle_profiler.record_bailout(
                code, state.native, bail, CostModel.bailout
            )
        state.bailout_count += 1
        shape_guard = bail.guard_op == "guardshape"
        if shape_guard:
            # A receiver reached a shape-guarded property site with a
            # shape the inline cache had not seen at compile time.  The
            # "at"-mode resume re-executes the property bytecode, whose
            # handler records the new shape into the IC, so the next
            # compile covers it.
            self.stats.shape_guard_bailouts += 1
        if self.tracer is not None:
            self._emit(
                "bailout", "guard", code, count=state.bailout_count, **describe_bailout(bail)
            )
            if shape_guard:
                self._emit(
                    "shape",
                    "guard",
                    code,
                    reason=bail.reason,
                    resume_pc=bail.pc,
                    native_index=bail.native_index,
                    count=self.stats.shape_guard_bailouts,
                )
            if bail.reason == FAULT_INJECTED:
                self._emit(
                    "fuzz",
                    "inject",
                    code,
                    native_index=bail.native_index,
                    guard_op=bail.guard_op,
                )
        if shape_guard and bail.reason != FAULT_INJECTED and state.native is not None:
            if self.deoptless:
                # Deoptless: keep the binary and its table entry — the
                # resumed interpreter records the new shape into the
                # site's IC, and the dispatch table recovers at the
                # next back edge or call (docs/DEOPTLESS.md).
                self._deoptless_miss(state, "shape-guard")
            else:
                # Retrain rather than re-bail: the resumed interpreter is
                # about to record the unexpected shape into the site's IC,
                # which makes the installed binary's baked-in guard set
                # permanently stale — every future call with this receiver
                # would bail again.  Drop the binary; the next hot call
                # recompiles against the enriched cache (a wider poly
                # guard, or guard-free once the site goes megamorphic).
                # Injector-forced failures skip this: the speculation they
                # fail actually holds, so the binary is still right.
                if state.spec_key is not None:
                    state.spec_cache.pop(state.spec_key, None)
                state.install(None)
                self.stats.retrains += 1
                self._invalidate(code)
                self._emit("deopt", "discard", code, reason="shape-retrain", dropped=1)
        feedback = code.feedback
        if feedback is not None:
            if bail.mode == "after":
                feedback.record_site(bail.pc, bail.actual)
            elif bail.pc == 0:
                feedback.record_args(bail.frame_args)
        if state.bailout_count > self.bailout_limit and state.native is not None:
            # Too speculative for this function: drop to generic code.
            # The generalized sibling is stale too — it kept type
            # speculation, which is exactly what is now suspect — so the
            # dispatch table must re-generalize under force_generic.
            state.native = None
            state.generalized = None
            state.generalized_osr = None
            state.force_generic = True
            self._invalidate(code)
            self._emit("deopt", "force_generic", code, bailouts=state.bailout_count)
