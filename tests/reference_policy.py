"""The call policy as it was before the warm-call fast path (PR 17).

A test-only :class:`~repro.engine.runtime_engine.Engine` whose
``try_native_call`` and ``_run_call`` are the bodies the engine had
when every call walked the whole policy, and :func:`record_args`, the
``TypeFeedback.record_args`` of the same commit (the one edit: it is a
function of the feedback object, and ``try_native_call`` calls it so).  ``tests/test_call_fast_path.py``
runs programs under both engines and requires every observable to be
equal; nothing under ``src/`` selects this code.
"""

from repro.engine.config import CostModel
from repro.engine.runtime_engine import Engine, _spec_key
from repro.jsvm.feedback import MAX_TAGS_PER_SITE, TypeFeedback
from repro.jsvm.values import describe_key, type_tag
from repro.lir.executor import Bailout
from repro.lir.wholefn import WholeExecutor


def record_args(feedback, args):
    nargs = len(args)
    tag = type_tag
    index = 0
    # Numeric tags are computed inline: this runs for every guest
    # call for the function's whole lifetime (monomorphic slots
    # never saturate), and arguments are overwhelmingly numbers.
    for slot in feedback.arg_tags:
        if len(slot) < MAX_TAGS_PER_SITE:
            if index < nargs:
                value = args[index]
                kind = type(value)
                if kind is int:
                    slot.add(
                        "int" if -2147483648 <= value <= 2147483647 else "double"
                    )
                elif kind is float:
                    slot.add("double")
                else:
                    slot.add(tag(value))
            else:
                slot.add("undefined")
        index += 1


class ReferenceEngine(Engine):
    """``Engine`` with the pre-fast-path call policy."""

    def __init__(self, *args, **kwargs):
        super(ReferenceEngine, self).__init__(*args, **kwargs)
        # Every call walks the policy: no warm entry for the interpreter
        # or for generated code (``WholeExecutor.call``).
        self.warm_entry = None
        if isinstance(self.executor, WholeExecutor):
            self.executor.engine = None

    def try_native_call(self, function, this_value, args):
        """Count the call; maybe compile; maybe execute natively.

        Returns ``(handled, result)``.
        """
        code = function.code
        state = self._state(code)
        state.call_count += 1
        stats = self.stats
        tracer = self.tracer
        if (
            tracer is not None
            and state.call_count == self.hot_call_threshold
            and not state.not_compilable
        ):
            tracer.emit(
                "interp",
                "hot_call",
                fn=code.name,
                code_id=code.code_id,
                calls=state.call_count,
            )
        if state.not_compilable:
            stats.interp_calls += 1
            if self.cycle_profiler is not None:
                self.cycle_profiler.interp_call()
            return False, None
        if code.feedback is None:
            code.feedback = TypeFeedback(code.num_params)
        record_args(code.feedback, args)

        native = state.native
        if native is not None:
            if native.meta["specialized"]:
                if _spec_key(this_value, args) == state.spec_key:
                    stats.spec_cache_hits += 1
                    if tracer is not None:
                        tracer.emit(
                            "cache",
                            "hit",
                            fn=code.name,
                            code_id=code.code_id,
                            key=describe_key(state.spec_key),
                            primary=True,
                        )
                    return True, self._run_call(state, function, this_value, args)
                key = _spec_key(this_value, args)
                cached = state.spec_cache.get(key)
                if cached is not None:
                    # Cache hit on a previously specialized set (only
                    # possible with capacity > 1, the §6 extension).
                    state.native, state.osr_state_key = cached
                    state.spec_key = key
                    stats.spec_cache_hits += 1
                    if tracer is not None:
                        tracer.emit(
                            "cache",
                            "hit",
                            fn=code.name,
                            code_id=code.code_id,
                            key=describe_key(key),
                            primary=False,
                        )
                    return True, self._run_call(state, function, this_value, args)
                stats.spec_cache_misses += 1
                if tracer is not None:
                    tracer.emit(
                        "cache",
                        "miss",
                        fn=code.name,
                        code_id=code.code_id,
                        key=describe_key(key),
                        entries=len(state.spec_cache),
                    )
                if not self.deoptless and len(state.spec_cache) < self.spec_cache_capacity:
                    # Room for another specialized binary (the §6
                    # eager extension; under deoptless, growth instead
                    # waits for the key to recur — ``_deoptless_call``).
                    if self._compile(state, function, this_value, args, osr_frame=None):
                        return True, self._run_call(state, function, this_value, args)
                if self.deoptless:
                    # Deoptless: the table is over capacity but nothing
                    # is discarded — dispatch into the generalized
                    # sibling (compiling it once the miss count proves
                    # real polymorphism), else interpret this call.
                    if self._deoptless_call(state, function, this_value, args):
                        return True, self._run_call(state, function, this_value, args)
                else:
                    # §4: one distinct argument set too many — discard,
                    # mark, recompile in IonMonkey's traditional mode.
                    self._discard_specialized(state, "new-args")
            else:
                if self.deoptless:
                    dispatched = False
                    key = _spec_key(this_value, args)
                    cached = state.spec_cache.get(key)
                    if cached is not None and cached[0] is not state.native:
                        # A generalized sibling is active but the table
                        # still holds specialized siblings: when this
                        # call's values satisfy one's baked
                        # preconditions, dispatch back into it — the
                        # specialized code is strictly faster in its
                        # own steady state.
                        state.native, state.osr_state_key = cached
                        state.spec_key = key
                        self._charge_dispatch(state.native)
                        stats.deoptless_reentries += 1
                        stats.spec_cache_hits += 1
                        dispatched = True
                        if tracer is not None:
                            tracer.emit(
                                "deoptless",
                                "dispatch",
                                fn=code.name,
                                code_id=code.code_id,
                                kind="respecialize",
                                osr_pc=None,
                                misses=state.deoptless_misses,
                            )
                    if (
                        not dispatched
                        and cached is None
                        and self._deoptless_promote(
                            state, function, this_value, args, key
                        )
                    ):
                        # A recurring regime reached the generalized
                        # catch-all often enough to earn its own line.
                        dispatched = True
                    if (
                        not dispatched
                        and state.native is state.generalized_osr
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
                return True, self._run_call(state, function, this_value, args)

        if state.native is None and state.call_count >= self.hot_call_threshold:
            if self._compile(state, function, this_value, args, osr_frame=None):
                return True, self._run_call(state, function, this_value, args)

        stats.interp_calls += 1
        if self.cycle_profiler is not None:
            self.cycle_profiler.interp_call()
        return False, None

    def _run_call(self, state, function, this_value, args):
        """Run the cached binary from its function entry point."""
        interpreter = self.interpreter
        interpreter.call_depth += 1
        self.executor.cycles += CostModel.native_call_entry
        if self.cycle_profiler is not None:
            self.cycle_profiler.charge_entry(
                state.native, CostModel.native_call_entry
            )
        try:
            return self.executor.run(state.native, function, this_value, args)
        except Bailout as bail:
            return self._handle_call_bailout(state, function, this_value, args, bail)
        finally:
            interpreter.call_depth -= 1
