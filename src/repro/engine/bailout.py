"""Bailout introspection and guard fault injection ("chaos deopt").

A :class:`repro.lir.executor.Bailout` carries everything the engine
needs to resume interpretation (frame values, resume pc and mode) plus
the provenance the tracing layer reports: which guard op failed, why,
the failing instruction's index in the native stream, and the id of
the resume point (snapshot) the frame was rebuilt from.  Resume-point
ids are assigned in native emission order by
:func:`repro.lir.native.generate_native`, so they are stable across
identical compilations and a trace can be cross-referenced against
``python -m repro disasm`` output.

:class:`GuardFaultInjector` is the other direction: instead of
observing bailouts it *provokes* them.  Armed on an engine
(``Engine(fault_injector=...)``), both executor backends consult it at
every guard and force the selected guards to fail even though the
speculation they encode holds — with the exact recovery values the
interpreter would have produced, so a fault-injected run must print
bit-identical output.  That proves every compiled guard has a live,
correct deoptimization path (the invariant Flückiger et al. formalize
and docs/FUZZING.md describes); the differential fuzzer's chaos mode
is built on it.
"""

from repro.lir.native import FAULT_INJECTED, guard_indices

#: A seeded schedule fires each guard on one of its first this many
#: executions (:class:`GuardFaultInjector`).
SCHEDULE_WINDOW = 8


def describe_bailout(bail):
    """Extract the ``bailout.guard`` trace-event fields from ``bail``.

    Returns a dict with ``reason``, ``guard_op``, ``resume_pc``,
    ``resume_mode``, ``resume_point`` (the snapshot's emission-order id)
    and ``native_index`` (the faulting native instruction's index).
    """
    snapshot = bail.snapshot
    return {
        "reason": bail.reason,
        "guard_op": bail.guard_op,
        "resume_pc": bail.pc,
        "resume_mode": bail.mode,
        "resume_point": None if snapshot is None else snapshot.snapshot_id,
        "native_index": bail.native_index,
    }


class GuardFaultInjector(object):
    """Forces compiled guards to fail on demand ("chaos deopt").

    Selectors compose:

    * ``function`` — only guards in binaries of the named guest
      function (None targets every binary);
    * ``nth`` — only the Nth guard of a matching binary, in native
      stream order (None targets every guard).

    Each selected guard fires **once per binary**: the first time it
    executes, :meth:`should_fire` returns True, the executor raises a
    :class:`~repro.lir.executor.Bailout` with reason
    ``"fault-injected"`` and the exact recovery value a genuine
    execution would have produced, and subsequent executions of that
    guard run normally.  A fresh binary for the same function (OSR
    recompile, post-deopt generic code) starts with a clean slate, so
    chaos mode sweeps every guard of every generation.

    ``schedule_seed`` moves the firing *later* than the first
    execution — speculation that survives a warm-up and then dies is
    the regime the deoptless dispatch table (docs/DEOPTLESS.md)
    recovers from, and first-execution-only chaos never exercises it.
    It gives every (binary, guard) its own deterministic pseudo-random
    firing execution in ``[1, SCHEDULE_WINDOW]``, derived only from
    the seed, the code id and the guard's native index (no host
    ``hash()``, and code ids are per runtime, so the schedule is
    stable across processes and ``PYTHONHASHSEED``).

    The default constructor — no selectors — is full chaos: every
    guard of every binary fails on its first execution.  Pair it with
    ``Engine(bailout_limit=...)`` large enough that the engine does not
    fall back to generic code before the sweep finishes.
    """

    def __init__(self, function=None, nth=None, schedule_seed=None):
        self.function = function
        self.nth = nth
        self.schedule_seed = schedule_seed
        #: id(native) -> (native, fired index set, guard index list,
        #: per-guard execution counts).  The native is kept strongly
        #: referenced so ids stay unique for the injector's lifetime
        #: even after the engine discards a binary.
        self._binaries = {}
        #: One record per forced failure, in firing order.
        self.fired = []

    def _entry(self, native):
        entry = self._binaries.get(id(native))
        if entry is None:
            entry = (native, set(), guard_indices(native), {})
            self._binaries[id(native)] = entry
        return entry

    def _scheduled_execution(self, code_id, index):
        """The seeded schedule: a stable mix of (seed, code id, guard
        index) folded into ``[1, SCHEDULE_WINDOW]``."""
        mixed = (
            self.schedule_seed * 2654435761 + code_id * 40503 + index * 9973
        ) & 0xFFFFFFFF
        mixed ^= mixed >> 16
        mixed = (mixed * 2246822519) & 0xFFFFFFFF
        mixed ^= mixed >> 13
        return 1 + mixed % SCHEDULE_WINDOW

    def should_fire(self, native, index):
        """Decide whether the guard at ``index`` must fail now.

        Called by both executor backends immediately before a guard's
        own check.  Returns True at most once per (binary, guard) and
        records the firing in :attr:`fired`.
        """
        code = native.code
        if self.function is not None and code.name != self.function:
            return False
        _native, fired, guards, executions = self._entry(native)
        if index in fired:
            return False
        if self.nth is not None:
            if self.nth >= len(guards) or guards[self.nth] != index:
                return False
        count = executions.get(index, 0) + 1
        executions[index] = count
        if self.schedule_seed is not None and count < self._scheduled_execution(
            code.code_id, index
        ):
            return False
        fired.add(index)
        self.fired.append(
            {
                "fn": code.name,
                "code_id": code.code_id,
                "native_index": index,
                "guard_op": native.instructions[index].op,
                "specialized": bool(native.meta.get("specialized")),
                "execution": count,
            }
        )
        return True

    def coverage(self):
        """Per-binary firing coverage, for tests and reports.

        Returns a list of ``(native, fired_indices, guard_indices)``
        tuples — one per binary the injector ever saw a guard of.
        """
        return [
            (native, frozenset(fired), tuple(guards))
            for native, fired, guards, _executions in self._binaries.values()
        ]

    def fully_fired_binaries(self):
        """Binaries whose *every* guard was forced to fail at least once."""
        return [
            native
            for native, fired, guards, _executions in self._binaries.values()
            if guards and fired.issuperset(guards)
        ]


def exercise_entry_guards(engine):
    """Post-run harness: re-enter compiled code through the call path.

    A function that got hot on a loop back edge enters native code
    mid-loop (OSR), so its *call-entry* sequence — precondition
    checks, dispatch-table consultation, entry guards — may never
    execute during the program run, leaving a chaos sweep with
    unfired guards and the deoptless call path untested.  After the
    run, this harness replays each compiled function's most recent
    call (``FunctionState.last_call``) through
    ``Engine.try_native_call``, which drives the full call-path entry
    under the engine's normal policy: guard checks (and the armed
    injector, if any), sibling dispatch, bailout recovery.

    The replayed calls discard their results, but they *do* execute
    guest code — use it on kernels whose functions are pure of I/O
    (the generated fuzz corpus and the churn suite qualify; ``print``
    lives only in driver code, which is interpreter-only and has no
    ``FunctionState.native``).  Cycle and stats ledgers advance as
    for any call, so compare ledgers *before* exercising.

    Chaos runs only: the engine records ``last_call`` just when it was
    built with a ``fault_injector`` (on any other engine that would be a
    tuple per call and every function's last receiver and arguments
    pinned for the engine's life), so an engine without one has nothing
    to replay and is refused with a ``ValueError`` rather than reported
    as "0 functions re-entered".

    Returns the number of functions re-entered.
    """
    if engine.fault_injector is None:
        raise ValueError(
            "exercise_entry_guards needs an engine built with a fault_injector: "
            "only such an engine records the calls this harness replays"
        )
    reentered = 0
    for state in list(engine.states.values()):
        if state.native is None or state.last_call is None:
            continue
        function, this_value, args = state.last_call
        handled, _result = engine.try_native_call(function, this_value, args)
        if handled:
            reentered += 1
    return reentered
