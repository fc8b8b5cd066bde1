"""The differential oracle: one program, many engines, one answer.

A program is executed under every *variant* in the requested matrix —
interpreter, JIT on all three executor backends, specialization forced
off, cold and warm persistent cache, chaos deopt (every guard
force-failed) on all three backends plus a seeded random-schedule chaos
run, and the deoptless dispatch table (docs/DEOPTLESS.md) on all three
backends — and the observations are compared.  Variants that are not
about the backend (``nospec``, the cache pair, ``chaos-sched``) run on
the engine's default backend, the one users get:

* **output and guest errors** must agree across *every* variant.  The
  plain interpreter is the reference semantics; a chaos run agreeing
  with it is the proof that every forced deoptimization path recovered
  the exact interpreter state.
* **stats ledgers and deopt/bailout event streams** must agree within
  *equivalence classes* of variants that promise bit-identical
  simulation: the three executor backends, and cold vs warm cache runs.
  (Chaos runs intentionally add bailouts, so their class only pins the
  backends against each other.)

Any disagreement is returned as a :class:`Mismatch`; an empty list is
the oracle's "all variants agree" verdict.
"""

import shutil
import tempfile

from repro.cache import DiskCodeCache
from repro.engine.bailout import GuardFaultInjector
from repro.engine.config import BASELINE, FULL_SPEC
from repro.engine.runtime_engine import DEFAULT_EXECUTOR_BACKEND, Engine
from repro.engine.stats import DISK_TRAFFIC_KEYS
from repro.errors import CompilerError, ReproError
from repro.jsvm.bytecode import CodeObject
from repro.jsvm.interpreter import Interpreter
from repro.telemetry.tracing import Tracer

#: Fast tiering thresholds: compile and OSR kick in quickly so short
#: generated programs still exercise every tier.
HOT_CALLS = 3
OSR_BACKEDGES = 10

#: Effectively-unlimited bailout budget for chaos variants: every
#: guard of every binary is force-failed once, and the engine must not
#: fall back to generic code mid-sweep.
CHAOS_BAILOUT_LIMIT = 10 ** 9

#: Seed for the random-schedule chaos variant: each (binary, guard)
#: fires on its own deterministic Nth execution instead of the first,
#: so guards that survive a warm-up and then die are exercised too.
CHAOS_SCHEDULE_SEED = 1234

#: Trace channels whose event streams are compared within an
#: equivalence class (the deterministic deopt narrative plus the
#: deoptless dispatch narrative; compile/cache traffic legitimately
#: differs between cold and warm runs).
_COMPARED_CHANNELS = ("bailout", "deopt", "deoptless")


class Mismatch(object):
    """One oracle disagreement.

    ``kind`` is what diverged (``output``, ``error``, ``stats`` or
    ``events``; ``generator`` when the fuzzing loop finds its own
    program unparseable), ``variant`` the offending variant's name, ``detail``
    a one-line human-readable description of the first divergence.
    """

    def __init__(self, kind, variant, detail):
        self.kind = kind
        self.variant = variant
        self.detail = detail

    def __repr__(self):
        return "<Mismatch %s@%s: %s>" % (self.kind, self.variant, self.detail)


class Observation(object):
    """Everything the oracle compares for one variant run."""

    def __init__(self, printed, error, stats, events):
        #: Lines printed by the guest (the printed-so-far prefix when
        #: the run died on a guest error).
        self.printed = printed
        #: Guest error class name, or None for a clean run.
        self.error = error
        #: ``EngineStats.as_dict()`` (None for the plain interpreter).
        self.stats = stats
        #: The deterministic deopt narrative: (event, fields) pairs
        #: from the compared channels, sequence data stripped.
        self.events = events


def _strip(event):
    """An event as comparable data: drop ``seq`` (position in the full
    stream, which legitimately shifts when other channels' traffic
    differs) but keep the cycle timestamp and every payload field."""
    return tuple(
        sorted(item for item in event.items() if item[0] != "seq")
    )


def _observe_interp(source):
    """Reference observation: the plain interpreter."""
    interpreter = Interpreter()
    error = None
    try:
        printed = interpreter.run_source(source)
    except ReproError as exc:
        if isinstance(exc, CompilerError):
            raise
        error = type(exc).__name__
        printed = list(interpreter.runtime.printed)
    return Observation(printed, error, None, None)


def _observe_engine(source, **engine_kwargs):
    """One engine run as an :class:`Observation`.

    Resets the process-global code-id counter first so per-function
    stats keys line up across variants (shape ids line up by
    construction: each engine's runtime numbers its own tree); folds
    the live counters in (``Engine.finish``) even when the guest dies
    mid-run.
    """
    CodeObject._next_id = 1
    tracer = Tracer(channels=_COMPARED_CHANNELS)
    engine = Engine(
        tracer=tracer,
        hot_call_threshold=HOT_CALLS,
        osr_backedge_threshold=OSR_BACKEDGES,
        **engine_kwargs
    )
    error = None
    try:
        printed = engine.run_source(source)
    except ReproError as exc:
        if isinstance(exc, CompilerError):
            raise
        error = type(exc).__name__
        engine.finish()
        printed = list(engine.interpreter.runtime.printed)
    return Observation(
        printed,
        error,
        engine.stats.as_dict(),
        [_strip(event) for event in tracer.events],
    )


def _run_interp(source, _context):
    return _observe_interp(source)


def _run_jit(source, _context):
    return _observe_engine(source, config=FULL_SPEC, executor_backend="closure")


def _run_jit_simple(source, _context):
    return _observe_engine(source, config=FULL_SPEC, executor_backend="simple")


def _run_whole(source, _context):
    return _observe_engine(source, config=FULL_SPEC, executor_backend="whole")


def _run_nospec(source, _context):
    return _observe_engine(
        source, config=BASELINE, executor_backend=DEFAULT_EXECUTOR_BACKEND
    )


def _run_cache_cold(source, context):
    cache = DiskCodeCache(root=context["cache_root"])
    return _observe_engine(
        source,
        config=FULL_SPEC,
        executor_backend=DEFAULT_EXECUTOR_BACKEND,
        code_cache=cache,
    )


def _run_cache_warm(source, context):
    # Runs after cache-cold against the same root: artifacts are hot.
    cache = DiskCodeCache(root=context["cache_root"])
    return _observe_engine(
        source,
        config=FULL_SPEC,
        executor_backend=DEFAULT_EXECUTOR_BACKEND,
        code_cache=cache,
    )


def _run_chaos(source, _context):
    return _observe_engine(
        source,
        config=FULL_SPEC,
        executor_backend="closure",
        fault_injector=GuardFaultInjector(),
        bailout_limit=CHAOS_BAILOUT_LIMIT,
    )


def _run_chaos_simple(source, _context):
    return _observe_engine(
        source,
        config=FULL_SPEC,
        executor_backend="simple",
        fault_injector=GuardFaultInjector(),
        bailout_limit=CHAOS_BAILOUT_LIMIT,
    )


def _run_chaos_whole(source, _context):
    return _observe_engine(
        source,
        config=FULL_SPEC,
        executor_backend="whole",
        fault_injector=GuardFaultInjector(),
        bailout_limit=CHAOS_BAILOUT_LIMIT,
    )


def _run_chaos_sched(source, _context):
    # Seeded random schedule: guards fire on a per-guard deterministic
    # Nth execution, so recovery from *warmed-up* speculation (the
    # deoptless regime) is exercised, not just first-execution faults.
    return _observe_engine(
        source,
        config=FULL_SPEC,
        executor_backend=DEFAULT_EXECUTOR_BACKEND,
        fault_injector=GuardFaultInjector(schedule_seed=CHAOS_SCHEDULE_SEED),
        bailout_limit=CHAOS_BAILOUT_LIMIT,
    )


def _run_deoptless(source, _context):
    return _observe_engine(
        source, config=FULL_SPEC, executor_backend="closure", deoptless=True
    )


def _run_deoptless_simple(source, _context):
    return _observe_engine(
        source, config=FULL_SPEC, executor_backend="simple", deoptless=True
    )


def _run_deoptless_whole(source, _context):
    return _observe_engine(
        source, config=FULL_SPEC, executor_backend="whole", deoptless=True
    )


#: Variant name -> runner.  Declaration order is execution order
#: (cache-cold must precede cache-warm).
_RUNNERS = (
    ("interp", _run_interp),
    ("jit", _run_jit),
    ("jit-simple", _run_jit_simple),
    ("whole", _run_whole),
    ("nospec", _run_nospec),
    ("cache-cold", _run_cache_cold),
    ("cache-warm", _run_cache_warm),
    ("chaos", _run_chaos),
    ("chaos-simple", _run_chaos_simple),
    ("chaos-whole", _run_chaos_whole),
    ("chaos-sched", _run_chaos_sched),
    ("deoptless", _run_deoptless),
    ("deoptless-simple", _run_deoptless_simple),
    ("deoptless-whole", _run_deoptless_whole),
)

#: Every variant name, in execution order.
VARIANT_NAMES = tuple(name for name, _runner in _RUNNERS)

#: The full matrix: what ``python -m repro fuzz`` runs by default.
DEFAULT_MATRIX = VARIANT_NAMES

#: Variant groups whose stats ledgers and deopt narratives must be
#: bit-identical (first member is each group's reference).
_IDENTICAL_CLASSES = (
    ("jit", "jit-simple", "whole"),
    ("cache-cold", "cache-warm"),
    ("chaos", "chaos-simple", "chaos-whole"),
    # The dispatch table must be backend-invariant too: same cycles,
    # same deoptless dispatch narrative, on all three executors.
    # (Table on vs off legitimately differ in stats — on/off agreement
    # is pinned at the output level against the interpreter.)
    ("deoptless", "deoptless-simple", "deoptless-whole"),
)


def resolve_matrix(matrix):
    """Validate and order ``matrix`` (an iterable of variant names).

    Returns the names in canonical execution order; ``None`` means the
    full default matrix.  ``cache-warm`` without ``cache-cold`` is
    rejected — warm means "after a cold run populated the same root".
    """
    if matrix is None:
        return DEFAULT_MATRIX
    requested = list(matrix)
    unknown = sorted(set(requested) - set(VARIANT_NAMES))
    if unknown:
        raise ValueError(
            "unknown fuzz variants %s; available: %s"
            % (unknown, ", ".join(VARIANT_NAMES))
        )
    if "cache-warm" in requested and "cache-cold" not in requested:
        raise ValueError("variant cache-warm requires cache-cold in the matrix")
    if "interp" not in requested:
        requested.append("interp")
    return tuple(name for name in VARIANT_NAMES if name in requested)


def _first_line_diff(left, right):
    """Index and values of the first difference between two lists."""
    for index in range(max(len(left), len(right))):
        left_value = left[index] if index < len(left) else "<absent>"
        right_value = right[index] if index < len(right) else "<absent>"
        if left_value != right_value:
            return index, left_value, right_value
    return None


def check_program(source, matrix=None):
    """Run ``source`` through the matrix; return the mismatch list.

    An empty list means every variant printed the reference output
    (and raised the reference guest error, if any), and every
    bit-identity class agreed on stats and deopt events.  Host-side
    errors (:class:`CompilerError`) propagate — those are engine bugs
    the oracle must never swallow.
    """
    names = resolve_matrix(matrix)
    runners = dict(_RUNNERS)
    cache_root = None
    observations = {}
    try:
        if "cache-cold" in names:
            cache_root = tempfile.mkdtemp(prefix="repro-fuzz-cache-")
        context = {"cache_root": cache_root}
        for name in names:
            observations[name] = runners[name](source, context)
    finally:
        if cache_root is not None:
            shutil.rmtree(cache_root, ignore_errors=True)

    mismatches = []
    reference = observations["interp"]
    for name in names:
        if name == "interp":
            continue
        observation = observations[name]
        if observation.error != reference.error:
            mismatches.append(
                Mismatch(
                    "error",
                    name,
                    "guest error %s != %s" % (observation.error, reference.error),
                )
            )
            continue
        if observation.printed != reference.printed:
            diff = _first_line_diff(observation.printed, reference.printed)
            index, got, expected = diff
            mismatches.append(
                Mismatch(
                    "output",
                    name,
                    "line %d: %r != %r" % (index, got, expected),
                )
            )

    for group in _IDENTICAL_CLASSES:
        members = [name for name in group if name in observations]
        if len(members) < 2:
            continue
        base = observations[members[0]]
        for name in members[1:]:
            observation = observations[name]
            keys = sorted(
                key
                for key in set(base.stats) | set(observation.stats)
                # Disk-traffic counters are host-side accounting and
                # differ between cache-cold and cache-warm by design.
                if key not in DISK_TRAFFIC_KEYS
                and base.stats.get(key) != observation.stats.get(key)
            )
            if keys:
                mismatches.append(
                    Mismatch(
                        "stats",
                        name,
                        "differs from %s on %s" % (members[0], keys),
                    )
                )
            if observation.events != base.events:
                diff = _first_line_diff(observation.events, base.events)
                index, got, expected = diff
                mismatches.append(
                    Mismatch(
                        "events",
                        name,
                        "event %d: %r != %r (vs %s)"
                        % (index, got, expected, members[0]),
                    )
                )
    return mismatches
