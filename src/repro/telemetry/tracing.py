"""Structured JIT event tracing (the engine's "spew" channel system).

IonMonkey ships a set of named spew channels (``IONFLAGS=logs,bailouts``)
because aggregate counters cannot answer *why* questions: why was this
specialization discarded, which pass deleted which guards, where did the
deoptimization storm come from.  This module is that observability layer
for the reproduction: a structured event tracer whose records carry the
engine's deterministic cycle clock as their timestamp, so a trace is
exactly reproducible run over run.

Design rules:

* **Zero overhead when disabled.**  The engine holds ``tracer = None``
  by default and tests for it once per fact, at ``Engine._emit`` (which
  stamps ``fn``/``code_id``); nothing here ever touches the cycle cost
  model, so enabling tracing cannot change any measured number.
* **Named channels.**  Events belong to one of the channels in
  :data:`CHANNELS` (``compile``, ``specialize``, ``deopt``,
  ``deoptless``, ``bailout``, ``cache``, ``osr``, ``pass``,
  ``interp``, ``ic``, ``shape``, ``profile``, ``fuzz``); a tracer can
  subscribe to any subset.
* **Typed events.**  Every ``channel.event`` pair and its field names
  are declared in :data:`EVENT_SCHEMA`; :meth:`Tracer.emit` rejects
  undeclared events and undeclared fields, and the documentation test
  checks ``docs/TRACING.md`` against the same registry, so the docs
  cannot silently rot.

Three exporters turn the event list into artifacts:

* :func:`to_jsonl` — one JSON object per line, the machine format;
* :func:`format_timeline` — a human-readable per-function timeline;
* :func:`to_chrome_trace` — Chrome ``trace_event`` JSON loadable in
  ``chrome://tracing`` / Perfetto, mapping one model cycle to one
  microsecond.

See ``docs/TRACING.md`` for the full schema with worked examples.
"""

import json

#: Every ``channel.event`` pair the engine may emit, with the complete
#: set of field names each may carry (beyond the common ``ch`` /
#: ``event`` / ``ts`` / ``seq``).  This registry is the single source
#: of truth: ``Tracer.emit`` validates against it and the docs test
#: checks ``docs/TRACING.md`` covers exactly these names.
EVENT_SCHEMA = {
    "compile": {
        "start": ("fn", "code_id", "reason", "attempt_specialize", "generic"),
        "finish": (
            "fn",
            "code_id",
            "specialized",
            "osr",
            "mir_instructions",
            "lir_instructions",
            "native_size",
            "intervals",
            "spills",
            "cycles",
        ),
        "reject": ("fn", "code_id"),
    },
    "specialize": {
        "specialized": ("fn", "code_id", "key", "args", "osr"),
        "generic": ("fn", "code_id", "never_specialize", "force_generic"),
    },
    "deopt": {
        "discard": ("fn", "code_id", "reason", "dropped"),
        "force_generic": ("fn", "code_id", "bailouts"),
        "retrain_noop": ("fn", "code_id", "resume_pc", "shape"),
    },
    "deoptless": {
        "dispatch": ("fn", "code_id", "kind", "osr_pc", "misses"),
        "miss": ("fn", "code_id", "reason", "misses"),
        "generalize": ("fn", "code_id", "osr", "osr_pc", "misses"),
    },
    "bailout": {
        "guard": (
            "fn",
            "code_id",
            "reason",
            "guard_op",
            "resume_pc",
            "resume_mode",
            "resume_point",
            "native_index",
            "count",
        ),
    },
    "cache": {
        "hit": ("fn", "code_id", "key", "primary"),
        "miss": ("fn", "code_id", "key", "entries"),
        "store": ("fn", "code_id", "key", "entries"),
        "disk_hit": ("fn", "code_id", "key"),
    },
    "osr": {
        "trip": ("fn", "code_id", "backedges", "target_pc"),
        "enter": ("fn", "code_id", "osr_pc", "backedges"),
    },
    "pass": {
        "run": (
            "fn",
            "name",
            "instructions_before",
            "instructions_after",
            "guards_before",
            "guards_after",
            "units",
            "result",
        ),
    },
    "interp": {
        "call": ("fn", "code_id", "nargs"),
        "hot_call": ("fn", "code_id", "calls"),
    },
    "ic": {
        "hit": ("fn", "code_id", "pc", "name", "shape", "state"),
        "miss": ("fn", "code_id", "pc", "name", "shape", "state"),
        "transition": ("fn", "code_id", "pc", "name", "shape", "state"),
    },
    "shape": {
        "guard": ("fn", "code_id", "reason", "resume_pc", "native_index", "count"),
    },
    "profile": {
        "summary": (
            "functions",
            "binaries",
            "attributed_cycles",
            "total_cycles",
            "guard_failures",
        ),
    },
    "fuzz": {
        "inject": ("fn", "code_id", "native_index", "guard_op"),
        "run": ("seed", "iteration", "lines", "variants"),
        "mismatch": ("seed", "iteration", "kind", "variant", "detail"),
        "shrink": ("seed", "iteration", "from_lines", "to_lines", "steps"),
    },
}

#: The channel names, in documentation order.
CHANNELS = tuple(EVENT_SCHEMA)

#: Fields present on every event, set by the tracer itself.
COMMON_FIELDS = ("ch", "event", "ts", "seq")


def _zero_clock():
    """Default clock for a tracer not yet bound to an engine."""
    return 0


def _jsonable(value):
    """Coerce ``value`` to something ``json.dumps`` accepts.

    Event payloads are primitives by construction; tuples (pass
    results) become lists, anything exotic becomes its ``repr``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


class Tracer(object):
    """Collects typed JIT events on a subset of :data:`CHANNELS`.

    ``channels=None`` subscribes to everything; pass an iterable of
    channel names to narrow it (an empty iterable yields a tracer that
    records nothing).  The clock is bound by the engine via
    :meth:`bind_clock`; unbound tracers stamp every event ``ts=0``.
    """

    def __init__(self, channels=None, clock=None):
        if channels is None:
            enabled = frozenset(CHANNELS)
        else:
            enabled = frozenset(channels)
            unknown = enabled - frozenset(CHANNELS)
            if unknown:
                raise ValueError(
                    "unknown trace channels %s; available: %s"
                    % (sorted(unknown), ", ".join(CHANNELS))
                )
        self.enabled = enabled
        self.events = []
        self._clock = clock if clock is not None else _zero_clock
        self._seq = 0

    def bind_clock(self, clock):
        """Use ``clock`` (a 0-arg callable) for event timestamps."""
        self._clock = clock

    def wants(self, channel):
        """True when ``channel`` is subscribed (callers can skip
        building expensive payloads otherwise)."""
        return channel in self.enabled

    def emit(self, channel, event, **fields):
        """Record one event; a no-op for unsubscribed channels.

        Raises ``ValueError`` for a channel/event/field combination not
        declared in :data:`EVENT_SCHEMA` — instrumentation sites and
        the documented schema cannot drift apart.
        """
        events = EVENT_SCHEMA.get(channel)
        if events is None:
            raise ValueError("unknown trace channel %r" % channel)
        if channel not in self.enabled:
            return
        allowed = events.get(event)
        if allowed is None:
            raise ValueError("unknown event %r on channel %r" % (event, channel))
        unknown = set(fields) - set(allowed)
        if unknown:
            raise ValueError(
                "undeclared fields %s for %s.%s" % (sorted(unknown), channel, event)
            )
        record = {"ch": channel, "event": event, "ts": self._clock(), "seq": self._seq}
        self._seq += 1
        for key, value in fields.items():
            record[key] = _jsonable(value)
        self.events.append(record)

    def clear(self):
        """Drop all recorded events (the sequence counter keeps going)."""
        del self.events[:]

    def __len__(self):
        return len(self.events)


# -- exporters ----------------------------------------------------------------


def to_jsonl(events):
    """Render events as JSON Lines (one event object per line)."""
    return "\n".join(json.dumps(event, sort_keys=False) for event in events)


def write_jsonl(events, path):
    """Write :func:`to_jsonl` output to ``path``."""
    with open(path, "w") as handle:
        text = to_jsonl(events)
        if text:
            handle.write(text + "\n")


def format_timeline(events, limit=None):
    """Human-readable per-function timeline.

    Events are grouped by function (in order of first appearance) and
    listed in emission order with their cycle timestamp; ``limit``
    truncates each function's listing.
    """
    by_fn = {}
    order = []
    for event in events:
        fn = event.get("fn", "(engine)")
        if fn not in by_fn:
            by_fn[fn] = []
            order.append(fn)
        by_fn[fn].append(event)
    lines = []
    for fn in order:
        group = by_fn[fn]
        lines.append("== %s (%d events) ==" % (fn, len(group)))
        shown = group if limit is None else group[:limit]
        for event in shown:
            detail = " ".join(
                "%s=%s" % (key, value)
                for key, value in event.items()
                if key not in COMMON_FIELDS and key != "fn"
            )
            lines.append(
                "  [%12d] %-20s %s"
                % (event["ts"], "%s.%s" % (event["ch"], event["event"]), detail)
            )
        if limit is not None and len(group) > limit:
            lines.append("  ... %d more" % (len(group) - limit))
    return "\n".join(lines)


def to_chrome_trace(events):
    """Convert events to Chrome ``trace_event`` format.

    The result loads in ``chrome://tracing`` and Perfetto.  One model
    cycle maps to one microsecond of trace time (``ts`` is in µs by the
    format's definition).  Each guest function gets its own "thread"
    row; ``compile.start``/``finish`` pairs become complete ("X") spans
    whose duration is the compilation's cycle cost, every other event
    becomes a thread-scoped instant ("i") marker.
    """
    tids = {}
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro JIT engine"},
        }
    ]

    def tid_for(fn):
        tid = tids.get(fn)
        if tid is None:
            tid = len(tids) + 1
            tids[fn] = tid
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": fn},
                }
            )
        return tid

    trace = []
    open_compiles = {}
    for event in events:
        fn = event.get("fn", "(engine)")
        tid = tid_for(fn)
        args = {
            key: value
            for key, value in event.items()
            if key not in COMMON_FIELDS and key != "fn"
        }
        channel = event["ch"]
        name = "%s.%s" % (channel, event["event"])
        if channel == "compile" and event["event"] == "start":
            open_compiles.setdefault(event.get("code_id"), []).append((event, tid))
            continue
        if channel == "compile" and event["event"] in ("finish", "reject"):
            stack = open_compiles.get(event.get("code_id"))
            if stack:
                start, start_tid = stack.pop()
                merged = {
                    key: value
                    for key, value in start.items()
                    if key not in COMMON_FIELDS and key != "fn"
                }
                merged.update(args)
                trace.append(
                    {
                        "name": "compile %s" % fn,
                        "cat": "compile",
                        "ph": "X",
                        "ts": start["ts"],
                        "dur": max(0, event["ts"] - start["ts"]),
                        "pid": 1,
                        "tid": start_tid,
                        "args": merged,
                    }
                )
                continue
        trace.append(
            {
                "name": name,
                "cat": channel,
                "ph": "i",
                "s": "t",
                "ts": event["ts"],
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    # A compile.start with no matching finish (NotCompilable raised out
    # of band) degrades to an instant so nothing is silently dropped.
    for stack in open_compiles.values():
        for start, tid in stack:
            trace.append(
                {
                    "name": "compile.start",
                    "cat": "compile",
                    "ph": "i",
                    "s": "t",
                    "ts": start["ts"],
                    "pid": 1,
                    "tid": tid,
                    "args": {
                        key: value
                        for key, value in start.items()
                        if key not in COMMON_FIELDS and key != "fn"
                    },
                }
            )
    trace.sort(key=lambda entry: entry["ts"])
    return {
        "traceEvents": metadata + trace,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "model cycles (1 cycle = 1 us)"},
    }


def write_chrome_trace(events, path):
    """Write :func:`to_chrome_trace` output as JSON to ``path``."""
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(events), handle, indent=1)
        handle.write("\n")
