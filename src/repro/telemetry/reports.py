"""Render :class:`~repro.telemetry.profiler.CycleProfiler` results.

Three exporters, matching what real JIT tooling ships:

* :func:`format_function_table` — the self/inclusive hot-function
  table with a per-tier breakdown (interp / native / compile /
  bailout / invalidate cycles per function);
* :func:`to_collapsed` — collapsed-stack ("folded") output in the
  format every flamegraph tool consumes: one ``a;b;c count`` line per
  distinct stack, where the leaf frame is a ``[tier]`` marker and the
  count is cycles.  :func:`parse_collapsed` is the matching parser
  (the round-trip is tested: parsed counts sum back to
  ``total_cycles``);
* :func:`annotate_function` — the native disassembly of every binary
  compiled for a function, interleaved with per-instruction execution
  counts, cycle shares and guard-failure counts, followed by the
  binary's guard-forensics table.

All output is deterministic: ordering is by cycles (descending) with
code-id tiebreaks, never by hash order.
"""

from repro.telemetry.profiler import ENTRY_BLOCK, TIERS


def function_table_rows(profiler):
    """Hot-function rows, sorted by self cycles descending.

    Each row is the :meth:`CycleProfiler.function_totals` entry for one
    function (the profiler root's ``(engine)`` pseudo-entry is dropped
    unless it was actually charged).
    """
    totals = profiler.function_totals()
    rows = [
        entry
        for entry in totals.values()
        if entry["code_id"] is not None or entry["self_cycles"]
    ]
    rows.sort(key=lambda entry: (-entry["self_cycles"], entry["code_id"] or 0))
    return rows


def format_function_table(profiler, total_cycles=None, top=None):
    """The self/inclusive hot-function table as text."""
    rows = function_table_rows(profiler)
    if total_cycles is None:
        total_cycles = profiler.attributed_cycles()
    shown = rows if top is None else rows[:top]
    header = "%-24s %12s %7s %12s %10s %10s %9s %9s %9s" % (
        "function", "self", "self%", "inclusive",
        "interp", "native", "compile", "bailout", "invalid",
    )
    lines = [header]
    for entry in shown:
        tiers = entry["tiers"]
        share = 100.0 * entry["self_cycles"] / total_cycles if total_cycles else 0.0
        line = "%-24s %12d %6.2f%% %12d %10d %10d %9d %9d %9d" % (
            entry["name"],
            entry["self_cycles"],
            share,
            entry["inclusive_cycles"],
            tiers["interp"],
            tiers["native"],
            tiers["compile"],
            tiers["bailout"],
            tiers["invalidate"],
        )
        lines.append(line)
    if top is not None and len(rows) > top:
        lines.append("... %d more" % (len(rows) - top))
    return "\n".join(lines)


# -- collapsed stacks ("folded" flamegraph format) ---------------------------


def to_collapsed(profiler):
    """Collapsed-stack export: ``frame;frame;[tier] cycles`` lines.

    Each line is one distinct guest stack with a ``[tier]`` leaf frame
    naming where the cycles were spent (``[interp]``, ``[native]``,
    ``[compile]``, ``[bailout]``, ``[invalidate]``); counts are model
    cycles.  The format is what ``flamegraph.pl``, speedscope and
    inferno consume directly.  Zero-cycle stacks are omitted, so the
    line counts sum exactly to ``total_cycles``.
    """
    lines = []
    for path, node in profiler.walk():
        base = ";".join(path) if path else "(engine)"
        for tier in TIERS:
            cycles = node.tier_cycles()[tier]
            if cycles:
                lines.append("%s;[%s] %d" % (base, tier, cycles))
    lines.sort()
    return "\n".join(lines)


def write_collapsed(profiler, path):
    """Write :func:`to_collapsed` output to ``path``."""
    with open(path, "w") as handle:
        text = to_collapsed(profiler)
        if text:
            handle.write(text + "\n")


def parse_collapsed(text):
    """Parse collapsed-stack text back to ``[(frames tuple, count)]``.

    The standard flamegraph grammar: each non-empty line is a
    semicolon-separated frame list, whitespace, and an integer count.
    Raises ``ValueError`` on malformed lines.
    """
    stacks = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack_text, _, count_text = line.rpartition(" ")
        if not stack_text:
            raise ValueError("malformed collapsed-stack line %r" % line)
        stacks.append((tuple(stack_text.split(";")), int(count_text)))
    return stacks


# -- annotated disassembly ---------------------------------------------------


def annotate_function(profiler, fn_name):
    """Annotated native disassembly for every binary of ``fn_name``.

    For each binary compiled for the function (in compile order), the
    disassembly is interleaved with per-instruction execution counts,
    cycle totals, each instruction's share of the binary's native
    cycles, and guard-failure counts; a guard-forensics table follows
    when the binary bailed out.  Raises ``ValueError`` when the
    profiler saw no binary for ``fn_name``.
    """
    records = [record for record in profiler.binaries if record.name == fn_name]
    if not records:
        known = sorted({record.name for record in profiler.binaries})
        raise ValueError(
            "no compiled binary for %r; compiled functions: %s"
            % (fn_name, ", ".join(known) if known else "(none)")
        )
    sections = []
    for record in records:
        native = record.native
        costs = native.cost_table()
        final = record.resolved_counts()
        total = sum(count * cost for count, cost in zip(final, costs))
        lines = [
            "== %s (code %d) · binary %d/%d · %s · %d instructions · "
            "%d entries · %d native cycles =="
            % (
                record.name,
                record.code_id,
                record.generation,
                len(records),
                "specialized" if record.specialized else "generic",
                native.size,
                record.entry_count,
                total,
            )
        ]
        if record.specialized:
            lines.append(
                ";; specialized on: %r" % (native.meta.get("specialized_args"),)
            )
        lines.append(
            "   %5s %10s %12s %7s %7s  %s"
            % ("idx", "count", "cycles", "share", "guards", "instruction")
        )
        for index, instruction in enumerate(native.instructions):
            count = final[index]
            cycles = count * costs[index]
            share = 100.0 * cycles / total if total else 0.0
            failures = record.forensics.get(index)
            marker = "=>" if index == native.osr_index else "  "
            lines.append(
                "%s %5d %10d %12d %6.2f%% %7s  %r"
                % (
                    marker,
                    index,
                    count,
                    cycles,
                    share,
                    failures["count"] if failures is not None else ".",
                    instruction,
                )
            )
        if record.forensics:
            lines.append("-- guard forensics --")
            lines.append(
                "   %5s %8s %-16s %-16s %10s %8s %6s"
                % ("idx", "count", "guard", "reason", "resume_pc", "mode", "snap")
            )
            for index in sorted(record.forensics):
                entry = record.forensics[index]
                lines.append(
                    "   %5d %8d %-16s %-16s %10d %8s %6s"
                    % (
                        entry["native_index"],
                        entry["count"],
                        entry["guard_op"],
                        entry["reason"],
                        entry["resume_pc"],
                        entry["resume_mode"],
                        entry["resume_point"],
                    )
                )
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


# -- machine-readable bundle --------------------------------------------------


def profile_as_dict(profiler, stats=None):
    """JSON-safe bundle of the whole profile (CLI ``--json`` payload).

    Contains the summary, the hot-function rows, the exact attribution
    rows, and every binary's guard-forensics entries; when ``stats``
    is given its ``as_dict()`` rides along so one file joins profile
    and ledger.
    """
    bundle = {
        "summary": profiler.summary(),
        "functions": function_table_rows(profiler),
        "attribution": profiler.attribution(),
        "guard_forensics": [
            {
                "fn": record.name,
                "code_id": record.code_id,
                "generation": record.generation,
                "specialized": record.specialized,
                "failures": [
                    record.forensics[index] for index in sorted(record.forensics)
                ],
            }
            for record in profiler.binaries
            if record.forensics
        ],
    }
    if stats is not None:
        bundle["stats"] = stats.as_dict()
    return bundle
