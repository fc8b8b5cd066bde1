"""The fuzzing loop: generate, cross-check, shrink, bank.

:class:`FuzzSession` drives ``python -m repro fuzz``: for each
iteration it generates the deterministic program for
``(seed, iteration)``, runs it through the differential oracle, and on
a mismatch optionally shrinks the program with ddmin and writes the
reproducer into a corpus directory (the CI job uploads that directory
as its failure artifact; curated reproducers graduate into
``tests/corpus/`` where tier-1 replays them forever).

Progress is observable twice over: a ``fuzz``-channel tracer receives
one ``fuzz.run`` event per clean iteration and ``fuzz.mismatch`` /
``fuzz.shrink`` events on failures, and an optional ``log`` callable
(the CLI passes a printer) gets one human-readable line per notable
event.
"""

import os

from repro.errors import JSSyntaxError
from repro.fuzz.generator import generate_program
from repro.fuzz.oracle import Mismatch, check_program, resolve_matrix
from repro.fuzz.shrink import shrink_program
from repro.jsvm.bytecompiler import compile_source


class FuzzSession(object):
    """One differential-fuzzing campaign over a seed range."""

    def __init__(
        self,
        seed=0,
        iterations=100,
        matrix=None,
        shrink=True,
        corpus_dir=None,
        tracer=None,
        log=None,
    ):
        self.seed = seed
        self.iterations = iterations
        self.matrix = resolve_matrix(matrix)
        self.shrink = shrink
        self.corpus_dir = corpus_dir
        self.tracer = tracer
        self.log = log if log is not None else (lambda message: None)
        #: One record per mismatching iteration (dicts; see ``run``).
        self.failures = []

    def _emit(self, event, **fields):
        if self.tracer is not None:
            self.tracer.emit("fuzz", event, **fields)

    def _predicate_for(self, kind):
        """The shrinker's predicate: candidate still mismatches.

        Pinned to the original mismatch ``kind`` so reduction cannot
        wander onto an unrelated (and possibly shallower) disagreement
        mid-shrink.  Syntax-breaking candidates are simply False.
        """

        def predicate(candidate_source):
            try:
                found = check_program(candidate_source, self.matrix)
            except JSSyntaxError:
                return False
            return any(mismatch.kind == kind for mismatch in found)

        return predicate

    def _check(self, source):
        """The oracle's mismatches, after holding the generator to its
        own contract: every variant rejects an unparseable program
        alike, which the oracle alone would read as agreement."""
        try:
            compile_source(source)
        except JSSyntaxError as error:
            return [Mismatch("generator", "generator", "program does not parse: %s" % error)]
        return check_program(source, self.matrix)

    def _bank(self, source, iteration, mismatch):
        """Write ``source`` into the corpus directory; returns the path
        (or None when no corpus directory is configured)."""
        if self.corpus_dir is None:
            return None
        os.makedirs(self.corpus_dir, exist_ok=True)
        path = os.path.join(
            self.corpus_dir,
            "repro-seed%d-iter%d.js" % (self.seed, iteration),
        )
        header = (
            "// fuzz reproducer: seed=%d iteration=%d kind=%s variant=%s\n"
            "// %s\n"
        ) % (self.seed, iteration, mismatch.kind, mismatch.variant, mismatch.detail)
        with open(path, "w") as handle:
            handle.write(header + source)
        return path

    def run_iteration(self, iteration):
        """Run one iteration; returns the failure record or None."""
        source = generate_program(self.seed, iteration)
        line_count = source.count("\n")
        mismatches = self._check(source)
        if not mismatches:
            self._emit(
                "run",
                seed=self.seed,
                iteration=iteration,
                lines=line_count,
                variants=list(self.matrix),
            )
            return None

        first = mismatches[0]
        self._emit(
            "mismatch",
            seed=self.seed,
            iteration=iteration,
            kind=first.kind,
            variant=first.variant,
            detail=first.detail,
        )
        self.log(
            "iteration %d: %s mismatch in %s (%s)"
            % (iteration, first.kind, first.variant, first.detail)
        )
        reduced = source
        if self.shrink and first.kind != "generator":
            result = shrink_program(source, self._predicate_for(first.kind))
            reduced = result.source
            self._emit(
                "shrink",
                seed=self.seed,
                iteration=iteration,
                from_lines=result.from_lines,
                to_lines=result.to_lines,
                steps=result.steps,
            )
            self.log(
                "iteration %d: shrunk %d -> %d lines in %d oracle runs"
                % (iteration, result.from_lines, result.to_lines, result.steps)
            )
        path = self._bank(reduced, iteration, first)
        record = {
            "iteration": iteration,
            "kind": first.kind,
            "variant": first.variant,
            "detail": first.detail,
            "source": reduced,
            "path": path,
            "mismatches": mismatches,
        }
        self.failures.append(record)
        return record

    def run(self):
        """Run the whole campaign; returns the summary dict.

        Keys: ``seed``, ``iterations``, ``variants``, ``failures``
        (count) and ``reproducers`` (paths written, corpus configured
        and mismatches found permitting).
        """
        for iteration in range(self.iterations):
            self.run_iteration(iteration)
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "variants": list(self.matrix),
            "failures": len(self.failures),
            "reproducers": [
                record["path"] for record in self.failures if record["path"]
            ],
        }
