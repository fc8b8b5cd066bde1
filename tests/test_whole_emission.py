"""The whole backend's emitted text, pinned.

The 38 suite programs run under ``FULL_SPEC`` on ``whole``, each in a
fresh engine with no code cache, and every module the emitter writes is
captured (``compile_whole(..., capture=)``).  One sha256 over those
texts, in emission order, must equal :data:`EMITTED_SHA256`.  A refactor
of the emitter, or of anything it reads, leaves the digest alone; a
change meant to alter the emitted code updates it and says why in
CHANGES.md, as a change to a cycle count refreshes BENCH_cycles.json.
"""

import hashlib

from repro.engine.config import FULL_SPEC
from repro.engine.runtime_engine import Engine
from repro.lir import wholefn
from repro.workloads import ALL_SUITES

#: sha256 of every module text the suites emit (see the module docstring).
EMITTED_SHA256 = "6c9286942abc054b89fe45378ef9a2bfba03eb05a08bb3e1d541729cde1fd411"

#: How many modules that is.
EMITTED_MODULES = 245


def test_the_suites_emit_the_pinned_text(monkeypatch):
    sources = []
    real = wholefn.compile_whole

    def capturing(native, executor, profiled=False, capture=None, roots=None):
        capture = {} if capture is None else capture
        result = real(native, executor, profiled=profiled, capture=capture, roots=roots)
        sources.append(capture["source"])
        return result

    monkeypatch.setattr(wholefn, "compile_whole", capturing)
    for name in sorted(ALL_SUITES):
        for benchmark in ALL_SUITES[name]:
            Engine(config=FULL_SPEC, executor_backend="whole").run_source(benchmark.source)
    digest = hashlib.sha256()
    for source in sources:
        digest.update(source.encode("utf-8"))
        digest.update(b"\0")
    assert (len(sources), digest.hexdigest()) == (EMITTED_MODULES, EMITTED_SHA256)
