"""A second oracle: the printed lines of guest programs against ``node``.

Every other differential check compares the engine with this package's
own interpreter, so a bug in the interpreter's semantics repeats
faithfully on every backend and recovery path.  Here the same programs
run under ``node`` as well: the ``tests/corpus/`` files and a fixed fuzz
sample (``generate_program(0, i)``, i < 30), and in a second batch the
programs of every benchmark suite and of the serving catalog (``-m
nightly``).

One ``node`` process runs the whole batch, each program in a fresh
``vm`` context whose ``print`` is ``console.log`` of the ``String`` of
each argument, joined by spaces.  The printed lines are compared; when
a program throws on either side, only that both sides threw.  Skipped
when ``node`` is not on the PATH.
"""

import json
import os
import shutil
import subprocess

import pytest

from repro import FULL_SPEC, Engine
from repro.errors import ReproError
from repro.fuzz.corpus import corpus_files
from repro.fuzz.generator import generate_program
from repro.serving.fleet import FleetProfile, build_catalog
from repro.workloads import ALL_SUITES

NODE = shutil.which("node")

pytestmark = pytest.mark.skipif(NODE is None, reason="node is not on the PATH")

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")

#: Fuzz programs in the sample: ``generate_program(FUZZ_SEED, i)``, i < FUZZ_COUNT.
FUZZ_SEED = 0
FUZZ_COUNT = 30

#: Reads a JSON list of sources on stdin and writes one
#: ``{"lines": [...], "threw": bool}`` per source as a JSON list.
_RUNNER = r"""
const vm = require("vm");
let input = "";
process.stdin.on("data", (chunk) => { input += chunk; });
process.stdin.on("end", () => {
  const results = JSON.parse(input).map((source) => {
    const lines = [];
    const print = (...args) => lines.push(args.map(String).join(" "));
    try {
      vm.runInContext(source, vm.createContext({ print }), { timeout: 20000 });
      return { lines, threw: false };
    } catch (error) {
      return { lines, threw: true };
    }
  });
  process.stdout.write(JSON.stringify(results));
});
"""


def _programs():
    programs = []
    for path in corpus_files(CORPUS_DIR):
        with open(path) as handle:
            programs.append(("corpus/" + os.path.basename(path), handle.read()))
    for index in range(FUZZ_COUNT):
        programs.append(
            ("fuzz/%d-%d" % (FUZZ_SEED, index), generate_program(FUZZ_SEED, index))
        )
    return programs


PROGRAMS = _programs()

#: Every benchmark of every suite, and the serving catalog's programs.
WORKLOADS = [
    ("%s/%s" % (suite, benchmark.name), benchmark.source)
    for suite, benchmarks in ALL_SUITES.items()
    for benchmark in benchmarks
] + [("catalog/" + name, source) for name, source in sorted(build_catalog(FleetProfile()).items())]


def _node(programs):
    """``name -> {"lines", "threw"}`` for ``programs``, from one node process."""
    completed = subprocess.run(
        [NODE, "-e", _RUNNER],
        input=json.dumps([source for _, source in programs]),
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    results = json.loads(completed.stdout)
    assert len(results) == len(programs)
    return {name: result for (name, _), result in zip(programs, results)}


@pytest.fixture(scope="module")
def node_results():
    return _node(PROGRAMS)


@pytest.fixture(scope="module")
def node_workload_results():
    return _node(WORKLOADS)


def _ours(source):
    try:
        return {"lines": Engine(config=FULL_SPEC).run_source(source), "threw": False}
    except ReproError:
        return {"lines": None, "threw": True}


def test_the_batch_is_the_corpus_and_the_fuzz_sample():
    names = [name for name, _ in PROGRAMS]
    assert len(names) == len(set(names))
    assert sum(name.startswith("corpus/") for name in names) >= 22
    assert sum(name.startswith("corpus/number-string-") for name in names) == 8
    assert sum(name.startswith("fuzz/") for name in names) == FUZZ_COUNT


def _agree(name, source, theirs):
    ours = _ours(source)
    if ours["threw"] or theirs["threw"]:
        assert ours["threw"] == theirs["threw"], (name, ours, theirs)
    else:
        assert ours["lines"] == theirs["lines"]


@pytest.mark.parametrize("name, source", PROGRAMS, ids=[name for name, _ in PROGRAMS])
def test_printed_lines_agree_with_node(name, source, node_results):
    _agree(name, source, node_results[name])


def test_the_workload_batch_is_every_suite_and_the_catalog():
    assert len(WORKLOADS) == sum(len(suite) for suite in ALL_SUITES.values()) + 6 == 44


@pytest.mark.nightly  # about 4 s: over tier-1's 3 s allowance for this arm
@pytest.mark.parametrize("name, source", WORKLOADS, ids=[name for name, _ in WORKLOADS])
def test_workload_lines_agree_with_node(name, source, node_workload_results):
    _agree(name, source, node_workload_results[name])
