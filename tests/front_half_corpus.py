"""The programs the front-half identity tests compare old and new code on.

Everything a page crosses before its first guest instruction (lexer,
parser, constant interning, loop inversion) was rewritten for speed and
must produce what the slow version did.  The tests hold the two side by
side on this corpus: the suites, the serving catalog, page-load style
programs of three seeds, fuzz-generated programs, ``tests/corpus/`` and
hand-written shapes whose rotation verdict depends on processing order.
"""

import functools
import glob
import os
import random

from repro.fuzz.generator import generate_program
from repro.serving.fleet import FleetProfile, build_catalog
from repro.workloads import ALL_SUITES, generate_website_program

PAGE_SEEDS = (1, 2, 20130223)
PAGE_SIZES = tuple(range(30, 91, 4))  # hostbench's 16 pages
FUZZ_SEEDS = range(21)
FUZZ_ITERATIONS = 25

#: Loop shapes named in the one-pass planner's contract, with the number
#: of loops the rotate-last-latch-first fixpoint inverts in each.
NAMED_SHAPES = {
    "inner-first-statement": ("while (a) { while (b) { b--; } a--; }", 1),
    "inner-after-statement": ("while (a) { a--; while (b) { b--; } }", 2),
    "back-to-back": ("while (a) { a--; } while (b) { b--; }", 1),
    "separated": ("while (a) { a--; } c = 1; while (b) { b--; }", 2),
    "continue": ("while (a) { a--; if (a & 1) continue; b++; }", 1),
    "two-continues": (
        "while (a) { a--; if (a & 1) continue; if (a & 2) continue; b++; }",
        1,
    ),
    "and-test": ("while (a && b) { a--; }", 1),
    "or-test": ("while (a || b) { a--; b--; }", 1),
    "conditional-test": ("while (a ? b : c) { a--; }", 1),
    "for-continue": ("for (var i = 0; i < 9; i++) { if (i & 1) continue; b++; }", 1),
    "for-triple": (
        "for (var i = 0; i < 3; i++) { for (var j = 0; j < 3; j++) {"
        " for (var k = 0; k < 3; k++) { b++; } } }",
        3,
    ),
    "break-out": ("while (a) { a--; if (a == 3) break; }", 1),
    "testless": ("for (;;) { a--; while (b) { b--; } if (!a) break; }", 1),
    "do-while-holding-while": ("do { while (b) { b--; } a--; } while (a);", 0),
    "function-in-test": (
        "while ((function () { return a; })()) { a--; }",
        1,
    ),
    "return-in-body": (
        "function f(a) { while (a) { a--; if (a == 2) return a; } return 0; }",
        1,
    ),
    "if-else-loops": (
        "if (a) { while (b) { b--; } } else { while (c) { c--; } }",
        1,
    ),
}


def _page_sources(seed):
    rng = random.Random(seed)
    sizes = list(PAGE_SIZES)
    rng.shuffle(sizes)
    return [
        (
            "page/%d/%02d" % (seed, index),
            generate_website_program(
                "page_%02d" % index,
                num_functions=num_functions,
                polymorphic_fraction=0.3 if index % 3 == 2 else 0.1,
                seed=rng.randrange(1 << 30),
            ),
        )
        for index, num_functions in enumerate(sizes)
    ]


@functools.lru_cache(maxsize=None)
def programs():
    """``((name, source), ...)`` — the whole corpus, in a fixed order."""
    found = [
        ("%s/%s" % (suite, benchmark.name), benchmark.source)
        for suite, benchmarks in ALL_SUITES.items()
        for benchmark in benchmarks
    ]
    catalog = build_catalog(
        FleetProfile(tenants=8, programs=6, requests=1, seed=20130223, functions_per_program=10)
    )
    found.extend(("catalog/" + name, source) for name, source in sorted(catalog.items()))
    for seed in PAGE_SEEDS:
        found.extend(_page_sources(seed))
    found.extend(
        ("fuzz/%d/%d" % (seed, iteration), generate_program(seed, iteration))
        for seed in FUZZ_SEEDS
        for iteration in range(FUZZ_ITERATIONS)
    )
    corpus_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")
    for path in sorted(glob.glob(os.path.join(corpus_dir, "*.js"))):
        with open(path) as handle:
            found.append(("corpus/" + os.path.basename(path), handle.read()))
    found.extend(("shape/" + name, source) for name, (source, _count) in NAMED_SHAPES.items())
    return tuple(found)
