"""The four workloads' inputs, built from the seed, and their reference outputs.

Every seed yields different guest programs of the *same aggregate size*: the
host clock on this class of machine already moves by several percent between
runs, so input-induced spread has to stay well below that.  Page sizes are a
seed-shuffled permutation of a fixed multiset, and each page (and the serving
schedule) is the most typical of :data:`CANDIDATES` drawn from the seed —
typical in its count of hot call sites, counting loop-bearing and polymorphic
ones twice (they compile bigger, or twice).
"""

import hashlib
import random
import re
import statistics

WORKLOADS = ("suites-steady", "pageload-cold", "pageload-warm", "serve-mixed")
BATCH = WORKLOADS[:3]
DEFAULT_SEED = 20130223

#: Functions per page: 16 pages, 30..90, 960 functions on every seed.
PAGE_SIZES = tuple(range(30, 91, 4))
CANDIDATES = 33

#: Serving fleet shape (see README: closed loop, 2 connections, 1 worker).
TENANTS = 8
PROGRAMS = 6
FUNCTIONS_PER_PROGRAM = 10
REQUESTS = 600
CONNECTIONS = 2

#: What one operation is observed to do, besides its seconds.  Every field
#: must repeat exactly between passes, lifetimes and traced/untraced runs.
OBSERVED = (
    "digest",
    "model_cycles",
    "interp_ops",
    "sim_instructions",
    "compiles",
    "bailouts",
    "invalidations",
    "cache_hits",
    "cache_misses",
    "cache_stores",
    "cache_uncacheable",
)



def engine_counts(stats, cache):
    """The :data:`OBSERVED` fields after ``model_cycles``, from an engine's ledgers."""
    return [
        stats.interp_ops,
        stats.native_instructions,
        stats.compiles,
        stats.bailouts,
        stats.invalidations,
    ] + [
        getattr(cache, counter, 0) for counter in ("hits", "misses", "stores", "uncacheable")
    ]


_HOT_CALL = re.compile(r"^for \(var i = 0; i < 60; i\+\+\) total \+= (\w+)(\(.*\)) \| 0;$")


def hot_weight(source):
    """Hot call sites of a generated page; loopy or varying ones count twice."""
    loopy = set()
    weight = 0
    for line in source.split("\n"):
        if line.startswith("function ") and "for (" in line:
            loopy.add(line.split()[1].split("(")[0])
        match = _HOT_CALL.match(line)
        if match:
            name, arguments = match.groups()
            weight += 1 + (name in loopy) + bool(re.search(r"\bi\b", arguments))
    return weight


def _most_typical(candidates, features):
    """The candidate nearest the per-feature medians (first on ties).

    ``features`` holds one tuple of positive numbers per candidate; distance
    is the sum of the relative deviations from each feature's median.
    """
    middles = [statistics.median(column) for column in zip(*features)]
    best = min(
        range(len(candidates)),
        key=lambda index: sum(
            abs(value - middle) / middle for value, middle in zip(features[index], middles)
        ),
    )
    return candidates[best]


def suite_operations(limit=None):
    """``[(name, source)]`` for every program of ``ALL_SUITES``, fixed order.

    The suites are a fixed corpus: the seed draws nothing here.
    """
    from repro.workloads import ALL_SUITES

    operations = [
        ("%s/%s" % (suite, benchmark.name), benchmark.source)
        for suite, benchmarks in ALL_SUITES.items()
        for benchmark in benchmarks
    ]
    return operations[:limit]


def page_operations(seed, limit=None):
    """``[(name, source)]`` for the 16 synthetic pages of ``seed``."""
    from repro.workloads import generate_website_program

    rng = random.Random(seed)
    sizes = list(PAGE_SIZES)
    rng.shuffle(sizes)
    operations = []
    for index, num_functions in enumerate(sizes[:limit]):
        name = "page_%02d" % index
        candidates = [
            generate_website_program(
                name,
                num_functions=num_functions,
                polymorphic_fraction=0.3 if index % 3 == 2 else 0.1,
                seed=rng.randrange(1 << 30),
            )
            for _ in range(CANDIDATES)
        ]
        features = [(hot_weight(source),) for source in candidates]
        operations.append((name, _most_typical(candidates, features)))
    return operations


def fleet(seed):
    """``(profile, catalog, schedule)`` of the serving workload for ``seed``.

    The catalog is the deployed corpus and does not change with the seed (it
    is what the server builds from ``--catalog-seed``); the seed draws the
    traffic.  Of :data:`CANDIDATES` schedules, the one most typical in its
    number of first-touch (tenant, program) pairs and in its hot-call weight.
    """
    from repro.serving.fleet import FleetProfile, build_catalog, generate_schedule

    def profile_for(profile_seed):
        return FleetProfile(
            tenants=TENANTS,
            programs=PROGRAMS,
            requests=REQUESTS,
            seed=profile_seed,
            functions_per_program=FUNCTIONS_PER_PROGRAM,
        )

    profile = profile_for(DEFAULT_SEED)
    catalog = build_catalog(profile)
    weight = {name: hot_weight(source) for name, source in catalog.items()}
    rng = random.Random(seed)
    schedules = [generate_schedule(profile_for(rng.randrange(1 << 30))) for _ in range(CANDIDATES)]
    features = [
        (
            len({(record["tenant"], record["program"]) for record in schedule}),
            sum(weight[record["program"]] for record in schedule),
        )
        for schedule in schedules
    ]
    return profile, catalog, _most_typical(schedules, features)


def operations_for(workload, seed, limit=None):
    """The distinct guest programs of a workload as ``[(name, source)]``."""
    if workload == "suites-steady":
        return suite_operations(limit)
    if workload in ("pageload-cold", "pageload-warm"):
        return page_operations(seed, limit)
    if workload == "serve-mixed":
        _profile, catalog, _schedule = fleet(seed)
        return sorted(catalog.items())
    raise ValueError("unknown workload %r" % (workload,))


def expected_key(workload, seed):
    """Where a workload's digests live in ``expected.json``."""
    if workload == "suites-steady":
        return "suites"
    if workload == "serve-mixed":
        return "catalog"
    return "pages/%d" % seed


def digest(lines):
    """sha256 over the printed lines of one guest program run."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def reference_digests(operations):
    """Digests from the engine-less interpreter — never from the JIT under test."""
    from repro.jsvm.interpreter import Interpreter

    return {name: digest(Interpreter().run_source(source)) for name, source in operations}
