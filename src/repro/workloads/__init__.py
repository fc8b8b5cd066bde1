"""Benchmark workloads: the evaluation substrate.

Three suites of guest programs stand in for SunSpider 1.0, V8 v6 and
Kraken 1.1 (see DESIGN.md's substitution ledger), plus the synthetic
web corpus that stands in for the Alexa top-100 study, an
object-heavy suite exercising the shape/IC machinery (docs/SHAPES.md)
and a precondition-churn suite exercising deoptless recovery
(docs/DEOPTLESS.md).
"""

from repro.workloads.benchmark import Benchmark
from repro.workloads.sunspider import SUNSPIDER
from repro.workloads.v8 import V8
from repro.workloads.kraken import KRAKEN
from repro.workloads.objects import OBJECTS
from repro.workloads.churn import CHURN
from repro.workloads.web import (
    WebCorpusConfig,
    generate_web_trace,
    generate_website_program,
    WEBSITES,
)

ALL_SUITES = {
    "sunspider": SUNSPIDER,
    "v8": V8,
    "kraken": KRAKEN,
    "objects": OBJECTS,
    "churn": CHURN,
}

#: The suites standing in for the paper's three, in its order: the only
#: ones its figures give numbers for (``objects`` and ``churn`` are this
#: repository's own).
PAPER_SUITES = ("sunspider", "v8", "kraken")


def suite(name):
    """Look up a suite by name: 'sunspider', 'v8', 'kraken', 'objects' or 'churn'."""
    return ALL_SUITES[name]


__all__ = [
    "Benchmark",
    "suite",
    "ALL_SUITES",
    "PAPER_SUITES",
    "SUNSPIDER",
    "V8",
    "KRAKEN",
    "OBJECTS",
    "CHURN",
    "WebCorpusConfig",
    "generate_web_trace",
    "generate_website_program",
    "WEBSITES",
]
