"""The JIT engine: compilation pipeline, policy, caching and stats.

:class:`~repro.engine.runtime_engine.Engine` is the orchestrator the
interpreter consults on calls and loop back edges — the analogue of the
SpiderMonkey/IonMonkey interplay in the paper's Figure 5.
"""

from repro.engine.config import (
    OptConfig,
    CostModel,
    BASELINE,
    FULL_SPEC,
    PAPER_CONFIGS,
)
from repro.engine.runtime_engine import Engine
from repro.engine.stats import EngineStats

__all__ = [
    "OptConfig",
    "CostModel",
    "BASELINE",
    "FULL_SPEC",
    "PAPER_CONFIGS",
    "Engine",
    "EngineStats",
]
