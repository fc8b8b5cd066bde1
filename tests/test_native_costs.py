"""Static cycle pricing: assembly-time costs equal the dynamic formula.

The executor used to price every instruction inside its dispatch loop
(dict lookup + overflow surcharge + spill scan).  A binary is now priced
once, by ``NativeCode.cost_table``; these tests pin the static
price to an independent reimplementation of the old dynamic formula,
for every opcode in the cost model and across every operand-placement
variant that contributes to the price.
"""

import pytest

from repro.engine.config import CostModel
from repro.engine.jit import compile_function
from repro.engine.config import BASELINE
from repro.lir.lir_nodes import LInstruction, Snapshot
from repro.lir.native import (
    CHECKED_ARITH,
    static_instruction_cost,
)
from repro.lir.regalloc import NUM_REGS

from tests.helpers import compile_and_profile


def _dynamic_cost(instruction, cost_model):
    """The retired per-step pricing, reimplemented as an oracle."""
    cost = cost_model.native_costs.get(instruction.op, cost_model.native_op)
    if instruction.snapshot is not None and instruction.op in CHECKED_ARITH:
        cost += 1
    if instruction.dest is not None and instruction.dest >= NUM_REGS:
        cost += cost_model.spill_access
    for loc in instruction.srcs:
        if loc >= NUM_REGS:
            cost += cost_model.spill_access
    return cost


def _snapshot():
    return Snapshot(pc=0, mode="at", num_args=0, num_locals=0, vregs=[])


REG = 0
SPILL = NUM_REGS + 3
IMMEDIATE = -1  # negative: immediate pool, free of memory traffic

#: Every placement combination whose components the formula prices.
VARIANTS = [
    dict(dest=None, srcs=[], snapshot=None),
    dict(dest=REG, srcs=[REG, REG], snapshot=None),
    dict(dest=SPILL, srcs=[REG], snapshot=None),
    dict(dest=REG, srcs=[SPILL, SPILL], snapshot=None),
    dict(dest=SPILL, srcs=[SPILL, IMMEDIATE], snapshot=None),
    dict(dest=REG, srcs=[IMMEDIATE, IMMEDIATE], snapshot=None),
    dict(dest=REG, srcs=[REG, REG], snapshot=_snapshot()),
    dict(dest=SPILL, srcs=[SPILL, REG], snapshot=_snapshot()),
]

_MODEL = CostModel()
ALL_OPS = sorted(_MODEL.native_costs) + ["some_unknown_op"]


@pytest.mark.parametrize("op", ALL_OPS)
def test_static_matches_dynamic_for_every_op(op):
    model = CostModel()
    for variant in VARIANTS:
        instruction = LInstruction(op, **variant)
        assert static_instruction_cost(instruction, model) == _dynamic_cost(
            instruction, model
        ), (op, variant)


def test_checked_arith_surcharge_requires_guard():
    model = CostModel()
    for op in sorted(CHECKED_ARITH):
        bare = LInstruction(op, dest=REG, srcs=[REG, REG])
        guarded = LInstruction(op, dest=REG, srcs=[REG, REG], snapshot=_snapshot())
        assert (
            static_instruction_cost(guarded, model)
            == static_instruction_cost(bare, model) + 1
        )
    # A guard on non-arithmetic carries no surcharge.
    bare = LInstruction("move", dest=REG, srcs=[REG])
    guarded = LInstruction("move", dest=REG, srcs=[REG], snapshot=_snapshot())
    assert static_instruction_cost(guarded, model) == static_instruction_cost(
        bare, model
    )


def test_spill_pricing_is_per_operand():
    model = CostModel()
    base = static_instruction_cost(LInstruction("add_i", dest=REG, srcs=[REG, REG]), model)
    one = static_instruction_cost(LInstruction("add_i", dest=REG, srcs=[SPILL, REG]), model)
    three = static_instruction_cost(
        LInstruction("add_i", dest=SPILL, srcs=[SPILL, SPILL]), model
    )
    assert one == base + model.spill_access
    assert three == base + 3 * model.spill_access
    # Immediates are instruction-encoded constants: no spill traffic.
    imm = static_instruction_cost(
        LInstruction("add_i", dest=REG, srcs=[IMMEDIATE, REG]), model
    )
    assert imm == base


def test_cost_table_cached_per_model():
    _top, code = compile_and_profile("function f(a) { return a + 1; } f(1);")
    native = compile_function(code, BASELINE, feedback=code.feedback).native
    model = CostModel()
    table = native.cost_table(model)
    assert native.instructions
    assert table == [
        static_instruction_cost(instruction, model) for instruction in native.instructions
    ]
    assert native.cost_table(model) is table  # memoized per binary
    other = CostModel()
    assert native.cost_table(other) is not table  # keyed by model identity
    assert native.cost_table(other) == table
