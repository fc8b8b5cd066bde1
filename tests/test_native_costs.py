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


def _dynamic_cost(instruction):
    """The retired per-step pricing, reimplemented as an oracle."""
    cost = CostModel.native_costs.get(instruction.op, CostModel.native_op)
    if instruction.snapshot is not None and instruction.op in CHECKED_ARITH:
        cost += 1
    if instruction.dest is not None and instruction.dest >= NUM_REGS:
        cost += CostModel.spill_access
    for loc in instruction.srcs:
        if loc >= NUM_REGS:
            cost += CostModel.spill_access
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

ALL_OPS = sorted(CostModel.native_costs) + ["some_unknown_op"]


@pytest.mark.parametrize("op", ALL_OPS)
def test_static_matches_dynamic_for_every_op(op):
    for variant in VARIANTS:
        instruction = LInstruction(op, **variant)
        assert static_instruction_cost(instruction) == _dynamic_cost(instruction), (
            op,
            variant,
        )


def test_checked_arith_surcharge_requires_guard():
    for op in sorted(CHECKED_ARITH):
        bare = LInstruction(op, dest=REG, srcs=[REG, REG])
        guarded = LInstruction(op, dest=REG, srcs=[REG, REG], snapshot=_snapshot())
        assert static_instruction_cost(guarded) == static_instruction_cost(bare) + 1
    # A guard on non-arithmetic carries no surcharge.
    bare = LInstruction("move", dest=REG, srcs=[REG])
    guarded = LInstruction("move", dest=REG, srcs=[REG], snapshot=_snapshot())
    assert static_instruction_cost(guarded) == static_instruction_cost(bare)


def test_spill_pricing_is_per_operand():
    base = static_instruction_cost(LInstruction("add_i", dest=REG, srcs=[REG, REG]))
    one = static_instruction_cost(LInstruction("add_i", dest=REG, srcs=[SPILL, REG]))
    three = static_instruction_cost(LInstruction("add_i", dest=SPILL, srcs=[SPILL, SPILL]))
    assert one == base + CostModel.spill_access
    assert three == base + 3 * CostModel.spill_access
    # Immediates are instruction-encoded constants: no spill traffic.
    imm = static_instruction_cost(LInstruction("add_i", dest=REG, srcs=[IMMEDIATE, REG]))
    assert imm == base


def test_cost_table_memoized_per_binary():
    _top, code = compile_and_profile("function f(a) { return a + 1; } f(1);")
    native = compile_function(code, BASELINE, feedback=code.feedback).native
    table = native.cost_table()
    assert native.instructions
    assert table == [static_instruction_cost(instruction) for instruction in native.instructions]
    assert native.cost_table() is table
