"""Global value numbering (baseline IonMonkey pass).

Dominator-tree-scoped hashing in the style of Alpern, Wegman and
Zadeck's congruence partitioning, which the paper cites as the
algorithm IonMonkey uses: walk the dominator tree, keep a scoped table
from congruence keys to definitions, and replace any pure instruction
congruent to a dominating one.

Instructions declare their own eligibility via ``congruence_key``:
effectful or non-movable instructions return None and are never
merged.  ``in`` comparisons read the heap and are excluded.
"""

from repro.jsvm.bytecode import Op
from repro.mir.instructions import MBinaryV
from repro.opts.dominators import DominatorTree


def _visit(block, scope, tree):
    """Number ``block`` under ``scope``, then its dominator-tree children.

    Module-level, not a closure inside :func:`run_gvn`: a nested
    function that calls itself is a reference cycle (function -> cell ->
    function) that would pin the dominator tree and the graph.
    """
    merged = 0
    local = dict(scope)
    for instruction in list(block.instructions):
        if isinstance(instruction, MBinaryV) and instruction.op == Op.IN:
            continue  # reads the heap; not congruent across stores
        key = instruction.congruence_key()
        if key is None:
            continue
        existing = local.get(key)
        if existing is not None:
            instruction.replace_all_uses_with(existing)
            block.remove_instruction(instruction)
            merged += 1
        else:
            local[key] = instruction
    for child in tree.dominator_tree_children(block):
        merged += _visit(child, local, tree)
    return merged


def run_gvn(graph, dominator_tree=None):
    """Run GVN over ``graph``; returns the number of merged values."""
    tree = dominator_tree if dominator_tree is not None else DominatorTree(graph)
    return sum(_visit(entry, {}, tree) for entry in graph.entries())
