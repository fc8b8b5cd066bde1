"""Engine configuration: optimization selection and the cycle model.

The eleven optimization configurations of the paper's Figure 9 are
combinations of five switches; :data:`PAPER_CONFIGS` lists them in the
figure's column order.  GVN and LICM are IonMonkey baseline passes and
are always on, as in the paper.

The :class:`CostModel` makes "runtime" a deterministic quantity:
every interpreter dispatch, simulated native instruction, unit of
compilation work and bailout has a fixed cycle price.  The constants
encode the *ratios* that drive the paper's results — interpretation is
roughly an order of magnitude slower than native execution, generic
(boxed) operations several times slower than type-specialized ones,
and compilation is a per-instruction-per-pass cost so smaller graphs
compile faster (which is why the paper observes specialization often
*reducing* compile time).
"""


class OptConfig(object):
    """Which of the paper's §3 optimizations the JIT runs.

    ``overflow_elim`` and ``unroll`` are the extensions the paper's §6
    names as future work (overflow-check elimination after Sol et al.,
    and loop unrolling under value specialization); they are off in
    every configuration the paper measures.
    """

    __slots__ = (
        "name",
        "param_spec",
        "constprop",
        "loop_inversion",
        "dce",
        "bounds_check",
        "overflow_elim",
        "unroll",
    )

    def __init__(
        self,
        name,
        param_spec=False,
        constprop=False,
        loop_inversion=False,
        dce=False,
        bounds_check=False,
        overflow_elim=False,
        unroll=False,
    ):
        self.name = name
        self.param_spec = param_spec
        self.constprop = constprop
        self.loop_inversion = loop_inversion
        self.dce = dce
        self.bounds_check = bounds_check
        self.overflow_elim = overflow_elim
        self.unroll = unroll

    def describe(self):
        parts = []
        if self.param_spec:
            parts.append("ParameterSpec")
        if self.constprop:
            parts.append("ConstantPropg")
        if self.loop_inversion:
            parts.append("LoopInversion")
        if self.dce:
            parts.append("DeadCodeElim")
        if self.bounds_check:
            parts.append("BoundCheckElim")
        if self.overflow_elim:
            parts.append("OverflowElim")
        if self.unroll:
            parts.append("LoopUnroll")
        return "+".join(parts) if parts else "baseline"

    def __repr__(self):
        return "<OptConfig %s: %s>" % (self.name, self.describe())


#: IonMonkey as-is: type specialization, GVN, LICM — none of §3.
BASELINE = OptConfig("baseline")

#: Everything from §3 switched on (the last column of Figure 9).
FULL_SPEC = OptConfig(
    "all",
    param_spec=True,
    constprop=True,
    loop_inversion=True,
    dce=True,
    bounds_check=True,
)

#: FULL_SPEC plus the paper's §6 future-work extensions.
EXTENDED = OptConfig(
    "extended",
    param_spec=True,
    constprop=True,
    loop_inversion=True,
    dce=True,
    bounds_check=True,
    overflow_elim=True,
    unroll=True,
)

#: The Figure 9 columns, in order.  Markers (•) from the figure:
#:   1: PS            2: CP            3: PS+CP        4: PS+LI
#:   5: PS+CP+LI      6: PS+CP+DCE     7: PS+LI+DCE    8: PS+CP+BCE
#:   9: PS+LI+BCE    10: PS+CP+LI+DCE 11: all five
PAPER_CONFIGS = [
    OptConfig("PS", param_spec=True),
    OptConfig("CP", constprop=True),
    OptConfig("PS+CP", param_spec=True, constprop=True),
    OptConfig("PS+LI", param_spec=True, loop_inversion=True),
    OptConfig("PS+CP+LI", param_spec=True, constprop=True, loop_inversion=True),
    OptConfig("PS+CP+DCE", param_spec=True, constprop=True, dce=True),
    OptConfig("PS+LI+DCE", param_spec=True, loop_inversion=True, dce=True),
    OptConfig("PS+CP+BCE", param_spec=True, constprop=True, bounds_check=True),
    OptConfig("PS+LI+BCE", param_spec=True, loop_inversion=True, bounds_check=True),
    OptConfig(
        "PS+CP+LI+DCE", param_spec=True, constprop=True, loop_inversion=True, dce=True
    ),
    FULL_SPEC,
]


class CostModel(object):
    """Cycle prices for the deterministic performance model."""

    # -- interpretation ---------------------------------------------------
    #: One bytecode dispatch in the interpreter.
    interp_op = 20
    #: Extra cost of setting up an interpreted call frame.
    interp_call = 60

    # -- native execution ---------------------------------------------------
    #: Default price of one simulated native instruction.
    native_op = 1
    #: Per-opcode overrides; generic (boxed) operations pay the price
    #: of dynamic dispatch, calls pay frame setup, guards pay a
    #: compare-and-branch.
    native_costs = {
        "const": 1,
        "move": 1,
        "getarg": 1,
        "osrvalue": 1,
        "self": 1,
        "add_i": 1,
        "sub_i": 1,
        "mul_i": 2,
        "neg_i": 1,
        "add_d": 2,
        "sub_d": 2,
        "mul_d": 2,
        "div_d": 8,
        "mod_d": 10,
        "neg_d": 1,
        "concat": 12,
        "bitop_i": 1,
        "toint32": 1,
        "todouble": 1,
        "compare": 1,
        "binary_v": 14,
        "unary_v": 10,
        "not": 1,
        "typeof": 8,
        "unbox": 2,
        "typebarrier": 2,
        "checkoverrecursed": 2,
        "guardshape": 2,
        "arraylength": 2,
        "stringlength": 2,
        "boundscheck": 3,
        "loadelement": 2,
        "storeelement": 2,
        "getelem_v": 16,
        "setelem_v": 16,
        "loadprop": 4,
        "storeprop": 4,
        "getprop_v": 14,
        "setprop_v": 14,
        "loadglobal": 3,
        "storeglobal": 3,
        "newarray": 10,
        "newobject": 12,
        "lambda": 8,
        "call": 30,
        "new": 40,
        "goto": 1,
        "test": 2,
        "return": 1,
    }
    #: Extra price when an operand or result lives in a stack slot.
    spill_access = 1

    # -- compilation ------------------------------------------------------------
    #: Fixed price of entering the compiler at all.  Kept small: in a
    #: real compiler per-unit work dominates, which is what lets the
    #: paper observe compile-time *improvements* from specialization
    #: (smaller graphs flow through the expensive back end).
    compile_base = 120
    #: Price per MIR instruction visited by one pass.
    compile_per_instruction_pass = 1
    #: Price per LIR instruction for lowering + code generation.
    compile_per_lir = 5
    #: Price per live interval during register allocation (parameter
    #: specialization reduces register pressure, and with it this term
    #: — the effect the paper credits for improved compile times).
    compile_per_interval = 14

    # -- transitions -----------------------------------------------------------------
    #: Price of one bailout (state reconstruction + interpreter re-entry).
    bailout = 200
    #: Price of discarding a specialized binary (invalidation bookkeeping).
    invalidation = 120
    #: Price of entering/leaving native code per call.
    native_call_entry = 4
    #: Price of a deoptless dispatch: consulting the specialization
    #: dispatch table and side-entering a sibling binary at an OSR
    #: point instead of falling back to the interpreter
    #: (docs/DEOPTLESS.md).  Charged on top of ``native_call_entry``.
    deoptless_dispatch = 30

    def native_cost(self, op):
        return self.native_costs.get(op, self.native_op)
