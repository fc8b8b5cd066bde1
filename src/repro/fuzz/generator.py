"""Seeded grammar-based generation of specialization-hostile programs.

Every program is a deterministic function of ``(seed, iteration)``:
the only randomness source is one :class:`random.Random` seeded with
an integer derived from both, and every choice point draws through
integer-weighted tables (never ``random.choices`` or anything
float- or hash-order-dependent), so the same pair names the same
program on every Python version the CI matrix runs.

The grammar is a small statement/expression language inside a fixed
skeleton — function declarations followed by call-site lines — and
the weights are deliberately skewed toward the shapes that historically
break value-specializing JITs:

* **reassigned parameters** — the baked-in argument constant must not
  survive a ``a = a + 1`` in the body;
* **polymorphic call sites** — the same function called with ints,
  then doubles, then strings, exercising the spec cache's key/discard
  policy and type-guard bailouts;
* **OSR-triggering loops** — trip counts straddling the back-edge
  threshold, so some loops tier up mid-execution and some don't;
* **guard-boundary values** — INT32_MAX/MIN and friends as literals
  and arguments, so overflow and negative-zero guards actually fire;
* **polymorphic receiver shapes** — object literals with the same
  properties in different insertion orders (distinct hidden classes)
  fed to the same property-accessing function, plus property adds and
  deletes mid-run, so shape inline caches transition mono → poly →
  megamorphic and compiled ``guardshape`` guards genuinely fail;
* **precondition churn** — functions whose small-integer regime
  argument rotates through phases and *returns* to earlier values, so
  the spec-cache key space is churned rather than warmed once: under
  the §4 policy every phase flip is a discard, while the deoptless
  dispatch table (docs/DEOPTLESS.md) must re-enter the matching
  retained sibling — and the oracle's deoptless on/off variants must
  still print identical output;
* **spec-cache key-space churn** — two-parameter functions driven with
  more distinct literal argument pairs than any configured spec-cache
  capacity, in repeated rounds, so collision-eviction and interleaved
  re-hits of previously evicted keys are exercised directly;
* **array element traffic** — hot ``a[i % a.length]`` reads, in-bounds
  stores, mixed-type array literals and mid-run appends through
  ``arr[arr.length] = v``, staling any cached length/bounds guards;
* **closure cells** — makers returning function expressions that
  mutate a captured local, with two instances of the same code driven
  interleaved, so specialized binaries must read cells rather than
  baked constants and must not leak state across instances.

Each top-level construct is emitted on a *single line*: the shrinker
(:mod:`repro.fuzz.shrink`) reduces line sets, and one-construct-per-
line makes every subset syntactically plausible.
"""

import random

#: The multiplier folding ``seed`` and ``iteration`` into one integer
#: seed (a large prime, so adjacent seeds don't collide across
#: adjacent iterations).
SEED_STRIDE = 1000003

#: Int literals sitting on guard boundaries: int32 overflow edges,
#: negative-zero feeders, bit-op widths.
BOUNDARY_INTS = (
    0,
    1,
    -1,
    2,
    3,
    7,
    16,
    255,
    256,
    1023,
    65535,
    46340,  # isqrt(INT32_MAX): mul_i overflow pivot
    2147483646,
    2147483647,
    -2147483647,
    -2147483648,
)

#: Double and string literals for the polymorphic arms.
OTHER_LITERALS = ('0.5', '(-0.25)', '2.5', '1e9', '"s"', '"x7"', '""')

#: Loop trip counts straddling the FAST OSR back-edge threshold (10)
#: and the default one (100).
TRIP_COUNTS = (2, 5, 9, 11, 13, 40, 75, 120)

#: Object-literal templates for the shape-IC arms.  Every template
#: defines ``x`` and ``y`` (so the generated accessors never touch a
#: missing property) but in different insertion orders and with
#: different extras — each template is a distinct hidden class, so a
#: call site cycling through them drives the callee's property ICs
#: from monomorphic through polymorphic to megamorphic (five templates
#: > the four-entry IC capacity).
OBJECT_TEMPLATES = (
    ("x", "y"),
    ("y", "x"),
    ("x", "y", "z"),
    ("z", "x", "y"),
    ("y", "z", "x"),
)


def _weighted(rng, table):
    """Draw from ``table`` — ``(integer_weight, item)`` pairs.

    Integer arithmetic end to end: ``randrange`` over the weight sum,
    so the draw sequence is identical on every platform and Python
    version for a given ``rng`` state.
    """
    total = 0
    for weight, _item in table:
        total += weight
    roll = rng.randrange(total)
    for weight, item in table:
        roll -= weight
        if roll < 0:
            return item
    raise AssertionError("unreachable: weights exhausted")


def _int_literal(rng):
    """A boundary-biased integer literal as source text."""
    value = BOUNDARY_INTS[rng.randrange(len(BOUNDARY_INTS))]
    if value < 0:
        return "(%d)" % value
    return "%d" % value


def _leaf(rng, names):
    """An expression leaf: a live variable or a boundary literal."""
    kind = _weighted(rng, [(5, "var"), (3, "int"), (1, "other")])
    if kind == "var":
        return names[rng.randrange(len(names))]
    if kind == "int":
        return _int_literal(rng)
    return OTHER_LITERALS[rng.randrange(len(OTHER_LITERALS))]


#: Binary operators, weighted.  Heavy on the int-speculated group
#: (arithmetic and bitops compile to guarded ``*_i`` forms); division
#: and modulo produce doubles/NaN, poisoning int chains mid-loop.
_BINOPS = [
    (6, "+"),
    (5, "-"),
    (5, "*"),
    (4, "&"),
    (4, "|"),
    (3, "^"),
    (2, "<<"),
    (2, ">>"),
    (2, ">>>"),
    (2, "%"),
    (1, "/"),
]


def _expression(rng, names, depth):
    """A parenthesized expression over ``names``, recursion-bounded."""
    if depth <= 0:
        return _leaf(rng, names)
    kind = _weighted(
        rng, [(6, "binary"), (2, "leaf"), (1, "unary"), (1, "ternary")]
    )
    if kind == "leaf":
        return _leaf(rng, names)
    if kind == "unary":
        op = _weighted(rng, [(3, "-"), (2, "~"), (1, "!")])
        return "(%s%s)" % (op, _expression(rng, names, depth - 1))
    if kind == "ternary":
        comparison = _weighted(rng, [(2, "<"), (2, ">"), (1, "=="), (1, "<=")])
        return "(%s %s %s ? %s : %s)" % (
            _leaf(rng, names),
            comparison,
            _leaf(rng, names),
            _expression(rng, names, depth - 1),
            _expression(rng, names, depth - 1),
        )
    return "(%s %s %s)" % (
        _expression(rng, names, depth - 1),
        _weighted(rng, _BINOPS),
        _expression(rng, names, depth - 1),
    )


def _loop_body(rng, names, accumulator):
    """Statements for one loop body, as a list of source fragments."""
    statements = ["%s = %s;" % (accumulator, _expression(rng, names, 2))]
    # Reassigned parameter: the canonical specialization-hostile shape.
    if rng.randrange(3) == 0:
        param = names[rng.randrange(2)]
        statements.append("%s = %s;" % (param, _expression(rng, names, 1)))
    if rng.randrange(3) == 0:
        statements.append(
            "if (%s %s %s) { %s = %s; }"
            % (
                accumulator,
                _weighted(rng, [(2, "<"), (2, ">"), (1, "==")]),
                _int_literal(rng),
                accumulator,
                _expression(rng, names, 1),
            )
        )
    return statements


def _function_line(rng, index):
    """One guest function declaration, emitted on a single line."""
    name = "f%d" % index
    names = ("a", "b", "s", "i")
    trips = TRIP_COUNTS[rng.randrange(len(TRIP_COUNTS))]
    pieces = ["function %s(a, b) {" % name, "var s = %s;" % _int_literal(rng)]
    if rng.randrange(4) == 0:
        # Pre-loop parameter clobber: defeats the baked-in constant
        # before the loop even starts.
        pieces.append("a = %s;" % _expression(rng, ("a", "b"), 1))
    pieces.append("for (var i = 0; i < %d; i = i + 1) {" % trips)
    pieces.extend(_loop_body(rng, names, "s"))
    pieces.append("}")
    if rng.randrange(4) == 0:
        pieces.append('return "" + s;')
    else:
        pieces.append("return s;")
    pieces.append("}")
    return name, " ".join(pieces)


def _argument(rng, polymorphic):
    """One call-site argument literal."""
    if polymorphic and rng.randrange(2) == 0:
        return OTHER_LITERALS[rng.randrange(len(OTHER_LITERALS))]
    return _int_literal(rng)


def _call_lines(rng, name, index):
    """Call-site lines for one function: a monomorphic warm-up wave,
    then optionally polymorphic follow-ups (type-change deopts), then
    a hot driver loop (call-threshold and OSR pressure)."""
    lines = []
    first_args = (_argument(rng, False), _argument(rng, False))
    lines.append("print(%s(%s, %s));" % (name, first_args[0], first_args[1]))
    polymorphic = rng.randrange(2) == 0
    for _ in range(rng.randrange(1, 3)):
        lines.append(
            "print(%s(%s, %s));"
            % (name, _argument(rng, polymorphic), _argument(rng, polymorphic))
        )
    driver_trips = TRIP_COUNTS[rng.randrange(len(TRIP_COUNTS))]
    lines.append(
        "var t%d = 0; for (var r%d = 0; r%d < %d; r%d = r%d + 1) "
        "{ t%d = %s(%s, r%d); } print(t%d);"
        % (
            index,
            index,
            index,
            driver_trips,
            index,
            index,
            index,
            name,
            _argument(rng, polymorphic),
            index,
            index,
        )
    )
    return lines


def _object_literal(rng, template):
    """Source text of one object literal following ``template``."""
    return "{%s}" % ", ".join(
        "%s: %s" % (prop, _int_literal(rng)) for prop in template
    )


def _object_function_line(rng, index):
    """One property-accessing guest function, on a single line.

    The body reads ``o.x``/``o.y`` in a hot loop (GETPROP shape ICs)
    and sometimes writes a property back — either an existing one (a
    SETPROP IC hit on a stable shape) or a brand-new one (the store
    itself transitions the receiver's shape, so the next iteration's
    reads see a shape the compile-time IC may not know).
    """
    name = "g%d" % index
    trips = TRIP_COUNTS[rng.randrange(len(TRIP_COUNTS))]
    pieces = ["function %s(o) {" % name, "var s = 0;"]
    pieces.append("for (var i = 0; i < %d; i = i + 1) {" % trips)
    pieces.append("s = (s + o.x + o.y) & 65535;")
    write = rng.randrange(3)
    if write == 1:
        pieces.append("o.x = s;")
    elif write == 2:
        pieces.append("o.w = s;")
    pieces.append("}")
    pieces.append("return s;")
    pieces.append("}")
    return name, " ".join(pieces)


def _object_call_lines(rng, name, index):
    """Receivers and call sites for one property-accessing function.

    One to three receiver variables with distinct literal shapes (the
    callee's ICs go mono → poly as they cycle through), an optional
    mid-run ``delete`` (a deletion transition the next call observes
    as yet another shape), then a hot driver loop over one receiver.
    """
    lines = []
    count = rng.randrange(1, 4)
    start = rng.randrange(len(OBJECT_TEMPLATES))
    receivers = []
    for offset in range(count):
        template = OBJECT_TEMPLATES[(start + offset) % len(OBJECT_TEMPLATES)]
        receiver = "o%d_%d" % (index, offset)
        receivers.append(receiver)
        lines.append("var %s = %s;" % (receiver, _object_literal(rng, template)))
        lines.append("print(%s(%s));" % (name, receiver))
    if rng.randrange(2) == 0:
        victim = receivers[rng.randrange(len(receivers))]
        lines.append("delete %s.z;" % victim)
        lines.append("print(%s(%s));" % (name, victim))
    driver = receivers[rng.randrange(len(receivers))]
    trips = TRIP_COUNTS[rng.randrange(len(TRIP_COUNTS))]
    lines.append(
        "var u%d = 0; for (var q%d = 0; q%d < %d; q%d = q%d + 1) "
        "{ u%d = %s(%s); } print(u%d);"
        % (index, index, index, trips, index, index, index, name, driver, index)
    )
    return lines


def _churn_function_line(rng, index):
    """One phase-churning guest function, on a single line.

    The body branches on a small integer regime parameter: under value
    specialization each regime value bakes to a different binary, so
    the rotating call pattern (:func:`_churn_call_lines`) churns the
    spec-cache key space instead of warming it once — the workload the
    deoptless dispatch table (docs/DEOPTLESS.md) converges on.
    """
    name = "h%d" % index
    names = ("s", "i", "k")
    trips = TRIP_COUNTS[rng.randrange(len(TRIP_COUNTS))]
    arms = rng.randrange(2, 4)
    pieces = ["function %s(k) {" % name, "var s = %s;" % _int_literal(rng)]
    pieces.append("for (var i = 0; i < %d; i = i + 1) {" % trips)
    for arm in range(arms):
        if arm == 0:
            head = "if (k == 0)"
        elif arm < arms - 1:
            head = "else if (k == %d)" % arm
        else:
            head = "else"
        pieces.append(
            "%s s = (%s) & 65535;" % (head, _expression(rng, names, 1))
        )
    pieces.append("}")
    pieces.append("return s;")
    pieces.append("}")
    return name, " ".join(pieces)


def _churn_call_lines(rng, name, index):
    """Phase-rotating call sites: the spec-cache key churner.

    An outer phase loop rotates the regime argument modulo a small
    base (so regimes *recur* — the property that distinguishes a
    dispatch-table re-entry from a plain recompile), and an inner wave
    re-calls the function enough times per phase to clear the hot-call
    threshold within each regime.
    """
    phases = rng.randrange(4, 9)
    wave = rng.randrange(3, 7)
    base = rng.randrange(2, 4)
    lines = [
        "var c%d = 0; for (var p%d = 0; p%d < %d; p%d = p%d + 1) "
        "{ for (var w%d = 0; w%d < %d; w%d = w%d + 1) "
        "{ c%d = (c%d + %s(p%d %% %d)) & 65535; } } print(c%d);"
        % (
            index,
            index,
            index,
            phases,
            index,
            index,
            index,
            index,
            wave,
            index,
            index,
            index,
            index,
            name,
            index,
            base,
            index,
        )
    ]
    return lines


def _speckey_function_line(rng, index):
    """One two-parameter function for the spec-cache key-space arm.

    Both parameters feed the loop body, so under value specialization
    every distinct literal argument pair is a distinct spec-cache key
    — the raw material :func:`_speckey_call_lines` uses to overflow
    the per-function cache capacity.
    """
    name = "k%d" % index
    names = ("v", "w", "s", "i")
    trips = TRIP_COUNTS[rng.randrange(len(TRIP_COUNTS))]
    pieces = ["function %s(v, w) {" % name, "var s = %s;" % _int_literal(rng)]
    pieces.append("for (var i = 0; i < %d; i = i + 1) {" % trips)
    pieces.append("s = (%s) & 65535;" % _expression(rng, names, 2))
    pieces.append("}")
    pieces.append("return s;")
    pieces.append("}")
    return name, " ".join(pieces)


def _speckey_call_lines(rng, name, index):
    """Collision/eviction call sequences over the spec-cache key space.

    More distinct literal argument pairs than any configured spec-cache
    capacity (3–7 keys vs the paper's capacity of 1 and the deoptless
    table's 4), each hammered past the hot-call threshold, and the
    whole key set revisited for 2–3 rounds — so previously-evicted keys
    *re-hit* the cache interleaved with fresh insertions.  Exercises
    insert, collision-evict and re-specialize paths; every variant
    must still print identical output.
    """
    distinct = rng.randrange(3, 8)
    rounds = rng.randrange(2, 4)
    wave = rng.randrange(3, 7)
    start = rng.randrange(len(BOUNDARY_INTS))
    keys = []
    for offset in range(distinct):
        first = BOUNDARY_INTS[(start + offset) % len(BOUNDARY_INTS)]
        first_text = "(%d)" % first if first < 0 else "%d" % first
        # The second component enumerates offsets, guaranteeing the
        # pairs are pairwise distinct whatever the boundary draw did.
        keys.append((first_text, "%d" % offset))
    lines = []
    for round_index in range(rounds):
        for key_index, (first, second) in enumerate(keys):
            label = "z%d_%d_%d" % (index, round_index, key_index)
            loop = "e%d_%d_%d" % (index, round_index, key_index)
            lines.append(
                "var %s = 0; for (var %s = 0; %s < %d; %s = %s + 1) "
                "{ %s = (%s + %s(%s, %s)) & 65535; } print(%s);"
                % (
                    label,
                    loop,
                    loop,
                    wave,
                    loop,
                    loop,
                    label,
                    label,
                    name,
                    first,
                    second,
                    label,
                )
            )
    return lines


def _array_function_line(rng, index):
    """One array-walking guest function, on a single line.

    Reads ``a[i % a.length]`` in a hot loop (guarded element loads plus
    ``.length``), optionally storing back in-bounds (SETELEM on a live
    array the loop immediately re-reads).
    """
    name = "b%d" % index
    trips = TRIP_COUNTS[rng.randrange(len(TRIP_COUNTS))]
    pieces = ["function %s(a, n) {" % name, "var s = 0;"]
    pieces.append("for (var i = 0; i < %d; i = i + 1) {" % trips)
    pieces.append("s = (s + a[i % a.length] + n) & 65535;")
    if rng.randrange(3) == 0:
        pieces.append("a[i % a.length] = s;")
    pieces.append("}")
    pieces.append("return s;")
    pieces.append("}")
    return name, " ".join(pieces)


def _array_call_lines(rng, name, index):
    """Array receivers and call sites for one array-walking function.

    Two array literals of different lengths (and sometimes mixed
    element types), an optional append through ``arr[arr.length]``
    (growing the array mid-run, so cached length/bounds guards go
    stale), then a hot driver loop.
    """
    lines = []
    first = "ar%d_0" % index
    second = "ar%d_1" % index
    length = rng.randrange(2, 6)
    elements = [_int_literal(rng) for _ in range(length)]
    if rng.randrange(3) == 0:
        elements[rng.randrange(length)] = OTHER_LITERALS[
            rng.randrange(len(OTHER_LITERALS))
        ]
    lines.append("var %s = [%s];" % (first, ", ".join(elements)))
    lines.append("print(%s(%s, %s));" % (name, first, _int_literal(rng)))
    arrays = [first]
    if rng.randrange(2) == 0:
        other = [_int_literal(rng) for _ in range(rng.randrange(1, 4))]
        lines.append("var %s = [%s];" % (second, ", ".join(other)))
        lines.append("print(%s(%s, %s));" % (name, second, _int_literal(rng)))
        arrays.append(second)
    if rng.randrange(2) == 0:
        victim = arrays[rng.randrange(len(arrays))]
        lines.append("%s[%s.length] = %s;" % (victim, victim, _int_literal(rng)))
        lines.append("print(%s(%s, %s));" % (name, victim, _int_literal(rng)))
    driver = arrays[rng.randrange(len(arrays))]
    trips = TRIP_COUNTS[rng.randrange(len(TRIP_COUNTS))]
    lines.append(
        "var v%d = 0; for (var d%d = 0; d%d < %d; d%d = d%d + 1) "
        "{ v%d = %s(%s, d%d); } print(v%d);"
        % (index, index, index, trips, index, index, index, name, driver, index, index)
    )
    return lines


def _closure_function_line(rng, index):
    """One closure-maker guest function, on a single line.

    Returns a function expression capturing (and mutating) the maker's
    local — a cell variable, so the inner function's compiled code
    reads and writes through the environment rather than a baked
    constant.  Two instances from the same maker share code but not
    cells; specializing one must never leak state into the other.
    """
    maker = "m%d" % index
    pieces = ["function %s(n) {" % maker, "var t = n;"]
    if rng.randrange(2) == 0:
        pieces.append("var u = %s;" % _int_literal(rng))
        body = "t = (t + d + u) & 65535; u = (u ^ d) & 255; return t;"
    else:
        body = "t = (t + d * %d) & 65535; return t;" % rng.randrange(1, 5)
    pieces.append("return function (d) { %s };" % body)
    pieces.append("}")
    return maker, " ".join(pieces)


def _closure_call_lines(rng, name, index):
    """Instances and call sites for one closure maker.

    Two closures from the same maker, seeded differently; each is
    called a couple of times then driven hot in a loop — interleaved,
    so a binary specialized on one instance's cell values meets the
    sibling's cells immediately.
    """
    lines = []
    first = "cl%d_0" % index
    second = "cl%d_1" % index
    lines.append("var %s = %s(%s);" % (first, name, _int_literal(rng)))
    lines.append("var %s = %s(%s);" % (second, name, _int_literal(rng)))
    lines.append("print(%s(%s));" % (first, _int_literal(rng)))
    lines.append("print(%s(%s));" % (second, _int_literal(rng)))
    trips = TRIP_COUNTS[rng.randrange(len(TRIP_COUNTS))]
    lines.append(
        "var y%d = 0; for (var x%d = 0; x%d < %d; x%d = x%d + 1) "
        "{ y%d = (y%d + %s(x%d) + %s(x%d)) & 65535; } print(y%d);"
        % (
            index,
            index,
            index,
            trips,
            index,
            index,
            index,
            index,
            first,
            index,
            second,
            index,
            index,
        )
    )
    return lines


def generate_program(seed, iteration=0):
    """The program for ``(seed, iteration)``, as source text.

    Deterministic: same pair, same text, on every supported platform.
    Every generated program terminates (all loops have literal bounds)
    and is syntactically valid; most print several lines.
    """
    rng = random.Random(seed * SEED_STRIDE + iteration)
    lines = []
    function_names = []
    for index in range(rng.randrange(1, 4)):
        name, line = _function_line(rng, index)
        function_names.append(name)
        lines.append(line)
    object_names = []
    for index in range(rng.randrange(0, 3)):
        name, line = _object_function_line(rng, index)
        object_names.append(name)
        lines.append(line)
    churn_names = []
    for index in range(rng.randrange(0, 3)):
        name, line = _churn_function_line(rng, index)
        churn_names.append(name)
        lines.append(line)
    speckey_names = []
    for index in range(rng.randrange(0, 2)):
        name, line = _speckey_function_line(rng, index)
        speckey_names.append(name)
        lines.append(line)
    array_names = []
    for index in range(rng.randrange(0, 2)):
        name, line = _array_function_line(rng, index)
        array_names.append(name)
        lines.append(line)
    closure_names = []
    for index in range(rng.randrange(0, 2)):
        name, line = _closure_function_line(rng, index)
        closure_names.append(name)
        lines.append(line)
    for index, name in enumerate(function_names):
        lines.extend(_call_lines(rng, name, index))
    for index, name in enumerate(object_names):
        lines.extend(_object_call_lines(rng, name, index))
    for index, name in enumerate(churn_names):
        lines.extend(_churn_call_lines(rng, name, index))
    for index, name in enumerate(speckey_names):
        lines.extend(_speckey_call_lines(rng, name, index))
    for index, name in enumerate(array_names):
        lines.extend(_array_call_lines(rng, name, index))
    for index, name in enumerate(closure_names):
        lines.extend(_closure_call_lines(rng, name, index))
    return "\n".join(lines) + "\n"
