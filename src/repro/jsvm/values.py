"""The JavaScript value model.

Guest values map onto Python values as follows:

===============  =========================================
JS value         Python representation
===============  =========================================
number (int32)   ``int`` in ``[-2**31, 2**31 - 1]``
number (double)  ``float``
boolean          ``bool``
string           ``str``
undefined        the :data:`UNDEFINED` singleton
null             the :data:`NULL` singleton
object           :class:`repro.jsvm.objects.JSObject`
array            :class:`repro.jsvm.objects.JSArray`
function         :class:`JSFunction`
===============  =========================================

The int32/double split mirrors what IonMonkey's type inference does:
numbers that fit an int32 are represented and typed as integers, which
is what makes integer arithmetic cheap in the JIT (paper, §3).  Helper
functions here implement the JS coercion semantics the interpreter,
constant folder and native executor all share — keeping these three in
agreement is what makes constant folding sound.
"""

import math

INT32_MIN = -(2 ** 31)
INT32_MAX = 2 ** 31 - 1
_UINT32 = 2 ** 32


class JSUndefined(object):
    """The singleton type of ``undefined``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "undefined"

    def __bool__(self):
        return False


class JSNull(object):
    """The singleton type of ``null``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "null"

    def __bool__(self):
        return False


UNDEFINED = JSUndefined()
NULL = JSNull()


class JSFunction(object):
    """A guest function value: code object plus defining environment.

    ``code`` is a :class:`repro.jsvm.bytecode.CodeObject`.  ``scope`` is
    the :class:`repro.jsvm.interpreter.Environment` the function closes
    over (``None`` for top-level functions that only see globals).
    """

    __slots__ = ("code", "scope")

    def __init__(self, code, scope=None):
        self.code = code
        self.scope = scope

    @property
    def name(self):
        return self.code.name

    def __repr__(self):
        return "<function %s>" % (self.name or "<anonymous>")


class NativeFunction(object):
    """A host (builtin) function exposed to guest code, e.g. ``Math.floor``."""

    __slots__ = ("name", "fn", "foldable")

    def __init__(self, name, fn, foldable=False):
        self.name = name
        self.fn = fn
        #: Whether the constant folder may evaluate this function at
        #: compile time (true only for pure math builtins).
        self.foldable = foldable

    def __call__(self, this, args):
        return self.fn(this, args)

    def __repr__(self):
        return "<native function %s>" % self.name


def is_int32(value):
    """True if ``value`` is a guest int32 (excludes bools)."""
    return type(value) is int and INT32_MIN <= value <= INT32_MAX


def is_number(value):
    """True if ``value`` is a guest number (int32 or double)."""
    return type(value) is int or type(value) is float


def normalize_number(value):
    """Canonicalize a Python number into the guest representation.

    Integral floats that fit int32 become ints; ints outside int32
    become floats.  This mirrors IonMonkey representing a number as an
    integer whenever type inference allows it.
    """
    if type(value) is int:
        if INT32_MIN <= value <= INT32_MAX:
            return value
        return float(value)
    if type(value) is float:
        if value.is_integer() and INT32_MIN <= value <= INT32_MAX:
            # Preserve the float -0.0, which is distinct from int 0 in JS.
            if value == 0.0 and math.copysign(1.0, value) < 0:
                return value
            return int(value)
        return value
    raise TypeError("not a number: %r" % (value,))


# Lazily-bound object classes (repro.jsvm.objects imports this module,
# so a top-level import here would be circular).  Bound once, on first
# use, instead of re-importing inside every type_of/type_tag call —
# both sit on the per-call feedback path.
_JSArray = None
_JSObject = None


def _object_classes():
    """Bind and return ``(JSArray, JSObject)`` on first use."""
    global _JSArray, _JSObject
    if _JSObject is None:
        from repro.jsvm.objects import JSArray, JSObject

        _JSArray, _JSObject = JSArray, JSObject
    return _JSArray, _JSObject


def type_of(value):
    """Implement the JS ``typeof`` operator."""
    if value is UNDEFINED:
        return "undefined"
    if value is NULL:
        return "object"
    if type(value) is bool:
        return "boolean"
    if is_number(value):
        return "number"
    if type(value) is str:
        return "string"
    if isinstance(value, (JSFunction, NativeFunction)):
        return "function"
    if isinstance(value, _object_classes()[1]):
        return "object"
    raise TypeError("not a JS value: %r" % (value,))


def type_tag(value):
    """A fine-grained type tag used by telemetry and type inference.

    Unlike :func:`type_of`, this distinguishes ``int`` from ``double``,
    ``array`` from ``object``, and ``null`` from ``object`` — the
    categories of the paper's Figure 4.  This runs for every argument
    of every guest call: ints (whose tag depends on the value's range)
    are handled inline, and every other tag is a function of the exact
    class alone, memoized in ``_TAG_BY_TYPE``.
    """
    kind = type(value)
    if kind is int:
        if INT32_MIN <= value <= INT32_MAX:
            return "int"
        return "double"  # un-normalized wide integer: still a JS number
    tag = _TAG_BY_TYPE.get(kind)
    if tag is not None:
        return tag
    if value is UNDEFINED:
        tag = "undefined"
    elif value is NULL:
        tag = "null"
    elif isinstance(value, (JSFunction, NativeFunction)):
        tag = "function"
    else:
        array_class, object_class = _object_classes()
        if isinstance(value, array_class):
            tag = "array"
        elif isinstance(value, object_class):
            tag = "object"
        else:
            raise TypeError("not a JS value: %r" % (value,))
    _TAG_BY_TYPE[kind] = tag
    return tag


#: Exact-type tag memo for :func:`type_tag`.  Sound because every tag
#: except ``int``/``double`` (handled before the probe) is determined
#: by the value's class; unseen classes (e.g. JSObject subclasses) are
#: resolved once through the isinstance ladder and cached.
_TAG_BY_TYPE = {
    float: "double",
    str: "string",
    bool: "bool",
    JSUndefined: "undefined",
    JSNull: "null",
    JSFunction: "function",
    NativeFunction: "function",
}


def to_boolean(value):
    """Implement JS ToBoolean."""
    if value is UNDEFINED or value is NULL:
        return False
    if type(value) is bool:
        return value
    if type(value) is int:
        return value != 0
    if type(value) is float:
        return value != 0.0 and not math.isnan(value)
    if type(value) is str:
        return len(value) > 0
    return True


def to_number(value):
    """Implement JS ToNumber for the subset we support."""
    if type(value) is int or type(value) is float:
        return value
    if type(value) is bool:
        return 1 if value else 0
    if value is UNDEFINED:
        return float("nan")
    if value is NULL:
        return 0
    if type(value) is str:
        text = value.strip()
        if not text:
            return 0
        try:
            return normalize_number(int(text, 0) if text.lower().startswith(("0x", "-0x")) else int(text))
        except ValueError:
            pass
        try:
            return normalize_number(float(text))
        except ValueError:
            return float("nan")
    # Objects: the full spec calls valueOf/toString; our subset coerces
    # arrays through their string form and other objects to NaN.
    from repro.jsvm.objects import JSArray

    if isinstance(value, JSArray):
        return to_number(to_js_string(value))
    return float("nan")


def format_number(value):
    """Render a guest number the way JS ``String(n)`` does.

    ECMAScript's Number::toString: the shortest digits that round-trip
    (``repr``'s), in fixed notation — zero-padded up to 21 digits —
    for 1e-7 <= |n| < 1e21, else as ``d.ddde±x``.
    """
    if type(value) is int:
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if value.is_integer() and abs(value) < 2 ** 53:
        return str(int(value))  # every digit significant; -0 reads "0"
    mantissa, _, exponent = repr(abs(value)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("0")
    # The value is 0.<digits> x 10**point.
    point = len(whole) + int(exponent or 0) - len(whole + fraction) + len(digits)
    digits = digits.rstrip("0")
    if len(digits) <= point <= 21:
        text = digits + "0" * (point - len(digits))
    elif 0 < point <= 21:
        text = digits[:point] + "." + digits[point:]
    elif -6 < point <= 0:
        text = "0." + "0" * -point + digits
    else:
        text = (digits[0] + "." + digits[1:]).rstrip(".") + "e%+d" % (point - 1)
    return "-" + text if value < 0 else text


def to_js_string(value):
    """Implement JS ToString for the subset we support."""
    from repro.jsvm.objects import JSArray, JSObject

    if type(value) is str:
        return value
    if type(value) is bool:
        return "true" if value else "false"
    if is_number(value):
        return format_number(value)
    if value is UNDEFINED:
        return "undefined"
    if value is NULL:
        return "null"
    if isinstance(value, JSFunction):
        return "function %s() { [code] }" % (value.name or "")
    if isinstance(value, NativeFunction):
        return "function %s() { [native code] }" % value.name
    if isinstance(value, JSArray):
        return ",".join(
            "" if e is UNDEFINED or e is NULL else to_js_string(e) for e in value.elements
        )
    if isinstance(value, JSObject):
        return "[object Object]"
    raise TypeError("not a JS value: %r" % (value,))


def js_strict_equals(a, b):
    """Implement the JS ``===`` operator."""
    ta, tb = type_of(a), type_of(b)
    if ta != tb:
        return False
    if ta == "number":
        return float(a) == float(b)
    if ta in ("string", "boolean"):
        return a == b
    if a is UNDEFINED or a is NULL:
        # typeof null is "object"; handle identity below for objects.
        return a is b
    return a is b


def js_equals(a, b):
    """Implement the JS ``==`` operator (abstract equality)."""
    ta, tb = type_of(a), type_of(b)
    if ta == tb:
        return js_strict_equals(a, b)
    nullish = (UNDEFINED, NULL)
    if a in nullish and b in nullish:
        return True
    if a in nullish or b in nullish:
        return False
    if ta == "number" and tb == "string":
        return js_equals(a, to_number(b))
    if ta == "string" and tb == "number":
        return js_equals(to_number(a), b)
    if ta == "boolean":
        return js_equals(to_number(a), b)
    if tb == "boolean":
        return js_equals(a, to_number(b))
    if ta in ("object", "function") and tb in ("number", "string"):
        return js_equals(to_js_string(a), b)
    if tb in ("object", "function") and ta in ("number", "string"):
        return js_equals(a, to_js_string(b))
    return False


def value_key(value):
    """A hashable identity key for one argument value.

    The specialization cache (paper §4, "Specialization policy") decides
    whether a call's arguments match the cached ones.  Primitives match
    by value *and* representation type; objects, arrays and functions
    match by identity — exactly the notion under which specialized code
    remains valid (an object constant is a baked-in reference).  A
    ``("ref", value)`` key holds the object itself, which compares by
    identity (no heap class defines ``__eq__``) and lives as long as
    the key, so no later object can take its place.
    """
    name = _KEY_TYPE_NAMES.get(type(value))
    if name is not None:
        return (name, value)
    if value is UNDEFINED:
        return ("undefined",)
    if value is NULL:
        return ("null",)
    return ("ref", value)


#: Primitive types keyed by value in :func:`value_key`; one dict probe
#: replaces four identity checks plus a ``__name__`` lookup on the
#: per-call specialization-cache path.
_KEY_TYPE_NAMES = {int: "int", float: "float", bool: "bool", str: "str"}


def arguments_key(args):
    """The cache key for a full argument list."""
    return tuple([value_key(a) for a in args])


def _spec_key(this_value, args):
    """The specialization-cache key of one call: ``(this key, argument keys)``."""
    return (value_key(this_value), arguments_key(args))


def describe_key(key):
    """A spec key as trace text, the same in every process: ``repr(key)``
    with each ``('ref', object)`` named by the first position holding that
    object among ``this`` (0) and the arguments (1, ...), the ordering of
    ``repro.cache.disk.compile_inputs``."""
    first = {}
    parts = [
        ("ref", first.setdefault(part[1], position)) if part[0] == "ref" else part
        for position, part in enumerate((key[0],) + key[1])
    ]
    return repr((parts[0], tuple(parts[1:])))


def _key_recurrable(key):
    """Whether a spec key can match again after its values die.

    Primitive components match by value, so the same regime can return
    forever; a ``('ref', object)`` component matches only that object,
    so such a key marks a one-allocation regime that is not worth a
    specialized table line of its own.
    """
    this_key, args_key = key
    if this_key[0] == "ref":
        return False
    for part in args_key:
        if part[0] == "ref":
            return False
    return True


def _key_matcher(key):
    """``key`` as ``(this_type, this_value, arg_types, arg_values)``.

    A call matches ``key`` — ``_spec_key(this, args) == key`` — exactly
    when each value has the exact type of the recorded value and is (or
    equals) it: the one matcher of the specialization cache, laid out so
    the warm call can test it inline, without a Python call per
    argument.  Every component holds its value (undefined and null are
    implied by their tag), and :func:`value_key` names a value by its
    exact type, so that type is the component's.  The tags
    ``record_args`` would derive from a matching call are a function of
    the key alone, which is what lets a matched call skip it
    (``FunctionState.key_recorded``).
    """
    values = [
        part[1] if len(part) == 2 else (UNDEFINED if part[0] == "undefined" else NULL)
        for part in (key[0],) + key[1]
    ]
    kinds = [type(value) for value in values]
    return kinds[0], values[0], tuple(kinds[1:]), tuple(values[1:])
