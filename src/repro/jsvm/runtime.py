"""The global object and host builtins.

A :class:`Runtime` owns the global variable map and the method tables
for primitive receivers (strings, arrays, numbers).  It provides the
handful of builtins the workload suites need: ``print``, ``Math``,
``String.fromCharCode``, ``Array``, ``parseInt``/``parseFloat``,
``isNaN``, and the usual string/array methods.

Pure ``Math`` builtins are marked ``foldable`` so the JIT's constant
folder may evaluate them at compile time when all arguments are
specialized constants.
"""

import math
import weakref

from repro.errors import JSRangeError, JSTypeError, OwnerDropped
from repro.jsvm.bytecode import CodeIds
from repro.jsvm.objects import JSArray, JSObject, ShapeTree
from repro.jsvm.values import (
    NULL,
    UNDEFINED,
    NativeFunction,
    fixed_number,
    format_number,
    is_number,
    normalize_number,
    radix_string,
    to_js_string,
    to_number,
)


def _check_string_this(this, method):
    if type(this) is not str:
        raise JSTypeError("String.prototype.%s called on non-string" % method)
    return this


def _check_array_this(this, method):
    if not isinstance(this, JSArray):
        raise JSTypeError("Array.prototype.%s called on non-array" % method)
    return this


def _arg(args, index, default=UNDEFINED):
    return args[index] if index < len(args) else default


def _int_arg(args, index, default=0):
    if index >= len(args):
        return default
    value = args[index]
    if type(value) is int:
        # Hot path: charAt/charCodeAt-style calls pass an int32.
        return value
    if value is UNDEFINED:
        return default
    number = to_number(value)
    if type(number) is float:
        if math.isnan(number):
            return default
        number = int(number)
    return number


class Runtime(object):
    """Host environment: globals plus primitive method tables."""

    def __init__(self, output=None):
        #: Collected output of ``print`` calls (one string per call).
        self.printed = output if output is not None else []
        self.globals = {}
        #: The hidden-class tree every object of this runtime — builtins
        #: and guest allocations alike — takes its shape from.
        self.shapes = ShapeTree()
        #: Numbers the code objects this runtime loads, as ``shapes`` does.
        self.code_ids = CodeIds()
        self.string_methods = {}
        self.array_methods = {}
        self.number_methods = {}
        #: At most one weak reference: the interpreter that adopted this
        #: runtime.  It owns the runtime, not the reverse; the builtins
        #: that call back into guest code (``Array.prototype.sort``)
        #: share this list instead of capturing the runtime.
        self._adopter = []
        self._install_globals()
        self._install_string_methods()
        self._install_array_methods()
        self._install_number_methods()

    # -- installation -------------------------------------------------------

    def _native(self, name, fn, foldable=False):
        return NativeFunction(name, fn, foldable)

    def _install_globals(self):
        root = self.shapes.root
        printed = self.printed

        def js_print(_this, args):
            printed.append(" ".join(to_js_string(a) for a in args))
            return UNDEFINED

        self.globals["print"] = self._native("print", js_print)

        def js_array_ctor(_this, args):
            if len(args) == 1 and is_number(args[0]):
                length = int(args[0])
                if length < 0 or float(args[0]) != length:
                    raise JSRangeError("invalid array length")
                return JSArray(root, [UNDEFINED] * length)
            return JSArray(root, list(args))

        self.globals["Array"] = self._native("Array", js_array_ctor)

        def js_string_ctor(_this, args):
            return to_js_string(_arg(args, 0, ""))

        string_fn = self._native("String", js_string_ctor)
        self.globals["String"] = string_fn

        def js_parse_int(_this, args):
            text = to_js_string(_arg(args, 0)).strip()
            radix = _int_arg(args, 1, 10) or 10
            sign = 1
            if text[:1] in ("+", "-"):
                if text[0] == "-":
                    sign = -1
                text = text[1:]
            if radix == 16 and text[:2].lower() == "0x":
                text = text[2:]
            digits = "0123456789abcdefghijklmnopqrstuvwxyz"[:radix]
            end = 0
            while end < len(text) and text[end].lower() in digits:
                end += 1
            if end == 0:
                return float("nan")
            return normalize_number(sign * int(text[:end], radix))

        self.globals["parseInt"] = self._native("parseInt", js_parse_int, foldable=True)

        def js_parse_float(_this, args):
            text = to_js_string(_arg(args, 0)).strip()
            end = 0
            seen_dot = seen_e = False
            while end < len(text):
                ch = text[end]
                if ch.isdigit() or (ch in "+-" and end == 0):
                    end += 1
                elif ch == "." and not seen_dot and not seen_e:
                    seen_dot = True
                    end += 1
                elif ch in "eE" and not seen_e and end > 0:
                    seen_e = True
                    end += 1
                    if end < len(text) and text[end] in "+-":
                        end += 1
                else:
                    break
            try:
                return normalize_number(float(text[:end]))
            except ValueError:
                return float("nan")

        self.globals["parseFloat"] = self._native("parseFloat", js_parse_float, foldable=True)

        def js_is_nan(_this, args):
            number = to_number(_arg(args, 0))
            return type(number) is float and math.isnan(number)

        self.globals["isNaN"] = self._native("isNaN", js_is_nan, foldable=True)

        def js_is_finite(_this, args):
            number = float(to_number(_arg(args, 0)))
            return not (math.isnan(number) or math.isinf(number))

        self.globals["isFinite"] = self._native("isFinite", js_is_finite, foldable=True)

        self.globals["NaN"] = float("nan")
        self.globals["Infinity"] = float("inf")
        self.globals["undefined"] = UNDEFINED
        self.globals["Math"] = self._make_math()
        self._install_string_statics(string_fn)

    def _make_math(self):
        math_obj = JSObject(self.shapes.root)

        def unary(name, fn, foldable=True):
            def wrapper(_this, args):
                return normalize_number(fn(float(to_number(_arg(args, 0)))))

            math_obj.set(name, self._native("Math." + name, wrapper, foldable))

        unary("floor", math.floor)
        unary("ceil", math.ceil)
        unary("sqrt", lambda x: math.sqrt(x) if x >= 0 else float("nan"))
        unary("sin", math.sin)
        unary("cos", math.cos)
        unary("tan", math.tan)
        unary("exp", math.exp)
        unary("log", lambda x: math.log(x) if x > 0 else (float("-inf") if x == 0 else float("nan")))
        unary("atan", math.atan)
        unary("asin", lambda x: math.asin(x) if -1 <= x <= 1 else float("nan"))
        unary("acos", lambda x: math.acos(x) if -1 <= x <= 1 else float("nan"))

        def js_abs(_this, args):
            number = to_number(_arg(args, 0))
            if type(number) is int:
                return normalize_number(abs(number))
            return abs(number)

        math_obj.set("abs", self._native("Math.abs", js_abs, foldable=True))

        def js_round(_this, args):
            x = float(to_number(_arg(args, 0)))
            if math.isnan(x) or math.isinf(x):
                return x
            return normalize_number(math.floor(x + 0.5))

        math_obj.set("round", self._native("Math.round", js_round, foldable=True))

        def js_pow(_this, args):
            base = float(to_number(_arg(args, 0)))
            exponent = float(to_number(_arg(args, 1)))
            try:
                result = math.pow(base, exponent)
            except (OverflowError, ValueError):
                result = float("nan") if base < 0 else float("inf")
            return normalize_number(result)

        math_obj.set("pow", self._native("Math.pow", js_pow, foldable=True))

        def js_max(_this, args):
            if not args:
                return float("-inf")
            numbers = [to_number(a) for a in args]
            if any(type(n) is float and math.isnan(n) for n in numbers):
                return float("nan")
            return normalize_number(max(float(n) for n in numbers))

        def js_min(_this, args):
            if not args:
                return float("inf")
            numbers = [to_number(a) for a in args]
            if any(type(n) is float and math.isnan(n) for n in numbers):
                return float("nan")
            return normalize_number(min(float(n) for n in numbers))

        math_obj.set("max", self._native("Math.max", js_max, foldable=True))
        math_obj.set("min", self._native("Math.min", js_min, foldable=True))
        math_obj.set("atan2", self._native(
            "Math.atan2",
            lambda _t, a: normalize_number(
                math.atan2(float(to_number(_arg(a, 0))), float(to_number(_arg(a, 1))))
            ),
            foldable=True,
        ))

        # A deterministic LCG so benchmark runs are reproducible; the
        # paper's suites use Math.random only for workload generation.
        state = [123456789]

        def js_random(_this, _args):
            state[0] = (1103515245 * state[0] + 12345) % (2 ** 31)
            return state[0] / float(2 ** 31)

        math_obj.set("random", self._native("Math.random", js_random, foldable=False))
        math_obj.set("PI", math.pi)
        math_obj.set("E", math.e)
        math_obj.set("LN2", math.log(2))
        math_obj.set("LN10", math.log(10))
        math_obj.set("SQRT2", math.sqrt(2))
        return math_obj

    def _install_string_statics(self, string_fn):
        # String.fromCharCode lives as a property on a wrapper object
        # stored under the global name; our subset models it as a
        # global "String" NativeFunction that also owns properties.
        def from_char_code(_this, args):
            return "".join(chr(int(to_number(a)) & 0xFFFF) for a in args)

        holder = JSObject(self.shapes.root)
        holder.set("fromCharCode", self._native("String.fromCharCode", from_char_code, foldable=True))
        # GETPROP on a NativeFunction value consults this table:
        self.function_statics = {string_fn: holder}

    def _install_string_methods(self):
        methods = self.string_methods
        root = self.shapes.root

        def char_at(this, args):
            s = _check_string_this(this, "charAt")
            i = _int_arg(args, 0)
            return s[i] if 0 <= i < len(s) else ""

        def char_code_at(this, args):
            s = _check_string_this(this, "charCodeAt")
            i = _int_arg(args, 0)
            return ord(s[i]) if 0 <= i < len(s) else float("nan")

        def index_of(this, args):
            s = _check_string_this(this, "indexOf")
            needle = to_js_string(_arg(args, 0))
            start = _int_arg(args, 1)
            return s.find(needle, max(start, 0))

        def last_index_of(this, args):
            s = _check_string_this(this, "lastIndexOf")
            return s.rfind(to_js_string(_arg(args, 0)))

        def substring(this, args):
            s = _check_string_this(this, "substring")
            start = max(0, min(_int_arg(args, 0), len(s)))
            end_arg = _arg(args, 1)
            end = len(s) if end_arg is UNDEFINED else max(0, min(_int_arg(args, 1), len(s)))
            if start > end:
                start, end = end, start
            return s[start:end]

        def substr(this, args):
            s = _check_string_this(this, "substr")
            start = _int_arg(args, 0)
            if start < 0:
                start = max(0, len(s) + start)
            length = _int_arg(args, 1, len(s) - start)
            return s[start : start + max(0, length)]

        def slice_(this, args):
            s = _check_string_this(this, "slice")
            start = _int_arg(args, 0)
            end_arg = _arg(args, 1)
            end = len(s) if end_arg is UNDEFINED else _int_arg(args, 1)
            return s[slice(start, end)] if (start >= 0 and end >= 0) else s[start:end]

        def split(this, args):
            s = _check_string_this(this, "split")
            separator = _arg(args, 0)
            if separator is UNDEFINED:
                return JSArray(root, [s])
            separator = to_js_string(separator)
            if separator == "":
                return JSArray(root, list(s))
            return JSArray(root, s.split(separator))

        def to_upper(this, _args):
            return _check_string_this(this, "toUpperCase").upper()

        def to_lower(this, _args):
            return _check_string_this(this, "toLowerCase").lower()

        def concat(this, args):
            return _check_string_this(this, "concat") + "".join(to_js_string(a) for a in args)

        def replace(this, args):
            s = _check_string_this(this, "replace")
            return s.replace(to_js_string(_arg(args, 0)), to_js_string(_arg(args, 1)), 1)

        def to_string(this, _args):
            return _check_string_this(this, "toString")

        methods["charAt"] = self._native("charAt", char_at, foldable=True)
        methods["charCodeAt"] = self._native("charCodeAt", char_code_at, foldable=True)
        methods["indexOf"] = self._native("indexOf", index_of, foldable=True)
        methods["lastIndexOf"] = self._native("lastIndexOf", last_index_of, foldable=True)
        methods["substring"] = self._native("substring", substring, foldable=True)
        methods["substr"] = self._native("substr", substr, foldable=True)
        methods["slice"] = self._native("slice", slice_, foldable=True)
        methods["split"] = self._native("split", split)
        methods["toUpperCase"] = self._native("toUpperCase", to_upper, foldable=True)
        methods["toLowerCase"] = self._native("toLowerCase", to_lower, foldable=True)
        methods["concat"] = self._native("concat", concat, foldable=True)
        methods["replace"] = self._native("replace", replace, foldable=True)
        methods["toString"] = self._native("toString", to_string, foldable=True)

    def _install_array_methods(self):
        methods = self.array_methods
        root = self.shapes.root
        adopter = self._adopter

        def push(this, args):
            array = _check_array_this(this, "push")
            result = len(array.elements)
            for value in args:
                result = array.push(value)
            return result

        def pop(this, _args):
            return _check_array_this(this, "pop").pop()

        def shift(this, _args):
            array = _check_array_this(this, "shift")
            if not array.elements:
                return UNDEFINED
            return array.elements.pop(0)

        def unshift(this, args):
            array = _check_array_this(this, "unshift")
            array.elements[:0] = list(args)
            return len(array.elements)

        def join(this, args):
            array = _check_array_this(this, "join")
            separator = _arg(args, 0)
            separator = "," if separator is UNDEFINED else to_js_string(separator)
            return separator.join(
                "" if e is UNDEFINED or e is NULL else to_js_string(e) for e in array.elements
            )

        def reverse(this, _args):
            array = _check_array_this(this, "reverse")
            array.elements.reverse()
            return array

        def index_of(this, args):
            array = _check_array_this(this, "indexOf")
            from repro.jsvm.values import js_strict_equals

            target = _arg(args, 0)
            for index, element in enumerate(array.elements):
                if js_strict_equals(element, target):
                    return index
            return -1

        def slice_(this, args):
            array = _check_array_this(this, "slice")
            start = _int_arg(args, 0)
            end_arg = _arg(args, 1)
            end = len(array.elements) if end_arg is UNDEFINED else _int_arg(args, 1)
            return JSArray(root, array.elements[start:end] if start >= 0 and end >= 0 else array.elements[start:end])

        def concat(this, args):
            array = _check_array_this(this, "concat")
            elements = list(array.elements)
            for value in args:
                if isinstance(value, JSArray):
                    elements.extend(value.elements)
                else:
                    elements.append(value)
            return JSArray(root, elements)

        def sort(this, args):
            array = _check_array_this(this, "sort")
            comparator = _arg(args, 0)
            if comparator is UNDEFINED:
                array.elements.sort(key=to_js_string)
            else:
                import functools

                if not adopter:
                    raise JSTypeError("sort with comparator requires an interpreter")
                interpreter = adopter[0]()
                if interpreter is None:
                    raise OwnerDropped("Interpreter", "Runtime")

                def compare(a, b):
                    result = to_number(interpreter.call_value(comparator, UNDEFINED, [a, b]))
                    return -1 if float(result) < 0 else (1 if float(result) > 0 else 0)

                array.elements.sort(key=functools.cmp_to_key(compare))
            return array

        def to_string(this, _args):
            return to_js_string(this)

        methods["push"] = self._native("push", push)
        methods["pop"] = self._native("pop", pop)
        methods["shift"] = self._native("shift", shift)
        methods["unshift"] = self._native("unshift", unshift)
        methods["join"] = self._native("join", join)
        methods["reverse"] = self._native("reverse", reverse)
        methods["indexOf"] = self._native("indexOf", index_of)
        methods["slice"] = self._native("slice", slice_)
        methods["concat"] = self._native("concat", concat)
        methods["sort"] = self._native("sort", sort)
        methods["toString"] = self._native("toString", to_string)

    def _install_number_methods(self):
        def to_string(this, args):
            if not is_number(this):
                raise JSTypeError("Number.prototype.toString called on a non-number")
            radix = _int_arg(args, 0, 10)
            if not 2 <= radix <= 36:
                raise JSRangeError("toString() radix must be between 2 and 36")
            if radix == 10 or not math.isfinite(this):
                return format_number(this)
            return radix_string(this, radix)

        def to_fixed(this, args):
            digits = to_number(_arg(args, 0))
            if digits != digits:
                digits = 0
            if not -1 < digits < 101:
                raise JSRangeError("toFixed() digits argument must be between 0 and 100")
            return fixed_number(float(to_number(this)), int(digits))

        self.number_methods["toString"] = self._native("toString", to_string, foldable=True)
        self.number_methods["toFixed"] = self._native("toFixed", to_fixed, foldable=True)

    def adopted_by(self, interpreter):
        """Called by the interpreter that adopts this runtime, so builtins
        that call back into guest code (Array.prototype.sort) work."""
        self._adopter[:] = [weakref.ref(interpreter)]

    # -- global access ----------------------------------------------------------

    def get_global(self, name):
        try:
            return self.globals[name]
        except KeyError:
            from repro.errors import JSReferenceError

            raise JSReferenceError("%s is not defined" % name)

    def set_global(self, name, value):
        self.globals[name] = value

    def has_global(self, name):
        return name in self.globals
