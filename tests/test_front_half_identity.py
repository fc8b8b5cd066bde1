"""The fast front half produces exactly what the slow one did.

Loop inversion, the scanner, binary-expression parsing and constant
interning were rewritten to be linear in the source.  Model cycles, OSR
pcs and cache keys hang off their output, so each is held against a
test-only copy of the code it replaced (``reference_rotation.py``,
``reference_lexer.py``, the ladder and the scans below) on the corpus
of ``front_half_corpus.py``.
"""

import collections

import pytest

from repro.errors import JSSyntaxError
from repro.jsvm import ast_nodes as ast
from repro.jsvm import bytecode, bytecompiler
from repro.jsvm.bytecode import CodeObject, Instr
from repro.jsvm.bytecompiler import compile_source
from repro.jsvm.lexer import tokenize
from repro.jsvm.parser import _BINARY_LEVELS, Parser, parse
from repro.jsvm.tokens import TokenType
from repro.opts import loop_inversion
from repro.opts.loop_inversion import rotate_loops
from tests import reference_lexer, reference_rotation
from tests.front_half_corpus import NAMED_SHAPES, programs
from tests.helpers import all_function_codes


def streams(toplevel):
    return [
        [(instr.op, instr.arg, instr.line) for instr in code.instructions]
        for code in [toplevel] + all_function_codes(toplevel)
    ]


# -- (a) loop inversion ----------------------------------------------------------


def test_corpus_has_the_promised_breadth():
    names = [name for name, _source in programs()]
    assert sum(name.startswith("fuzz/") for name in names) >= 500
    assert sum(name.startswith("page/") for name in names) == 48
    assert sum(name.startswith("catalog/") for name in names) == 6
    assert sum(name.startswith("corpus/") for name in names) >= 14


def test_rotation_matches_the_fixpoint_on_the_corpus():
    loops = 0
    for name, source in programs():
        fast = compile_source(source)
        slow = compile_source(source)
        rotated = rotate_loops(fast)
        assert rotated == reference_rotation.rotate_loops(slow), name
        assert streams(fast) == streams(slow), name
        loops += rotated
    assert loops > 10000


@pytest.mark.parametrize("shape", sorted(NAMED_SHAPES))
def test_named_shape_rotates_what_the_fixpoint_rotates(shape):
    source, expected = NAMED_SHAPES[shape]
    fast = compile_source(source)
    slow = compile_source(source)
    assert rotate_loops(fast) == expected
    assert reference_rotation.rotate_loops(slow) == expected
    assert streams(fast) == streams(slow)


def test_non_recursive_rotation_leaves_nested_functions_alone():
    source = "function f(a) { while (a) { a--; } } while (b) { b--; }"
    toplevel = compile_source(source)
    nested = all_function_codes(toplevel)[0]
    before = streams(nested)
    assert rotate_loops(toplevel, recursive=False) == 1
    assert streams(nested) == before
    assert rotate_loops(toplevel) == 1  # the nested loop, on the later deep call


class CountingInstr(Instr):
    __slots__ = ()
    allocated = 0

    def __init__(self, op, arg=None, line=0):
        CountingInstr.allocated += 1
        Instr.__init__(self, op, arg, line)


def _script_with_loops(count):
    return "var x = 0;\n" + "\n".join(
        "for (var i%d = 0; i%d < 3; i%d++) { x = x + i%d; }" % (n, n, n, n) for n in range(count)
    )


@pytest.mark.parametrize("loops", [40, 160])
def test_rotation_allocates_in_proportion_to_its_output(loops, monkeypatch):
    """A count, not a clock: the fixpoint rebuilt the whole stream once
    per loop (``loops * instructions`` allocations); one pass may not."""
    code = compile_source(_script_with_loops(loops))
    monkeypatch.setattr(loop_inversion, "Instr", CountingInstr)
    CountingInstr.allocated = 0
    assert rotate_loops(code) == loops
    assert 0 < CountingInstr.allocated <= len(code.instructions)


# -- rotate_loops is idempotent by construction ---------------------------------


def test_second_rotation_returns_zero_and_touches_nothing():
    code = compile_source("while (a) { a--; } function f(b) { while (b) { b--; } }")
    assert rotate_loops(code) == 2
    instructions = code.instructions
    code.threaded = marker = object()
    code.fingerprint = "kept"
    assert rotate_loops(code) == 0
    assert code.instructions is instructions
    assert code.threaded is marker
    assert code.fingerprint == "kept"


def test_served_programs_second_request_does_no_rotation_work(monkeypatch):
    from repro.serving.isolate import TenantIsolate

    calls = []
    plan = loop_inversion._plan
    validate = CodeObject.validate
    monkeypatch.setattr(
        loop_inversion, "_plan", lambda instructions: calls.append("plan") or plan(instructions)
    )
    monkeypatch.setattr(
        CodeObject, "validate", lambda self: calls.append("validate") or validate(self)
    )
    isolate = TenantIsolate("t00")
    source = "function f(n) { var s = 0; while (n) { s += n; n--; } return s; } print(f(4));"
    first, _cycles = isolate.execute("app", source)
    assert calls.count("plan") == 2
    del calls[:]
    second, _cycles = isolate.execute("app", source)
    assert second == first == ["10"]
    assert calls == []


# -- (b) the scanner -------------------------------------------------------------


def observed(lexer, source):
    try:
        return [
            (token.type, token.value, type(token.value), token.line, token.column)
            for token in lexer(source)
        ]
    except JSSyntaxError as error:
        return ("JSSyntaxError", str(error), error.line, error.column)


def test_scanner_matches_the_character_lexer_on_the_corpus():
    tokens = 0
    for name, source in programs():
        fast = observed(tokenize, source)
        assert fast == observed(reference_lexer.tokenize, source), name
        tokens += len(fast)
    assert tokens > 500000


LEXER_CASES = [
    "",
    " ",
    "\n",
    " \t a",
    "a\n",
    "var\tx\r\n=\r1",
    "\r\n\r\n x",
    "a\n\n\nb\n  c   d",
    # numbers
    "0x1F 0Xff",
    "1.e5",
    "1.e",
    "1e",
    "1e+",
    "1e+5",
    ".5",
    ".5e3",
    "1.",
    "1..x",
    "1.5.2",
    "5.toString",
    "3abc",
    "007",
    "4.0",
    "4294967296",
    "1e400",
    "-0.0",
    "1.5e-3",
    "x.e",
    "x = ٣.٥ + 1٣",
    # punctuators: maximal munch
    "a>>>=b>>>c>>=d>>e>=f>g",
    "a===b!==c==d!=e=f",
    "a++ + ++b - --c",
    "a&&b||c&d|e^f",
    "a<<=b<<c<=d<e",
    "a+=b-=c*=d/=e%=f&=g|=h^=i",
    "!a~b?c:d",
    # comments and division
    "a / b",
    "a /= b",
    "a //= b\n c",
    "a /**/ b",
    "a /***/ b",
    "a /* * / */ b",
    "/*/ */ b",
    "/* a */ b /* c\n d */ e // f\n g",
    # identifiers
    "é = 1",
    "aé$_9 = 1",
    "$a _b $",
    "if else typeof instanceof inx",
    # strings
    "\"\" ''",
    "\"a\" \"b\" 'c'",
    "\"a\\\"b\" 'a\"b' \"a'b\"",
    "\"\\q\\n\\t\\0\\\\\\'\\\"\\b\\f\\v\\r\"",
    "'\\x41\\u0042' \"\\u0041\\x42C\"",
    "\"a\\\nb\" c",
    "\"a\\\n\\\nb\"\n c",
    "\"é \"",
]

#: ``(source, message, line, column)`` for every way the scanner rejects.
LEXER_ERRORS = [
    ("0x", "malformed hex literal", 1, 3),
    ("a = 0xg", "malformed hex literal", 1, 7),
    ("\n\n  0X", "malformed hex literal", 3, 5),
    ("1 /* oops", "unterminated comment", 1, 3),
    ("\n\n  /* x\n y", "unterminated comment", 3, 3),
    ("/*/ b", "unterminated comment", 1, 1),
    ('"abc', "unterminated string", 1, 1),
    ("x = 'abc", "unterminated string", 1, 5),
    ('"abc\\', "unterminated string", 1, 1),
    ('"a\\\n', "unterminated string", 1, 1),
    ('x = "a\nb"', "newline in string literal", 1, 5),
    ("'\\\n\n'", "newline in string literal", 1, 1),
    ('"\\\r\n"', "newline in string literal", 1, 1),
    ('"\\xZZ"', "malformed \\x escape", 1, 4),
    ('"\\x4"', "malformed \\x escape", 1, 4),
    ('"\\x', "malformed \\x escape", 1, 4),
    ('  \n "ab\\x', "malformed \\x escape", 2, 7),
    ('"a\\\n\\xQ"', "malformed \\x escape", 2, 3),
    ('"\\u12G4"', "malformed \\u escape", 1, 4),
    ('"\\u123', "malformed \\u escape", 1, 4),
    ("a # b", "unexpected character '#'", 1, 3),
    ("a\n  @", "unexpected character '@'", 2, 3),
    ("½", "unexpected character '½'", 1, 1),
    ("a Ⅷ", "unexpected character 'Ⅷ'", 1, 3),
]


@pytest.mark.parametrize("source", LEXER_CASES)
def test_scanner_matches_the_character_lexer_on_edge_input(source):
    assert observed(tokenize, source) == observed(reference_lexer.tokenize, source)


@pytest.mark.parametrize("source,message,line,column", LEXER_ERRORS)
def test_scanner_keeps_every_error_and_its_blame(source, message, line, column):
    with pytest.raises(JSSyntaxError) as caught:
        tokenize(source)
    assert str(caught.value) == "%s (line %d, column %d)" % (message, line, column)
    assert (caught.value.line, caught.value.column) == (line, column)
    assert observed(tokenize, source) == observed(reference_lexer.tokenize, source)


def test_digit_outside_ascii_and_decimal_is_a_syntax_error():
    """The one input class the scanners differ on: the character lexer
    fed a superscript digit to ``int()`` and died with ValueError."""
    for source in ("²", "1²", ".²"):
        with pytest.raises(ValueError):
            reference_lexer.tokenize(source)
        with pytest.raises(JSSyntaxError) as caught:
            tokenize(source)
        assert str(caught.value).startswith("unexpected character '²' (line 1, column ")


# -- (c) binary expressions ---------------------------------------------------------


class LadderParser(Parser):
    """The parser with the per-operand precedence ladder it used to have."""

    def parse_binary(self, level):
        if level >= len(_BINARY_LEVELS):
            return self.parse_unary()
        operators = _BINARY_LEVELS[level]
        left = self.parse_binary(level + 1)
        while True:
            token = self.peek()
            matches = (
                token.type == TokenType.PUNCT or token.type == TokenType.KEYWORD
            ) and token.value in operators
            if not matches:
                return left
            self.advance()
            right = self.parse_binary(level + 1)
            left = ast.Binary(token.value, left, right, line=token.line)


def dump(node, kinds=None):
    """An AST as nested plain data, line numbers included (``repr`` leaves
    them out); ``kinds`` counts the node types met."""
    if isinstance(node, ast.Node):
        if kinds is not None:
            kinds[type(node).__name__] += 1
        return (type(node).__name__, node.line) + tuple(
            dump(getattr(node, field), kinds) for field in node._fields()
        )
    if isinstance(node, (list, tuple)):
        return [dump(item, kinds) for item in node]
    return node


def test_precedence_climbing_builds_the_ladders_trees_on_the_corpus():
    kinds = collections.Counter()
    for name, source in programs():
        assert dump(parse(source), kinds) == dump(LadderParser(source).parse_program()), name
    assert kinds["Binary"] > 10000


def test_two_hundred_operands_of_mixed_precedence():
    operators = [op for level in _BINARY_LEVELS for op in level]
    source = "x = a0" + "".join(
        "\n %s a%d" % (operators[(index * 7) % len(operators)], index) for index in range(1, 200)
    )
    fast = parse(source)
    assert repr(fast) == repr(LadderParser(source).parse_program())
    assert dump(fast) == dump(LadderParser(source).parse_program())
    assert repr(fast).count("Binary(") == 199


def test_binary_operators_need_operator_tokens():
    for source in ('a "+" b', "a '<' b"):
        with pytest.raises(JSSyntaxError) as caught:
            parse(source)
        with pytest.raises(JSSyntaxError) as expected:
            LadderParser(source).parse_program()
        assert str(caught.value) == str(expected.value)


# -- (d) interning ---------------------------------------------------------------------


class ScanningCodeObject(CodeObject):
    """A code object interning by the linear scans the side dicts replaced."""

    def const_index(self, value):
        for index, existing in enumerate(self.constants):
            if existing is value or (
                type(existing) is type(value)
                and type(value) in (int, float, str, bool)
                and existing == value
            ):
                return index
        self.constants.append(value)
        return len(self.constants) - 1

    def name_index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1


def pools(toplevel):
    def plain(constant):
        if isinstance(constant, CodeObject):
            return ("code", constant.name)
        return (type(constant), repr(constant))

    return [
        ([plain(constant) for constant in code.constants], list(code.names))
        for code in [toplevel] + all_function_codes(toplevel)
    ]


def test_interning_by_lookup_fills_the_pools_as_the_scans_did(monkeypatch):
    compiled = [compile_source(source) for _name, source in programs()]
    monkeypatch.setattr(bytecompiler, "CodeObject", ScanningCodeObject)
    for (name, source), fast in zip(programs(), compiled):
        slow = compile_source(source)
        assert type(slow) is ScanningCodeObject
        assert pools(fast) == pools(slow), name
        assert streams(fast) == streams(slow), name


@pytest.mark.parametrize("code_class", [CodeObject, ScanningCodeObject])
def test_interning_keeps_types_apart_and_zeros_together(code_class):
    code = code_class("f", [])
    nan, other_nan = float("nan"), float("nan")
    nested = bytecode.CodeObject("g", [])
    values = [1, 1.0, True, "1", 0.0, -0.0, nan, other_nan, nan, nested, nested, 1, "1", True, 0]
    assert [code.const_index(value) for value in values] == [
        0, 1, 2, 3, 4, 4, 5, 6, 5, 7, 7, 0, 3, 2, 8,
    ]
    assert [type(value) for value in code.constants[:5]] == [int, float, bool, str, float]
    assert repr(code.constants[4]) == "0.0"
    assert [code.name_index(name) for name in ["a", "b", "a", "length", "b"]] == [0, 1, 0, 2, 1]
    assert code.names == ["a", "b", "length"]
