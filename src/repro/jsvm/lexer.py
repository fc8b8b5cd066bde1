"""Single-pattern scanner for the JavaScript subset.

Supports decimal and hex integer literals, float literals with
exponents, single- and double-quoted strings with the common escapes,
``//`` and ``/* */`` comments, and the punctuator set in
:mod:`repro.jsvm.tokens`.  Regular-expression literals are not part of
the subset.

One compiled pattern recognises every common token; ``lastgroup`` says
which.  What it leaves out — an identifier that starts with a non-ASCII
letter, a string holding an escape, and every malformed input — goes
through :func:`_lex_rare`.  Lines and columns come from the offset of
the last newline seen, so no character is visited twice.
"""

import re

from repro.errors import JSSyntaxError
from repro.jsvm.tokens import KEYWORDS, PUNCTUATORS, Token, TokenType
from repro.jsvm.values import normalize_number

EOF = TokenType.EOF
IDENT = TokenType.IDENT
KEYWORD = TokenType.KEYWORD
NUMBER = TokenType.NUMBER
PUNCT = TokenType.PUNCT
STRING = TokenType.STRING

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "\n": "",  # line continuation
}  # any other escaped character stands for itself

# Alternatives are tried in order: the float forms before a bare integer,
# a leading-dot float before the ``.`` punctuator, an unterminated ``/*``
# before the ``/`` punctuator, and the punctuators in registry order
# (longest first: maximal munch).  Each match also takes the blanks after
# the token, so the next one starts where this match ends.
_MASTER = re.compile(
    r"(?:"
    r"(?P<ident>[A-Za-z_$][\w$]*)"
    r"|(?P<blank>[ \t\r\n]+)"
    r"|(?P<hex>0[xX][0-9a-fA-F]*)"
    r"|(?P<float>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<string>\"[^\"\\\n]*\"|'[^'\\\n]*')"
    r"|(?P<comment>//[^\n]*|/\*[\s\S]*?\*/)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<punct>" + "|".join(map(re.escape, PUNCTUATORS)) + r")"
    r")[ \t\r]*"
)

_STRING = re.compile(r"""(["'])((?:(?!\1)[^\\\n]|\\[\s\S])*)(\1|\n|)""")
_ESCAPE = re.compile(r"\\(?:x([0-9a-fA-F]{2})|u([0-9a-fA-F]{4})|([\s\S]))")


def _error(message, source, pos):
    """Raise ``JSSyntaxError`` blaming the character at offset ``pos``."""
    line = source.count("\n", 0, pos) + 1
    raise JSSyntaxError(message, line, pos - source.rfind("\n", 0, pos))


def _lex_rare(source, start):
    """The token at ``start`` that ``_MASTER`` leaves out: ``(type, value, end)``.

    An identifier starting with a non-ASCII letter, or a string literal
    with escapes; anything else (a broken string included) is an error.
    """
    if source[start].isalpha():
        end = start + 1
        while end < len(source) and (source[end].isalnum() or source[end] in "_$"):
            end += 1
        return IDENT, source[start:end], end
    if source[start] not in "'\"":
        _error("unexpected character %r" % source[start], source, start)
    # Opening quote, body, and what ended the body: the closing quote,
    # a raw newline, or nothing at all.
    match = _STRING.match(source, start)

    def unescape(escape):
        code = escape.group(1) or escape.group(2)
        if code:
            return chr(int(code, 16))
        char = escape.group(3)
        if char in ("x", "u"):
            _error("malformed \\%s escape" % char, source, start + 1 + escape.end())
        return _ESCAPES.get(char, char)

    value = _ESCAPE.sub(unescape, match.group(2))
    if match.group(3) == "\n":
        _error("newline in string literal", source, start)
    if not match.group(3):
        _error("unterminated string", source, start)
    return STRING, value, match.end()


def tokenize(source):
    """Tokenize ``source`` into a list ending with an EOF token."""
    tokens = []
    append = tokens.append
    scan = _MASTER.match
    pos = 0
    line = 1
    line_start = 0  # offset just past the last newline seen
    while True:
        match = scan(source, pos)
        start = pos
        column = start - line_start + 1
        if match is None:
            if pos == len(source):
                append(Token(EOF, None, line, column))
                return tokens
            token_type, value, pos = _lex_rare(source, start)
            append(Token(token_type, value, line, column))
            if "\n" in source[start:pos]:  # line continuations in a string
                line += source.count("\n", start, pos)
                line_start = source.rfind("\n", start, pos) + 1
            continue
        kind = match.lastgroup
        text = match.group(kind)
        pos = match.end()
        if kind == "punct":
            append(Token(PUNCT, text, line, column))
        elif kind == "ident":
            append(Token(KEYWORD if text in KEYWORDS else IDENT, text, line, column))
        elif kind == "blank" or kind == "comment":
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rfind("\n") + 1
        elif kind == "int":
            append(Token(NUMBER, normalize_number(int(text)), line, column))
        elif kind == "string":
            append(Token(STRING, text[1:-1], line, column))
        elif kind == "float":
            append(Token(NUMBER, normalize_number(float(text)), line, column))
        elif kind == "hex":
            if len(text) == 2:
                _error("malformed hex literal", source, start + 2)
            append(Token(NUMBER, normalize_number(int(text, 16)), line, column))
        else:
            _error("unterminated comment", source, start)
