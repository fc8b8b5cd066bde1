"""Reference lexer: the character-at-a-time ``_Lexer`` the scanner replaced.

Kept verbatim (test-only) so ``test_front_half_identity.py`` can require
the single-pattern scanner in ``repro.jsvm.lexer`` to produce the same
``Token(type, value, line, column)`` stream, and the same message and
``line:column`` for every ``JSSyntaxError``, as this implementation.
"""

from repro.errors import JSSyntaxError
from repro.jsvm.tokens import KEYWORDS, PUNCTUATORS, Token, TokenType
from repro.jsvm.values import normalize_number

# Punctuators bucketed by first character, preserving the registry's
# longest-first order within each bucket (maximal munch).  The lexer
# probes one bucket (≤4 entries) instead of scanning all ~35 entries.
_PUNCT_BY_FIRST = {}
for _punct in PUNCTUATORS:
    _PUNCT_BY_FIRST.setdefault(_punct[0], []).append(_punct)
del _punct

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "\n": "",  # line continuation
}


class _Lexer(object):
    def __init__(self, source):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1
        self.tokens = []

    def error(self, message):
        raise JSSyntaxError(message, self.line, self.column)

    def peek(self, offset=0):
        index = self.pos + offset
        if index < len(self.source):
            return self.source[index]
        return ""

    def advance(self, count=1):
        source = self.source
        pos = self.pos
        end = pos + count
        if end > len(source):
            end = len(source)
        line = self.line
        column = self.column
        while pos < end:
            if source[pos] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            pos += 1
        self.pos = pos
        self.line = line
        self.column = column

    def at_end(self):
        return self.pos >= len(self.source)

    def run(self):
        while True:
            self.skip_trivia()
            if self.at_end():
                self.tokens.append(Token(TokenType.EOF, None, self.line, self.column))
                return self.tokens
            ch = self.peek()
            if ch.isdigit() or (ch == "." and self.peek(1).isdigit()):
                self.lex_number()
            elif ch.isalpha() or ch in "_$":
                self.lex_identifier()
            elif ch in "'\"":
                self.lex_string()
            else:
                self.lex_punctuator()

    def skip_trivia(self):
        while not self.at_end():
            ch = self.peek()
            if ch in " \t\r\n":
                self.advance()
            elif ch == "/" and self.peek(1) == "/":
                while not self.at_end() and self.peek() != "\n":
                    self.advance()
            elif ch == "/" and self.peek(1) == "*":
                start_line, start_col = self.line, self.column
                self.advance(2)
                while not (self.peek() == "*" and self.peek(1) == "/"):
                    if self.at_end():
                        raise JSSyntaxError("unterminated comment", start_line, start_col)
                    self.advance()
                self.advance(2)
            else:
                return

    def lex_number(self):
        line, column = self.line, self.column
        start = self.pos
        if self.peek() == "0" and self.peek(1) in ("x", "X"):
            self.advance(2)
            if not self._ishex(self.peek()):
                self.error("malformed hex literal")
            while self._ishex(self.peek()):
                self.advance()
            value = int(self.source[start : self.pos], 16)
            self.tokens.append(Token(TokenType.NUMBER, normalize_number(value), line, column))
            return
        is_float = False
        while self.peek().isdigit():
            self.advance()
        if self.peek() == "." and self.peek(1).isdigit():
            is_float = True
            self.advance()
            while self.peek().isdigit():
                self.advance()
        elif self.peek() == ".":
            # trailing dot, as in "1."
            is_float = True
            self.advance()
        if self.peek() in "eE":
            probe = 1
            if self.peek(1) in "+-":
                probe = 2
            if self.peek(probe).isdigit():
                is_float = True
                self.advance(probe)
                while self.peek().isdigit():
                    self.advance()
        text = self.source[start : self.pos]
        value = float(text) if is_float else int(text)
        self.tokens.append(Token(TokenType.NUMBER, normalize_number(value), line, column))

    @staticmethod
    def _ishex(ch):
        return ch != "" and ch in "0123456789abcdefABCDEF"

    def lex_identifier(self):
        line, column = self.line, self.column
        start = self.pos
        while not self.at_end() and (self.peek().isalnum() or self.peek() in "_$"):
            self.advance()
        text = self.source[start : self.pos]
        kind = TokenType.KEYWORD if text in KEYWORDS else TokenType.IDENT
        self.tokens.append(Token(kind, text, line, column))

    def lex_string(self):
        line, column = self.line, self.column
        quote = self.peek()
        self.advance()
        parts = []
        while True:
            if self.at_end():
                raise JSSyntaxError("unterminated string", line, column)
            ch = self.peek()
            if ch == quote:
                self.advance()
                break
            if ch == "\n":
                raise JSSyntaxError("newline in string literal", line, column)
            if ch == "\\":
                self.advance()
                esc = self.peek()
                if esc == "x":
                    self.advance()
                    code = self.source[self.pos : self.pos + 2]
                    if len(code) < 2 or not all(self._ishex(c) for c in code):
                        self.error("malformed \\x escape")
                    parts.append(chr(int(code, 16)))
                    self.advance(2)
                elif esc == "u":
                    self.advance()
                    code = self.source[self.pos : self.pos + 4]
                    if len(code) < 4 or not all(self._ishex(c) for c in code):
                        self.error("malformed \\u escape")
                    parts.append(chr(int(code, 16)))
                    self.advance(4)
                elif esc in _ESCAPES:
                    parts.append(_ESCAPES[esc])
                    self.advance()
                else:
                    parts.append(esc)
                    self.advance()
            else:
                parts.append(ch)
                self.advance()
        self.tokens.append(Token(TokenType.STRING, "".join(parts), line, column))

    def lex_punctuator(self):
        line, column = self.line, self.column
        candidates = _PUNCT_BY_FIRST.get(self.source[self.pos])
        if candidates is not None:
            for punct in candidates:
                if self.source.startswith(punct, self.pos):
                    self.advance(len(punct))
                    self.tokens.append(Token(TokenType.PUNCT, punct, line, column))
                    return
        self.error("unexpected character %r" % self.peek())


def tokenize(source):
    """Tokenize ``source`` into a list ending with an EOF token."""
    return _Lexer(source).run()
