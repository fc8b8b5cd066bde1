"""Recursive-descent parser for the JavaScript subset.

The grammar covers everything the workload suites need: functions
(declarations and expressions, including closures), ``var``/``let``,
``if``/``else``, ``while``, ``do``/``while``, 3-clause ``for``,
``break``/``continue``/``return``, the full C-like expression grammar
(assignment through primary, including ``?:``, short-circuit logic,
bitwise and shift operators, ``typeof``, ``new``, ``this``, update
expressions), array and object literals, calls and member accesses.

Statement-level automatic semicolon insertion is supported in the
common cases (end of line / before ``}`` / at EOF).
"""

from repro.errors import JSSyntaxError
from repro.jsvm import ast_nodes as ast
from repro.jsvm.lexer import tokenize
from repro.jsvm.tokens import TokenType

# Binary operator precedence levels, loosest first.  Logical operators
# are handled separately because they short-circuit.
_BINARY_LEVELS = [
    ["|"],
    ["^"],
    ["&"],
    ["==", "!=", "===", "!=="],
    ["<", ">", "<=", ">=", "instanceof", "in"],
    ["<<", ">>", ">>>"],
    ["+", "-"],
    ["*", "/", "%"],
]

_BINARY_PRECEDENCE = {
    operator: level for level, operators in enumerate(_BINARY_LEVELS) for operator in operators
}

_ASSIGNMENT_OPS = {
    "=": "",
    "+=": "+",
    "-=": "-",
    "*=": "*",
    "/=": "/",
    "%=": "%",
    "&=": "&",
    "|=": "|",
    "^=": "^",
    "<<=": "<<",
    ">>=": ">>",
    ">>>=": ">>>",
}


class Parser(object):
    """Parses a token stream into an AST ``Program``."""

    def __init__(self, source):
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset=0):
        tokens = self.tokens
        index = self.pos + offset
        if index >= len(tokens):
            index = len(tokens) - 1
        return tokens[index]

    def advance(self):
        token = self.tokens[self.pos]
        if token.type != TokenType.EOF:
            self.pos += 1
        return token

    def error(self, message, token=None):
        token = token or self.peek()
        raise JSSyntaxError(message, token.line, token.column)

    def expect_punct(self, value):
        token = self.peek()
        if not token.is_punct(value):
            if token.type == TokenType.EOF:
                self.error("expected %r before end of input" % (value,))
            self.error("expected %r, found %r" % (value, token.value))
        return self.advance()

    def expect_keyword(self, value):
        token = self.peek()
        if not token.is_keyword(value):
            self.error("expected keyword %r, found %r" % (value, token.value))
        return self.advance()

    def expect_ident(self):
        token = self.peek()
        if token.type != TokenType.IDENT:
            self.error("expected identifier, found %r" % (token.value,))
        return self.advance()

    def match_punct(self, value):
        if self.peek().is_punct(value):
            self.advance()
            return True
        return False

    def consume_semicolon(self):
        """Require ``;`` or allow automatic insertion before ``}``/EOF/newline."""
        token = self.peek()
        if token.is_punct(";"):
            self.advance()
            return
        if token.is_punct("}") or token.type == TokenType.EOF:
            return
        previous = self.tokens[self.pos - 1] if self.pos > 0 else None
        if previous is not None and token.line > previous.line:
            return
        self.error("expected ';' after statement")

    # -- top level ---------------------------------------------------------

    def parse_program(self):
        body = []
        while self.peek().type != TokenType.EOF:
            body.append(self.parse_statement())
        return ast.Program(body, line=1)

    # -- statements ----------------------------------------------------------

    def parse_statement(self):
        token = self.peek()
        if token.type == TokenType.KEYWORD:
            keyword = token.value
            if keyword in ("var", "let", "const"):
                return self.parse_var()
            if keyword == "function":
                return self.parse_function_decl()
            if keyword == "if":
                return self.parse_if()
            if keyword == "while":
                return self.parse_while()
            if keyword == "do":
                return self.parse_do_while()
            if keyword == "for":
                return self.parse_for()
            if keyword == "return":
                return self.parse_return()
            if keyword == "break":
                self.advance()
                self.consume_semicolon()
                return ast.Break(line=token.line)
            if keyword == "continue":
                self.advance()
                self.consume_semicolon()
                return ast.Continue(line=token.line)
        if token.is_punct("{"):
            return self.parse_block()
        if token.is_punct(";"):
            self.advance()
            return ast.Empty(line=token.line)
        expression = self.parse_expression()
        self.consume_semicolon()
        return ast.ExpressionStatement(expression, line=token.line)

    def parse_var(self):
        token = self.advance()  # var / let / const
        declarations = []
        while True:
            name = self.expect_ident().value
            init = None
            if self.match_punct("="):
                init = self.parse_assignment()
            declarations.append((name, init))
            if not self.match_punct(","):
                break
        self.consume_semicolon()
        return ast.VarDecl(declarations, line=token.line)

    def parse_function_decl(self):
        token = self.expect_keyword("function")
        name = self.expect_ident().value
        params, body = self.parse_function_rest()
        return ast.FunctionDecl(name, params, body, line=token.line)

    def parse_function_rest(self):
        self.expect_punct("(")
        params = []
        if not self.peek().is_punct(")"):
            while True:
                params.append(self.expect_ident().value)
                if not self.match_punct(","):
                    break
        self.expect_punct(")")
        body = self.parse_block()
        return params, body.body

    def parse_block(self):
        token = self.expect_punct("{")
        body = []
        while not self.peek().is_punct("}"):
            if self.peek().type == TokenType.EOF:
                # Blame the unmatched opener, not end-of-file: in a
                # long script the opening brace is the actionable
                # position.
                self.error("unbalanced braces: block opened here is never closed", token)
            body.append(self.parse_statement())
        self.expect_punct("}")
        return ast.Block(body, line=token.line)

    def parse_if(self):
        token = self.expect_keyword("if")
        self.expect_punct("(")
        test = self.parse_expression()
        self.expect_punct(")")
        consequent = self.parse_statement()
        alternate = None
        if self.peek().is_keyword("else"):
            self.advance()
            alternate = self.parse_statement()
        return ast.If(test, consequent, alternate, line=token.line)

    def parse_while(self):
        token = self.expect_keyword("while")
        self.expect_punct("(")
        test = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return ast.While(test, body, line=token.line)

    def parse_do_while(self):
        token = self.expect_keyword("do")
        body = self.parse_statement()
        self.expect_keyword("while")
        self.expect_punct("(")
        test = self.parse_expression()
        self.expect_punct(")")
        self.consume_semicolon()
        return ast.DoWhile(body, test, line=token.line)

    def parse_for(self):
        token = self.expect_keyword("for")
        self.expect_punct("(")
        init = None
        if not self.peek().is_punct(";"):
            if self.peek().type == TokenType.KEYWORD and self.peek().value in ("var", "let"):
                init = self.parse_for_var()
            else:
                init = ast.ExpressionStatement(self.parse_expression(), line=self.peek().line)
                self.expect_punct(";")
        else:
            self.expect_punct(";")
        test = None
        if not self.peek().is_punct(";"):
            test = self.parse_expression()
        self.expect_punct(";")
        update = None
        if not self.peek().is_punct(")"):
            update = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return ast.For(init, test, update, body, line=token.line)

    def parse_for_var(self):
        """``var`` clause of a for statement (no trailing semicolon logic)."""
        token = self.advance()
        declarations = []
        while True:
            name = self.expect_ident().value
            init = None
            if self.match_punct("="):
                init = self.parse_assignment()
            declarations.append((name, init))
            if not self.match_punct(","):
                break
        self.expect_punct(";")
        return ast.VarDecl(declarations, line=token.line)

    def parse_return(self):
        token = self.expect_keyword("return")
        argument = None
        nxt = self.peek()
        ends_statement = (
            nxt.is_punct(";") or nxt.is_punct("}") or nxt.type == TokenType.EOF or nxt.line > token.line
        )
        if not ends_statement:
            argument = self.parse_expression()
        self.consume_semicolon()
        return ast.Return(argument, line=token.line)

    # -- expressions ---------------------------------------------------------

    def parse_expression(self):
        first = self.parse_assignment()
        if not self.peek().is_punct(","):
            return first
        expressions = [first]
        while self.match_punct(","):
            expressions.append(self.parse_assignment())
        return ast.Sequence(expressions, line=first.line)

    def parse_assignment(self):
        left = self.parse_conditional()
        token = self.peek()
        if token.type == TokenType.PUNCT and token.value in _ASSIGNMENT_OPS:
            if not isinstance(left, (ast.Identifier, ast.Member)):
                self.error("invalid assignment target")
            self.advance()
            value = self.parse_assignment()
            return ast.Assignment(_ASSIGNMENT_OPS[token.value], left, value, line=token.line)
        return left

    def parse_conditional(self):
        test = self.parse_logical_or()
        if self.peek().is_punct("?"):
            token = self.advance()
            consequent = self.parse_assignment()
            self.expect_punct(":")
            alternate = self.parse_assignment()
            return ast.Conditional(test, consequent, alternate, line=token.line)
        return test

    def parse_logical_or(self):
        left = self.parse_logical_and()
        while self.peek().is_punct("||"):
            token = self.advance()
            right = self.parse_logical_and()
            left = ast.Logical("||", left, right, line=token.line)
        return left

    def parse_logical_and(self):
        left = self.parse_binary(0)
        while self.peek().is_punct("&&"):
            token = self.advance()
            right = self.parse_binary(0)
            left = ast.Logical("&&", left, right, line=token.line)
        return left

    def parse_binary(self, level):
        """Precedence climbing: operators at ``level`` or tighter, left-associative."""
        left = self.parse_unary()
        while True:
            token = self.peek()
            if token.type != TokenType.PUNCT and token.type != TokenType.KEYWORD:
                return left
            found = _BINARY_PRECEDENCE.get(token.value)
            if found is None or found < level:
                return left
            self.advance()
            right = self.parse_binary(found + 1)
            left = ast.Binary(token.value, left, right, line=token.line)

    def parse_unary(self):
        token = self.peek()
        if token.type == TokenType.PUNCT and token.value in ("-", "+", "!", "~"):
            self.advance()
            return ast.Unary(token.value, self.parse_unary(), line=token.line)
        if token.is_keyword("typeof") or token.is_keyword("void") or token.is_keyword("delete"):
            self.advance()
            return ast.Unary(token.value, self.parse_unary(), line=token.line)
        if token.is_punct("++") or token.is_punct("--"):
            self.advance()
            target = self.parse_unary()
            if not isinstance(target, (ast.Identifier, ast.Member)):
                self.error("invalid update target")
            return ast.Update(token.value, target, prefix=True, line=token.line)
        return self.parse_postfix()

    def parse_postfix(self):
        expression = self.parse_call_member()
        token = self.peek()
        if (token.is_punct("++") or token.is_punct("--")) and token.line == self.tokens[self.pos - 1].line:
            if not isinstance(expression, (ast.Identifier, ast.Member)):
                self.error("invalid update target")
            self.advance()
            return ast.Update(token.value, expression, prefix=False, line=token.line)
        return expression

    def parse_call_member(self):
        if self.peek().is_keyword("new"):
            token = self.advance()
            callee = self.parse_member_only(self.parse_primary())
            arguments = []
            if self.peek().is_punct("("):
                arguments = self.parse_arguments()
            expression = ast.New(callee, arguments, line=token.line)
        else:
            expression = self.parse_primary()
        while True:
            token = self.peek()
            if token.is_punct("("):
                arguments = self.parse_arguments()
                expression = ast.Call(expression, arguments, line=token.line)
            elif token.is_punct("."):
                self.advance()
                name_token = self.peek()
                if name_token.type not in (TokenType.IDENT, TokenType.KEYWORD):
                    self.error("expected property name")
                self.advance()
                expression = ast.Member(expression, name_token.value, computed=False, line=token.line)
            elif token.is_punct("["):
                self.advance()
                index = self.parse_expression()
                self.expect_punct("]")
                expression = ast.Member(expression, index, computed=True, line=token.line)
            else:
                return expression

    def parse_member_only(self, expression):
        """Member accesses that bind tighter than ``new``'s argument list."""
        while True:
            token = self.peek()
            if token.is_punct("."):
                self.advance()
                name_token = self.expect_ident()
                expression = ast.Member(expression, name_token.value, computed=False, line=token.line)
            elif token.is_punct("["):
                self.advance()
                index = self.parse_expression()
                self.expect_punct("]")
                expression = ast.Member(expression, index, computed=True, line=token.line)
            else:
                return expression

    def parse_arguments(self):
        self.expect_punct("(")
        arguments = []
        if not self.peek().is_punct(")"):
            while True:
                arguments.append(self.parse_assignment())
                if not self.match_punct(","):
                    break
        self.expect_punct(")")
        return arguments

    def parse_primary(self):
        token = self.peek()
        if token.type == TokenType.NUMBER:
            self.advance()
            return ast.NumberLiteral(token.value, line=token.line)
        if token.type == TokenType.STRING:
            self.advance()
            return ast.StringLiteral(token.value, line=token.line)
        if token.type == TokenType.IDENT:
            self.advance()
            return ast.Identifier(token.value, line=token.line)
        if token.type == TokenType.KEYWORD:
            keyword = token.value
            if keyword == "true":
                self.advance()
                return ast.BooleanLiteral(True, line=token.line)
            if keyword == "false":
                self.advance()
                return ast.BooleanLiteral(False, line=token.line)
            if keyword == "null":
                self.advance()
                return ast.NullLiteral(line=token.line)
            if keyword == "undefined":
                self.advance()
                return ast.UndefinedLiteral(line=token.line)
            if keyword == "this":
                self.advance()
                return ast.ThisExpression(line=token.line)
            if keyword == "function":
                self.advance()
                name = None
                if self.peek().type == TokenType.IDENT:
                    name = self.advance().value
                params, body = self.parse_function_rest()
                return ast.FunctionExpression(name, params, body, line=token.line)
        if token.is_punct("("):
            self.advance()
            expression = self.parse_expression()
            self.expect_punct(")")
            return expression
        if token.is_punct("["):
            return self.parse_array_literal()
        if token.is_punct("{"):
            return self.parse_object_literal()
        self.error("unexpected token %r" % (token.value,))

    def parse_array_literal(self):
        token = self.expect_punct("[")
        elements = []
        while not self.peek().is_punct("]"):
            elements.append(self.parse_assignment())
            if not self.match_punct(","):
                break
        self.expect_punct("]")
        return ast.ArrayLiteral(elements, line=token.line)

    def parse_object_literal(self):
        token = self.expect_punct("{")
        properties = []
        while not self.peek().is_punct("}"):
            key_token = self.peek()
            if key_token.type in (TokenType.IDENT, TokenType.KEYWORD):
                key = key_token.value
                self.advance()
            elif key_token.type == TokenType.STRING:
                key = key_token.value
                self.advance()
            elif key_token.type == TokenType.NUMBER:
                from repro.jsvm.values import format_number

                key = format_number(key_token.value)
                self.advance()
            else:
                self.error("invalid object literal key")
            self.expect_punct(":")
            properties.append((key, self.parse_assignment()))
            if not self.match_punct(","):
                break
        self.expect_punct("}")
        return ast.ObjectLiteral(properties, line=token.line)


def parse(source):
    """Parse JavaScript-subset ``source`` into an :class:`ast.Program`."""
    return Parser(source).parse_program()
