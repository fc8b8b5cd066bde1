"""AST → stack bytecode compiler.

Two passes per function:

1. *Scope analysis* builds a tree of :class:`FunctionScope` records,
   hoists ``var`` and function declarations, and computes which locals
   are captured by nested closures (cell variables) and which names a
   closure imports from enclosing functions (free variables).
2. *Code generation* walks the AST emitting stack bytecode, resolving
   each identifier to an argument slot, local slot, cell, free
   variable, or global.

Calls use an explicit ``this`` slot on the stack (``CALL`` pops
``[callee, this, args...]``), which keeps method calls and plain calls
uniform for both the interpreter and the MIR builder.
"""

from repro.errors import CompilerError, JSSyntaxError
from repro.jsvm import ast_nodes as ast
from repro.jsvm.bytecode import CodeIds, CodeObject, Op
from repro.jsvm.parser import parse
from repro.jsvm.values import UNDEFINED

_UNARY_OPCODES = {
    "-": Op.NEG,
    "+": Op.POS,
    "!": Op.NOT,
    "~": Op.BITNOT,
    "typeof": Op.TYPEOF,
}

_BINARY_OPCODES = {
    "+": Op.ADD,
    "-": Op.SUB,
    "*": Op.MUL,
    "/": Op.DIV,
    "%": Op.MOD,
    "&": Op.BITAND,
    "|": Op.BITOR,
    "^": Op.BITXOR,
    "<<": Op.SHL,
    ">>": Op.SHR,
    ">>>": Op.USHR,
    "==": Op.EQ,
    "!=": Op.NE,
    "===": Op.STRICTEQ,
    "!==": Op.STRICTNE,
    "<": Op.LT,
    "<=": Op.LE,
    ">": Op.GT,
    ">=": Op.GE,
    "in": Op.IN,
}


class FunctionScope(object):
    """Scope-analysis record for one function (or the top level)."""

    def __init__(self, name, params, parent):
        self.name = name
        self.params = list(params)
        self.parent = parent
        self.declared = list(params)  # params + hoisted vars + fn decls
        self.referenced = set()
        self.children = []
        self.cells = set()  # locals captured by nested functions
        self.frees = set()  # names imported from enclosing functions
        self.function_decls = []  # hoisted FunctionDecl nodes
        self.self_name = None  # named function expression self-binding
        self.is_toplevel = parent is None
        if parent is not None:
            parent.children.append(self)

    def declare(self, name):
        if name not in self.declared:
            self.declared.append(name)

    def ancestors_declare(self, name):
        scope = self.parent
        while scope is not None and not scope.is_toplevel:
            if name in scope.declared:
                return True
            scope = scope.parent
        return False


def _collect(node, scope):
    """Scope-analysis walk: record declarations and references."""
    if node is None:
        return
    if isinstance(node, list):
        for item in node:
            _collect(item, scope)
        return
    node_type = type(node)
    if node_type is ast.Identifier:
        scope.referenced.add(node.name)
        return
    if node_type is ast.VarDecl:
        for name, init in node.declarations:
            scope.declare(name)
            _collect(init, scope)
        return
    if node_type is ast.FunctionDecl:
        scope.declare(node.name)
        scope.function_decls.append(node)
        child = FunctionScope(node.name, node.params, scope)
        node.scope = child
        _collect_body(node.body, child)
        return
    if node_type is ast.FunctionExpression:
        child = FunctionScope(node.name or "<anonymous>", node.params, scope)
        if node.name:
            # A named function expression can call itself by name.
            child.declare(node.name)
            child.self_name = node.name
        node.scope = child
        _collect_body(node.body, child)
        return
    if node_type is ast.Member:
        _collect(node.object, scope)
        if node.computed:
            _collect(node.property, scope)
        return
    if node_type is ast.ObjectLiteral:
        for _key, value in node.properties:
            _collect(value, scope)
        return
    for field in node._fields():
        value = getattr(node, field)
        if isinstance(value, (ast.Node, list)):
            _collect(value, scope)


def _collect_body(body, scope):
    for statement in body:
        _collect(statement, scope)


def _resolve_captures(scope):
    """Post-order pass computing cell and free variable sets."""
    needed_from_children = set()
    for child in scope.children:
        needed_from_children |= _resolve_captures(child)
    for name in needed_from_children:
        if name in scope.declared and not scope.is_toplevel:
            scope.cells.add(name)
    unresolved = set()
    for name in scope.referenced | needed_from_children:
        if name in scope.declared:
            continue
        if not scope.is_toplevel and scope.ancestors_declare(name):
            scope.frees.add(name)
        unresolved.add(name)
    # Nothing below looks upward again.  Without the back links the scope
    # tree is no cycle, so scopes and the function bodies they hoist are
    # freed with the AST instead of waiting for the cycle collector.
    for child in scope.children:
        child.parent = None
    return unresolved


class _Label(object):
    """A forward-patchable jump target."""

    __slots__ = ("position",)

    def __init__(self):
        self.position = None


class _FunctionCompiler(object):
    """Emits bytecode for a single function scope."""

    def __init__(self, scope, body, ids):
        self.scope = scope
        self.body = body
        self.ids = ids
        self.code = CodeObject(scope.name, scope.params, ids.issue())
        self.code.cell_names = sorted(scope.cells)
        self.code.free_names = sorted(scope.frees)
        if not scope.is_toplevel:
            for name in scope.declared:
                if name not in scope.params and name not in scope.cells:
                    self.code.local_names.append(name)
        self.pending_jumps = []  # (instruction index, label)
        self.loop_stack = []  # (break label, continue label)
        self.scratch_count = 0

    # -- emission helpers ----------------------------------------------------

    def emit(self, op, arg=None, line=0):
        return self.code.emit(op, arg, line)

    def emit_jump(self, op, label, line=0):
        index = self.emit(op, None, line)
        self.pending_jumps.append((index, label))
        return index

    def bind(self, label):
        label.position = len(self.code.instructions)

    def patch_jumps(self):
        for index, label in self.pending_jumps:
            if label.position is None:
                raise CompilerError("unbound label in %s" % self.code.name)
            self.code.instructions[index].arg = label.position

    def scratch_slot(self):
        """Allocate a hidden local used for member-assignment shuffles."""
        name = "%scratch" + str(self.scratch_count)
        self.scratch_count += 1
        self.code.local_names.append(name)
        return len(self.code.local_names) - 1

    def emit_const(self, value, line=0):
        self.emit(Op.CONST, self.code.const_index(value), line)

    # -- name resolution -------------------------------------------------------

    def emit_load(self, name, line=0):
        scope, code = self.scope, self.code
        if scope.is_toplevel:
            self.emit(Op.GETGLOBAL, code.name_index(name), line)
        elif name in scope.cells:
            self.emit(Op.GETCELL, code.cell_names.index(name), line)
        elif name in scope.params:
            self.emit(Op.GETARG, scope.params.index(name), line)
        elif name in code.local_names:
            self.emit(Op.GETLOCAL, code.local_names.index(name), line)
        elif name in scope.frees:
            self.emit(Op.GETFREE, code.free_names.index(name), line)
        else:
            self.emit(Op.GETGLOBAL, code.name_index(name), line)

    def emit_store(self, name, line=0):
        """Pop the stack top into ``name``."""
        scope, code = self.scope, self.code
        if scope.is_toplevel:
            self.emit(Op.SETGLOBAL, code.name_index(name), line)
        elif name in scope.cells:
            self.emit(Op.SETCELL, code.cell_names.index(name), line)
        elif name in scope.params:
            self.emit(Op.SETARG, scope.params.index(name), line)
        elif name in code.local_names:
            self.emit(Op.SETLOCAL, code.local_names.index(name), line)
        elif name in scope.frees:
            self.emit(Op.SETFREE, code.free_names.index(name), line)
        else:
            self.emit(Op.SETGLOBAL, code.name_index(name), line)

    # -- driver -----------------------------------------------------------------

    def compile(self):
        # Named function expressions can refer to themselves by name.
        if self.scope.self_name is not None:
            self.code.self_name = self.scope.self_name
            self.emit(Op.SELF)
            self.emit_store(self.scope.self_name)
        # Hoisted function declarations bind first, so forward calls work.
        for decl in self.scope.function_decls:
            child_code = compile_function(decl.scope, decl.body, self.ids)
            self.emit(Op.CLOSURE, self.code.const_index(child_code), decl.line)
            self.emit_store(decl.name, decl.line)
        for statement in self.body:
            self.compile_statement(statement)
        self.emit(Op.RETURN_UNDEF)
        self.patch_jumps()
        self.code.validate()
        self.code.seal()
        return self.code

    # -- statements ----------------------------------------------------------

    def compile_statement(self, node):
        node_type = type(node)
        if node_type is ast.ExpressionStatement:
            self.compile_expression(node.expression)
            self.emit(Op.POP, None, node.line)
        elif node_type is ast.VarDecl:
            for name, init in node.declarations:
                if init is not None:
                    self.compile_expression(init)
                    self.emit_store(name, node.line)
        elif node_type is ast.FunctionDecl:
            pass  # hoisted in compile()
        elif node_type is ast.Block:
            for statement in node.body:
                self.compile_statement(statement)
        elif node_type is ast.If:
            self.compile_if(node)
        elif node_type is ast.While:
            self.compile_while(node)
        elif node_type is ast.DoWhile:
            self.compile_do_while(node)
        elif node_type is ast.For:
            self.compile_for(node)
        elif node_type is ast.Return:
            if node.argument is None:
                self.emit(Op.RETURN_UNDEF, None, node.line)
            else:
                self.compile_expression(node.argument)
                self.emit(Op.RETURN, None, node.line)
        elif node_type is ast.Break:
            if not self.loop_stack:
                raise CompilerError("break outside loop")
            self.emit_jump(Op.JUMP, self.loop_stack[-1][0], node.line)
        elif node_type is ast.Continue:
            if not self.loop_stack:
                raise CompilerError("continue outside loop")
            self.emit_jump(Op.JUMP, self.loop_stack[-1][1], node.line)
        elif node_type is ast.Empty:
            pass
        else:
            raise CompilerError("cannot compile statement %r" % node)

    def compile_if(self, node):
        else_label = _Label()
        self.compile_expression(node.test)
        self.emit_jump(Op.IFFALSE, else_label, node.line)
        self.compile_statement(node.consequent)
        if node.alternate is not None:
            end_label = _Label()
            self.emit_jump(Op.JUMP, end_label)
            self.bind(else_label)
            self.compile_statement(node.alternate)
            self.bind(end_label)
        else:
            self.bind(else_label)

    def compile_while(self, node):
        start_label, end_label = _Label(), _Label()
        self.bind(start_label)
        self.compile_expression(node.test)
        self.emit_jump(Op.IFFALSE, end_label, node.line)
        self.loop_stack.append((end_label, start_label))
        self.compile_statement(node.body)
        self.loop_stack.pop()
        self.emit_jump(Op.JUMP, start_label)
        self.bind(end_label)

    def compile_do_while(self, node):
        start_label, continue_label, end_label = _Label(), _Label(), _Label()
        self.bind(start_label)
        self.loop_stack.append((end_label, continue_label))
        self.compile_statement(node.body)
        self.loop_stack.pop()
        self.bind(continue_label)
        self.compile_expression(node.test)
        self.emit_jump(Op.IFTRUE, start_label, node.line)
        self.bind(end_label)

    def compile_for(self, node):
        start_label, continue_label, end_label = _Label(), _Label(), _Label()
        if node.init is not None:
            self.compile_statement(node.init)
        self.bind(start_label)
        if node.test is not None:
            self.compile_expression(node.test)
            self.emit_jump(Op.IFFALSE, end_label, node.line)
        self.loop_stack.append((end_label, continue_label))
        self.compile_statement(node.body)
        self.loop_stack.pop()
        self.bind(continue_label)
        if node.update is not None:
            self.compile_expression(node.update)
            self.emit(Op.POP)
        self.emit_jump(Op.JUMP, start_label)
        self.bind(end_label)

    # -- expressions -----------------------------------------------------------

    def compile_expression(self, node):
        node_type = type(node)
        if node_type is ast.NumberLiteral or node_type is ast.StringLiteral:
            self.emit_const(node.value, node.line)
        elif node_type is ast.BooleanLiteral:
            self.emit_const(node.value, node.line)
        elif node_type is ast.NullLiteral:
            from repro.jsvm.values import NULL

            self.emit_const(NULL, node.line)
        elif node_type is ast.UndefinedLiteral:
            self.emit(Op.UNDEF, None, node.line)
        elif node_type is ast.ThisExpression:
            self.code.uses_this = True
            self.emit(Op.GETTHIS, None, node.line)
        elif node_type is ast.Identifier:
            self.emit_load(node.name, node.line)
        elif node_type is ast.ArrayLiteral:
            for element in node.elements:
                self.compile_expression(element)
            self.emit(Op.NEWARRAY, len(node.elements), node.line)
        elif node_type is ast.ObjectLiteral:
            for key, value in node.properties:
                self.emit_const(key, node.line)
                self.compile_expression(value)
            self.emit(Op.NEWOBJECT, len(node.properties), node.line)
        elif node_type is ast.FunctionExpression:
            child_code = compile_function(node.scope, node.body, self.ids)
            self.emit(Op.CLOSURE, self.code.const_index(child_code), node.line)
        elif node_type is ast.Unary:
            self.compile_unary(node)
        elif node_type is ast.Binary:
            self.compile_expression(node.left)
            self.compile_expression(node.right)
            opcode = _BINARY_OPCODES.get(node.operator)
            if opcode is None:
                raise CompilerError("unsupported binary operator %r" % node.operator)
            self.emit(opcode, None, node.line)
        elif node_type is ast.Logical:
            self.compile_logical(node)
        elif node_type is ast.Conditional:
            self.compile_conditional(node)
        elif node_type is ast.Assignment:
            self.compile_assignment(node)
        elif node_type is ast.Update:
            self.compile_update(node)
        elif node_type is ast.Call:
            self.compile_call(node)
        elif node_type is ast.New:
            self.compile_expression(node.callee)
            for argument in node.arguments:
                self.compile_expression(argument)
            self.emit(Op.NEW, len(node.arguments), node.line)
        elif node_type is ast.Member:
            self.compile_member_load(node)
        elif node_type is ast.Sequence:
            for index, expression in enumerate(node.expressions):
                self.compile_expression(expression)
                if index < len(node.expressions) - 1:
                    self.emit(Op.POP)
        else:
            raise CompilerError("cannot compile expression %r" % node)

    def compile_unary(self, node):
        if node.operator == "void":
            self.compile_expression(node.operand)
            self.emit(Op.POP, None, node.line)
            self.emit(Op.UNDEF, None, node.line)
            return
        if node.operator == "delete":
            operand = node.operand
            if isinstance(operand, ast.Member) and not operand.computed:
                self.compile_expression(operand.object)
                self.emit(Op.DELPROP, self.code.name_index(operand.property), node.line)
            else:
                # `delete identifier` / computed deletes: evaluate for
                # effects and yield true (non-strict JS semantics for
                # non-configurable cases are out of the subset's scope).
                self.compile_expression(operand)
                self.emit(Op.POP, None, node.line)
                self.emit(Op.CONST, self.code.const_index(True), node.line)
            return
        self.compile_expression(node.operand)
        self.emit(_UNARY_OPCODES[node.operator], None, node.line)

    def compile_logical(self, node):
        end_label = _Label()
        self.compile_expression(node.left)
        self.emit(Op.DUP, None, node.line)
        if node.operator == "&&":
            self.emit_jump(Op.IFFALSE, end_label, node.line)
        else:
            self.emit_jump(Op.IFTRUE, end_label, node.line)
        self.emit(Op.POP)
        self.compile_expression(node.right)
        self.bind(end_label)

    def compile_conditional(self, node):
        else_label, end_label = _Label(), _Label()
        self.compile_expression(node.test)
        self.emit_jump(Op.IFFALSE, else_label, node.line)
        self.compile_expression(node.consequent)
        self.emit_jump(Op.JUMP, end_label)
        self.bind(else_label)
        self.compile_expression(node.alternate)
        self.bind(end_label)

    def compile_member_load(self, node):
        self.compile_expression(node.object)
        if node.computed:
            self.compile_expression(node.property)
            self.emit(Op.GETELEM, None, node.line)
        else:
            self.emit(Op.GETPROP, self.code.name_index(node.property), node.line)

    def compile_assignment(self, node):
        target = node.target
        if isinstance(target, ast.Identifier):
            if node.operator:
                self.emit_load(target.name, node.line)
                self.compile_expression(node.value)
                self.emit(_BINARY_OPCODES[node.operator], None, node.line)
            else:
                self.compile_expression(node.value)
            self.emit(Op.DUP, None, node.line)
            self.emit_store(target.name, node.line)
            return
        # Member targets.
        if not node.operator:
            self.compile_expression(target.object)
            if target.computed:
                self.compile_expression(target.property)
                self.compile_expression(node.value)
                self.emit(Op.SETELEM, None, node.line)
            else:
                self.compile_expression(node.value)
                self.emit(Op.SETPROP, self.code.name_index(target.property), node.line)
            return
        # Compound member assignment uses scratch locals to re-read the
        # same object (and index) without re-evaluating side effects.
        obj_slot = self.scratch_slot()
        self.compile_expression(target.object)
        self.emit(Op.SETLOCAL, obj_slot, node.line)
        if target.computed:
            index_slot = self.scratch_slot()
            self.compile_expression(target.property)
            self.emit(Op.SETLOCAL, index_slot)
            self.emit(Op.GETLOCAL, obj_slot)
            self.emit(Op.GETLOCAL, index_slot)
            self.emit(Op.GETELEM)
            self.compile_expression(node.value)
            self.emit(_BINARY_OPCODES[node.operator], None, node.line)
            value_slot = self.scratch_slot()
            self.emit(Op.SETLOCAL, value_slot)
            self.emit(Op.GETLOCAL, obj_slot)
            self.emit(Op.GETLOCAL, index_slot)
            self.emit(Op.GETLOCAL, value_slot)
            self.emit(Op.SETELEM)
        else:
            name_idx = self.code.name_index(target.property)
            self.emit(Op.GETLOCAL, obj_slot)
            self.emit(Op.GETPROP, name_idx)
            self.compile_expression(node.value)
            self.emit(_BINARY_OPCODES[node.operator], None, node.line)
            value_slot = self.scratch_slot()
            self.emit(Op.SETLOCAL, value_slot)
            self.emit(Op.GETLOCAL, obj_slot)
            self.emit(Op.GETLOCAL, value_slot)
            self.emit(Op.SETPROP, name_idx)

    def compile_update(self, node):
        opcode = Op.ADD if node.operator == "++" else Op.SUB
        target = node.target
        if isinstance(target, ast.Identifier):
            self.emit_load(target.name, node.line)
            self.emit(Op.TONUM, None, node.line)
            if node.prefix:
                self.emit_const(1)
                self.emit(opcode)
                self.emit(Op.DUP)
                self.emit_store(target.name, node.line)
            else:
                self.emit(Op.DUP)
                self.emit_const(1)
                self.emit(opcode)
                self.emit_store(target.name, node.line)
            return
        obj_slot = self.scratch_slot()
        self.compile_expression(target.object)
        self.emit(Op.SETLOCAL, obj_slot, node.line)
        index_slot = None
        if target.computed:
            index_slot = self.scratch_slot()
            self.compile_expression(target.property)
            self.emit(Op.SETLOCAL, index_slot)

        def load_target():
            self.emit(Op.GETLOCAL, obj_slot)
            if target.computed:
                self.emit(Op.GETLOCAL, index_slot)
                self.emit(Op.GETELEM)
            else:
                self.emit(Op.GETPROP, self.code.name_index(target.property))

        def store_from_slot(slot):
            self.emit(Op.GETLOCAL, obj_slot)
            if target.computed:
                self.emit(Op.GETLOCAL, index_slot)
                self.emit(Op.GETLOCAL, slot)
                self.emit(Op.SETELEM)
            else:
                self.emit(Op.GETLOCAL, slot)
                self.emit(Op.SETPROP, self.code.name_index(target.property))

        load_target()
        self.emit(Op.TONUM)
        value_slot = self.scratch_slot()
        if node.prefix:
            self.emit_const(1)
            self.emit(opcode)
            self.emit(Op.SETLOCAL, value_slot)
            store_from_slot(value_slot)  # SETELEM/SETPROP leave the value
        else:
            self.emit(Op.DUP)
            self.emit_const(1)
            self.emit(opcode)
            self.emit(Op.SETLOCAL, value_slot)
            store_from_slot(value_slot)
            self.emit(Op.POP)  # drop stored value, keep the old one

    def compile_call(self, node):
        callee = node.callee
        if isinstance(callee, ast.Member):
            # Method call: this = receiver object.
            obj_slot = self.scratch_slot()
            self.compile_expression(callee.object)
            self.emit(Op.SETLOCAL, obj_slot, node.line)
            self.emit(Op.GETLOCAL, obj_slot)
            if callee.computed:
                self.compile_expression(callee.property)
                self.emit(Op.GETELEM)
            else:
                self.emit(Op.GETPROP, self.code.name_index(callee.property))
            self.emit(Op.GETLOCAL, obj_slot)  # this
        else:
            self.compile_expression(callee)
            self.emit(Op.UNDEF)  # this = undefined for plain calls
        for argument in node.arguments:
            self.compile_expression(argument)
        self.emit(Op.CALL, len(node.arguments), node.line)


def compile_function(scope, body, ids):
    """Compile one analyzed :class:`FunctionScope` into a CodeObject."""
    return _FunctionCompiler(scope, body, ids).compile()


def compile_program(program, ids=None):
    """Compile a parsed :class:`ast.Program` into a top-level CodeObject,
    numbered by ``ids`` (a runtime's :class:`CodeIds`; None: a fresh one)."""
    toplevel = FunctionScope("<toplevel>", [], None)
    _collect_body(program.body, toplevel)
    _resolve_captures(toplevel)
    compiler = _FunctionCompiler(toplevel, program.body, ids or CodeIds())
    # The top level keeps declared names global, so nothing extra to do.
    code = compiler.compile()
    code.is_script = True
    return code


def compile_source(source, ids=None):
    """Parse and compile JavaScript-subset source text (ids: :func:`compile_program`).

    The parser and the compiler recurse once per level of nesting, so a
    source nested past the host's stack is a guest ``SyntaxError``, not
    a host ``RecursionError``.
    """
    try:
        return compile_program(parse(source), ids)
    except RecursionError:
        raise JSSyntaxError("too much nesting") from None
