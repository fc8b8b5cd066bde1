"""Exception hierarchy shared across the whole VM and JIT."""


class ReproError(Exception):
    """Base class for every error raised by this package."""


class JSSyntaxError(ReproError):
    """Raised by the lexer or parser on malformed source code."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "%s (line %d, column %d)" % (message, line, column or 0)
        super().__init__(message)


class JSTypeError(ReproError):
    """Raised at runtime when a value is used against its type contract."""


class JSReferenceError(ReproError):
    """Raised at runtime when an undeclared variable is referenced."""


class JSRangeError(ReproError):
    """Raised at runtime for invalid numeric ranges (e.g. bad array length)."""


class CompilerError(ReproError):
    """Internal error in the bytecode compiler or the JIT pipeline.

    A ``CompilerError`` always indicates a bug in this package, never in
    the guest program.
    """


class NotCompilable(ReproError):
    """The JIT cannot compile this function; it must stay interpreted.

    This is a *policy* signal, not a bug: e.g. functions that close over
    enclosing locals are interpreter-only in this reproduction (see
    DESIGN.md, "Honest limits").
    """


class OwnerDropped(ReproError):
    """A part was used after the object that owns it was freed.

    Ownership runs one way (``Engine`` → ``Interpreter`` → ``Runtime``)
    and the pointers back up are non-owning (docs/PERF.md, "Memory and
    lifetime").  An interpreter kept after its engine was dropped has
    lost its JIT and its ledger: running it raises this, naming the
    dropped owner, rather than quietly interpreting on another tier.
    """

    def __init__(self, owner, part):
        self.owner = owner
        super().__init__(
            "the %s that owned this %s has been dropped; keep a reference to it "
            "for as long as the %s runs" % (owner, part, part)
        )
