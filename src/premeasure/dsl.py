"""Scenario description language: parser, compiler, canonical formatter.

Scenario files are line-oriented; ``#`` starts a comment running to the end
of the line, and newlines are insignificant inside brackets so matrices may
wrap.  Keywords are lowercase and reserved.

::

    scenario    := stmt*
    stmt        := system | state | observable | hamiltonian | device
                 | evolve | query
    system      := "system" "dim" INT
    state       := "state" ("pure" cvec | "mixed" cmat)
    observable  := "observable" NAME ("eigen" rvec "basis" cmat
                                      | "projectors" rvec cmat+)
    hamiltonian := "hamiltonian" NAME cmat
    device      := "device" NAME ("measures" NAME ["weak" cmat+]
                                  | "reads" NAME)
    evolve      := "evolve" NAME "t" FLOAT | "evolve" "unitary" cmat
    query       := "query" ("marginal" NAME | "joint" event+
                   | "conditional" event "given" event+ | "reduced"
                   | "repeatability" NAME NAME | "equivalence")
    event       := NAME "=" INT
    cvec        := "[" complex ("," complex)* "]"
    cmat        := "[" cvec ("," cvec)* "]"

``GRAMMAR`` is the one table of these statement forms, a row each: the parser
reads a statement by its rows, the formatter writes it by the same row, and
``KEYWORDS`` are the words its rows hold.  The lexer is one regular
expression with an alternative per token kind; any other character is an
error.  A number is ``[+-]mag (i | [+-]mag i)?`` with no internal whitespace,
where ``mag`` is a decimal magnitude with an optional exponent: ``a``,
``bi``, ``a+bi`` and ``a-bi``.  ``1+2`` without the ``i`` is two numbers,
``1`` and ``+2``.  Device and evolve statements are the chain's events, in
file order; queries are answered from the final chain state.

``compile_scenario`` checks a parsed scenario in one pass and builds the
objects the engine runs (a ``Program``: initial state, observables, and a
``model.DeviceSpec`` or ``collapse.Evolve`` per event, which the chain and
the oracle take as they are; query events are ``born.OutcomeEvent``s).  Every
number is converted and checked once, by the same constructors the engine
uses, and input they reject becomes a positioned ``Diagnostic``.
``Scenario.program`` memoizes the result, and ``validate_scenario`` returns
its diagnostics.

The canonical formatter emits one statement per line with single spaces and
17 significant digits, enough for float64 round trips, and
``parse_scenario(format_scenario(s))`` equals ``s`` (source positions are
ignored by equality).
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .born import OutcomeEvent
from .chain import make_reader_device
from .collapse import Evolve
from .linalg import as_complex_matrix, as_hermitian, as_state_vector, as_unitary
from .model import (
    SYSTEM_LABEL,
    DensityState,
    DeviceSpec,
    Disturbance,
    Observable,
    Record,
    make_degenerate_observable,
    make_observable,
)
from .tolerances import NORM_FLOOR

# Largest final chain state a scenario may ask for: 2**26 complex128
# amplitudes, 1 GiB, counting what the chain stores (the system, any
# ancilla, and K recorded pointer states per K-outcome device).  The
# compiler checks it from the declarations alone.
MAX_AMPLITUDES = 2**26

# Most devices a chain may hold.  Its state has one array axis per device
# besides the system and any ancilla, and numpy 1.x allows 32 axes.  Only
# chains of one-outcome devices can get this long within ``MAX_AMPLITUDES``.
MAX_DEVICES = 30

# Largest ``query equivalence``: it reports every joint outcome of the
# system devices.  The report holds its values as arrays, but the output
# records and their JSON text peak at about 1.7 KB per joint outcome, and the
# collapse oracle holds one branch state per joint outcome
# (``equivalence_problem`` estimates its bytes).  Together the two bounds
# keep the query's own peak under 1 GiB.
MAX_JOINT_OUTCOMES = 2**18
MAX_ORACLE_BYTES = 2**28

# Longest integer literal the parser reads, in significant digits: far below
# Python's 4,300-digit int() limit and past any dimension or outcome index
# the size limits admit.
MAX_INT_DIGITS = 100

_INT_RE = re.compile(r"[+-]?\d+\Z")

# One named alternative per token kind (the number rule is in the docstring).
_MAG = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("newline", r"\n"),
    ("blank", r"(?:[ \t\r]|#[^\n]*)+"),
    ("lbracket", r"\["),
    ("rbracket", r"\]"),
    ("comma", ","),
    ("equals", "="),
    ("word", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("number", rf"(?P<re>[+-]?{_MAG})(?:(?P<i>i)|(?P<im>[+-]{_MAG})i)?"),
    ("bad", "."),  # any other character
)))

Pos = tuple[int, int]
Row = tuple[complex, ...]
Mat = tuple[Row, ...]


class ParseError(Exception):
    """Lexical or syntax error with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class Diagnostic(Record, eq=True):
    """Validation problem at a 1-based source position."""

    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class Token(NamedTuple):
    kind: str  # word | number | lbracket | rbracket | comma | equals | newline | eof
    text: str
    line: int
    col: int
    value: complex = 0j


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    depth = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        col = m.start() - line_start + 1
        if kind == "newline":
            if depth == 0 and toks and toks[-1].kind != "newline":
                toks.append(Token(kind, "\n", line, col))
            line, line_start = line + 1, m.end()
        elif kind == "number":
            first = float(m["re"])
            if m["i"]:
                value = complex(0.0, first)
            else:
                value = complex(first, float(m["im"]) if m["im"] else 0.0)
            toks.append(Token(kind, m[0], line, col, value))
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", line, col)
        elif kind != "blank":
            if kind == "lbracket":
                depth += 1
            elif kind == "rbracket":
                depth = max(0, depth - 1)
            toks.append(Token(kind, m[0], line, col))

    col = len(text) - line_start + 1
    if toks and toks[-1].kind != "newline":
        toks.append(Token("newline", "\n", line, col))
    toks.append(Token("eof", "", line, col))
    return toks


# --- AST -------------------------------------------------------------------

class _Node(Record, eq=True):
    """Base of every statement node.  The source position is keyword-only and
    ignored by equality; equal nodes have the same type."""

    _keywords = ("pos",)
    pos: Pos = (0, 0)


class SystemDecl(_Node):
    dim: int


class PureStateDecl(_Node):
    amplitudes: Row


class MixedStateDecl(_Node):
    rows: Mat


class EigenObservableDecl(_Node):
    name: str
    eigenvalues: tuple[float, ...]
    basis: Mat


class ProjectorObservableDecl(_Node):
    name: str
    eigenvalues: tuple[float, ...]
    projectors: tuple[Mat, ...]


class HamiltonianDecl(_Node):
    name: str
    matrix: Mat


class MeasureDeviceDecl(_Node):
    name: str
    observable: str
    weak: tuple[Mat, ...] | None = None


class ReaderDeviceDecl(_Node):
    name: str
    target: str


class EvolveNamedDecl(_Node):
    hamiltonian: str
    time: float


class EvolveUnitaryDecl(_Node):
    matrix: Mat


class MarginalQuery(_Node):
    kind = "marginal"
    device: str


class JointQuery(_Node):
    kind = "joint"
    events: tuple[OutcomeEvent, ...]


class ConditionalQuery(_Node):
    kind = "conditional"
    target: OutcomeEvent
    given: tuple[OutcomeEvent, ...]


class ReducedQuery(_Node):
    kind = "reduced"


class RepeatabilityQuery(_Node):
    kind = "repeatability"
    first: str
    second: str


class EquivalenceQuery(_Node):
    kind = "equivalence"


EventDecl = MeasureDeviceDecl | ReaderDeviceDecl | EvolveNamedDecl | EvolveUnitaryDecl
QueryDecl = (
    MarginalQuery | JointQuery | ConditionalQuery | ReducedQuery
    | RepeatabilityQuery | EquivalenceQuery
)
Statement = SystemDecl | PureStateDecl | MixedStateDecl | EigenObservableDecl | \
    ProjectorObservableDecl | HamiltonianDecl | EventDecl | QueryDecl


class Scenario(Record, eq=True):
    """Parsed scenario; statement order is the chain's event order."""

    statements: tuple[Statement, ...]

    @cached_property
    def events(self) -> tuple[EventDecl, ...]:
        """The event statements in order, memoized like ``program``."""
        return tuple(s for s in self.statements if isinstance(s, EventDecl))

    @cached_property
    def queries(self) -> tuple[QueryDecl, ...]:
        """The query statements in order, memoized like ``program``."""
        return tuple(s for s in self.statements if isinstance(s, QueryDecl))

    @cached_property
    def program(self) -> Program:
        """The scenario compiled once (``compile_scenario``), memoized."""
        return compile_scenario(self)


# --- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        # What each statement declared, as its duplicate names it: "system
        # declaration", "state declaration" or "device name 'M1'".
        self.names: set[str] = set()

    def peek(self) -> Token:
        return self.toks[self.i]

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        shown = "end of line" if tok.kind == "newline" else repr(tok.text)
        wanted = " or ".join(expected)
        raise ParseError(f"expected {wanted}, got {shown}", tok.line, tok.col)

    def accept(self, word: str) -> bool:
        """Consume the keyword ``word`` if it comes next."""
        tok = self.peek()
        if tok.kind == "word" and tok.text == word:
            self.i += 1
            return True
        return False

    def expect_kind(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail((what,))
        self.i += 1
        return tok

    def expect_name(self, role: str) -> str:
        tok = self.expect_kind("word", role)
        if tok.text in KEYWORDS:
            raise ParseError(f"keyword {tok.text!r} cannot be used as {role}", tok.line, tok.col)
        return tok.text

    def new_name(self, role: str) -> str:
        """A name the statement declares; a second declaration is an error."""
        tok = self.peek()
        self.declare(f"{role} {self.expect_name(role)!r}", tok)
        return tok.text

    def declare(self, what: str, tok: Token):
        if what in self.names:
            raise ParseError(f"duplicate {what}", tok.line, tok.col)
        self.names.add(what)

    def expect_int(self, role: str) -> int:
        tok = self.peek()
        if tok.kind != "number" or not _INT_RE.match(tok.text):
            self.fail((role,))
        digits = tok.text.lstrip("+-").lstrip("0")
        if len(digits) > MAX_INT_DIGITS:
            raise ParseError(
                f"{role} has {len(digits)} digits, more than {MAX_INT_DIGITS}",
                tok.line, tok.col,
            )
        self.i += 1
        value = int(digits or "0")
        return -value if tok.text.startswith("-") else value

    def expect_real(self, role: str) -> float:
        tok = self.expect_kind("number", role)
        if tok.value.imag != 0.0:
            message = f"expected {role}, got complex literal {tok.text!r}"
            raise ParseError(message, tok.line, tok.col)
        return tok.value.real

    def expect_complex(self) -> complex:
        return self.expect_kind("number", "number").value

    # literals

    def bracketed(self, item) -> tuple:
        """``"[" item ("," item)* "]"`` as a tuple of the items."""
        self.expect_kind("lbracket", "'['")
        out = [item()]
        while self.peek().kind == "comma":
            self.i += 1
            out.append(item())
        self.expect_kind("rbracket", "']' or ','")
        return tuple(out)

    def cvec(self) -> Row:
        return self.bracketed(self.expect_complex)

    def rvec(self) -> tuple[float, ...]:
        return self.bracketed(lambda: self.expect_real("eigenvalue"))

    def cmat(self) -> Mat:
        return self.bracketed(self.cvec)

    def cmat_list(self) -> tuple[Mat, ...]:
        mats = [self.cmat()]
        while self.peek().kind == "lbracket":
            mats.append(self.cmat())
        return tuple(mats)

    def event(self) -> OutcomeEvent:
        tok = self.peek()
        device = self.expect_name("device name")
        self.expect_kind("equals", "'='")
        return OutcomeEvent(device, self.expect_int("outcome index"), pos=(tok.line, tok.col))

    def events(self) -> tuple[OutcomeEvent, ...]:
        events = [self.event()]
        while self.peek().kind == "word":
            events.append(self.event())
        return tuple(events)

    # statements

    def statement(self) -> Statement:
        """One statement, read by the ``GRAMMAR`` rows of its first keyword."""
        tok = self.peek()
        if tok.kind != "word":
            self.fail(("statement keyword",))
        if tok.text not in _FORMS:
            self.fail(tuple(f"'{word}'" for word in _FORMS))
        self.i += 1
        if tok.text in ("system", "state"):
            self.declare(f"{tok.text} declaration", tok)
        shared, branches, rest = _FORMS[tok.text]
        values = self.walk(shared)
        nxt = self.peek()
        if nxt.text in branches:
            self.i += 1
            rest = branches[nxt.text]
        elif rest is None:
            label = tok.text == "query" and nxt.kind != "word"
            self.fail(("query kind",) if label else tuple(f"'{word}'" for word in branches))
        cls, steps = rest
        return cls(*values, *self.walk(steps), pos=(tok.line, tok.col))

    def walk(self, steps) -> list:
        """The fields that ``steps``, (keyword, reader, role) triples, read."""
        values = []
        for word, read, role in steps:
            if read is None:
                if not self.accept(word):
                    self.fail((f"'{word}'",))
            elif word is None or self.accept(word):
                values.append(read(self) if role is None else read(self, role))
            else:
                values.append(None)
        return values

    def scenario(self) -> Scenario:
        statements = []
        while True:
            while self.peek().kind == "newline":
                self.i += 1
            if self.peek().kind == "eof":
                return Scenario(tuple(statements))
            statements.append(self.statement())
            if self.peek().kind != "newline":  # a newline token always precedes eof
                self.fail(("end of line",))


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises :class:`ParseError` with a position on any
    lexical or syntax error, including duplicate names."""
    return _Parser(_tokenize(text)).scenario()


# --- grammar -----------------------------------------------------------------

# One row per statement form: its node class, then its keywords and fields in
# source order.  A field is (reader, role): the ``_Parser`` method that reads
# it and the role its parse errors name (None where they name a bracket or a
# number).  A field (keyword, reader, role) is optional, None without its
# keyword.  Rows with one first keyword share their items up to where they
# part; there each goes on with its own keyword, or one of them with a field.
_P = _Parser
GRAMMAR = (
    (SystemDecl, "system", "dim", (_P.expect_int, "integer dimension")),
    (PureStateDecl, "state", "pure", (_P.cvec, None)),
    (MixedStateDecl, "state", "mixed", (_P.cmat, None)),
    (EigenObservableDecl, "observable", (_P.new_name, "observable name"),
     "eigen", (_P.rvec, None), "basis", (_P.cmat, None)),
    (ProjectorObservableDecl, "observable", (_P.new_name, "observable name"),
     "projectors", (_P.rvec, None), (_P.cmat_list, None)),
    (HamiltonianDecl, "hamiltonian", (_P.new_name, "hamiltonian name"), (_P.cmat, None)),
    (MeasureDeviceDecl, "device", (_P.new_name, "device name"),
     "measures", (_P.expect_name, "observable name"), ("weak", _P.cmat_list, None)),
    (ReaderDeviceDecl, "device", (_P.new_name, "device name"),
     "reads", (_P.expect_name, "device name")),
    (EvolveNamedDecl, "evolve", (_P.expect_name, "hamiltonian name"),
     "t", (_P.expect_real, "time")),
    (EvolveUnitaryDecl, "evolve", "unitary", (_P.cmat, None)),
    (MarginalQuery, "query", "marginal", (_P.expect_name, "device name")),
    (JointQuery, "query", "joint", (_P.events, None)),
    (ConditionalQuery, "query", "conditional", (_P.event, None), "given", (_P.events, None)),
    (ReducedQuery, "query", "reduced"),
    (RepeatabilityQuery, "query", "repeatability",
     (_P.expect_name, "device name"), (_P.expect_name, "device name")),
    (EquivalenceQuery, "query", "equivalence"),
)


def _steps(items) -> tuple:
    """Grammar items as the (keyword, reader, role) triples ``walk`` reads."""
    return tuple((i, None, None) if isinstance(i, str) else i if len(i) == 3 else (None, *i)
                 for i in items)


def _forms() -> dict:
    """First keyword -> (the steps its rows share, {next keyword: (class, the
    steps after it)}, (class, steps) of the row going on with a field, or None)."""
    forms: dict[str, list] = {}
    for cls, first, *items in GRAMMAR:
        forms.setdefault(first, []).append((cls, _steps(items)))
    for first, rows in forms.items():
        n = 0
        while len(rows) > 1 and len({steps[n] for _, steps in rows}) == 1:
            n += 1
        branches = {s[n][0]: (cls, s[n + 1:]) for cls, s in rows if s[n][1] is None}
        rest = [(cls, s[n:]) for cls, s in rows if s[n][1] is not None]
        forms[first] = (rows[0][1][:n], branches, rest[0] if rest else None)
    return forms


_FORMS = _forms()
KEYWORDS = frozenset(word for _, *items in GRAMMAR for word, _, _ in _steps(items) if word)


# --- canonical formatter -----------------------------------------------------

def format_real(x: float) -> str:
    """17 significant digits; round-trips any float64."""
    return f"{float(x):.17g}"


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return format_real(z.real)
    if z.real == 0.0:
        return f"{format_real(z.imag)}i"
    sign = "+" if z.imag > 0 else "-"
    return f"{format_real(z.real)}{sign}{format_real(abs(z.imag))}i"


def _fmt_cvec(row) -> str:
    return "[" + ", ".join(format_complex(z) for z in row) + "]"


def _fmt_cmat(mat) -> str:
    return "[" + ", ".join(_fmt_cvec(row) for row in mat) + "]"


# The canonical text of what each reader reads.
_WRITERS = {
    _P.expect_int: str,
    _P.expect_name: str,
    _P.new_name: str,
    _P.expect_real: format_real,
    _P.cvec: _fmt_cvec,
    _P.rvec: lambda vals: "[" + ", ".join(format_real(v) for v in vals) + "]",
    _P.cmat: _fmt_cmat,
    _P.cmat_list: lambda mats: " ".join(_fmt_cmat(m) for m in mats),
    _P.event: lambda ev: f"{ev.device}={ev.outcome}",
    _P.events: lambda evs: " ".join(f"{ev.device}={ev.outcome}" for ev in evs),
}


def _format_plan(cls, steps) -> tuple[tuple, str]:
    """A row as ``format_statement`` writes it: (text before the field, field
    name, writer) triples, then the text after the last field."""
    names = iter(cls._fields)
    plan, text = [], steps[0][0]
    for word, read, _ in steps[1:]:
        if read is None:
            text += f" {word}"
            continue
        write = _WRITERS[read]
        if word is not None:  # optional: " word value", or nothing for None
            write = lambda value, word=word, w=write: "" if value is None else f" {word} {w(value)}"
        plan.append((text if word else text + " ", next(names), write))
        text = ""
    return tuple(plan), text


_PLANS = {cls: _format_plan(cls, _steps(items)) for cls, *items in GRAMMAR}


def format_statement(stmt: Statement) -> str:
    plan, tail = _PLANS[type(stmt)]
    return "".join([text + write(getattr(stmt, name)) for text, name, write in plan]) + tail


def format_scenario(scenario: Scenario) -> str:
    """Canonical text: statement order preserved, whitespace normalized."""
    return "\n".join(format_statement(s) for s in scenario.statements) + "\n"


# --- compiler ----------------------------------------------------------------

class Program(Record):
    """A scenario compiled into the objects the engine runs.

    ``initial_state`` is a unit vector or the checked ``DensityState`` of a
    mixed start; ``events`` holds the devices and evolutions in file order.  A
    program with ``diagnostics`` is incomplete and must not be run.
    """

    initial_state: np.ndarray | DensityState | None
    observables: dict[str, Observable]
    events: tuple[DeviceSpec | Evolve, ...]
    diagnostics: tuple[Diagnostic, ...]


def _np_mat(mat: Mat, name: str) -> np.ndarray:
    """A matrix literal as a finite 2-d complex128 array."""
    if not all(len(row) == len(mat[0]) for row in mat):
        raise ValueError("matrix rows have unequal lengths")
    return as_complex_matrix(np.array(mat, dtype=np.complex128), name)


# What a statement's float64 checks compute from its literals, named in the
# diagnostic when they overflow.
_CHECKED_QUANTITY = {
    PureStateDecl: "state norm",
    MixedStateDecl: "mixed state trace or spectrum",
    EigenObservableDecl: "eigenbasis row norm",
    ProjectorObservableDecl: "projector product",
    HamiltonianDecl: "hamiltonian hermiticity residual",
    MeasureDeviceDecl: "disturbance unitarity residual",
    EvolveUnitaryDecl: "evolution unitarity residual",
}


@np.errstate(over="raise", invalid="raise", divide="raise")
def compile_scenario(scenario: Scenario) -> Program:
    """Compile ``scenario`` in one pass in file order; prefer the memoized
    ``scenario.program``.

    Structural checks: the system and state declarations are present, every
    matrix is finite and square of the system dimension, names resolve in
    file order, queries name attached devices with outcome indices in range
    and no device twice, and the final chain state (system dim times every
    device's outcome count, times the system dim again for a mixed state's
    ancilla) stays within ``MAX_AMPLITUDES`` and the chain within
    ``MAX_DEVICES`` devices, counted before any device is built.  A ``query
    equivalence`` needs a ``device ... measures`` statement to compare, and on
    a chain that fits must stay within ``MAX_JOINT_OUTCOMES`` joint outcomes
    of the system devices and ``MAX_ORACLE_BYTES`` of oracle leaf states and
    projectors.
    User input is normalized (state norm or trace, eigenbasis rows) and
    handed to the constructors that check the rest.  Their ValueErrors, and
    float overflows while checking (named by the quantity that overflows),
    become diagnostics at the statement.
    """
    diags: list[Diagnostic] = []

    def add(msg: str, pos: Pos):
        diags.append(Diagnostic(msg, pos[0], pos[1]))

    system = next((s for s in scenario.statements if isinstance(s, SystemDecl)), None)
    dim = None
    if system is None:
        add("no system declaration", (1, 1))
    elif system.dim < 1:
        add(f"system dimension must be positive, got {system.dim}", system.pos)
    else:
        dim = system.dim

    states = (PureStateDecl, MixedStateDecl)
    state = next((s for s in scenario.statements if isinstance(s, states)), None)
    if state is None:
        add("no state declaration", (1, 1))

    def system_matrix(mat: Mat, name: str) -> np.ndarray:
        m = _np_mat(mat, name)
        if m.shape[0] != m.shape[1] or (dim is not None and m.shape[0] != dim):
            raise ValueError(f"{name} has shape {m.shape} for system {dim}")
        return m

    amplitudes = None  # final state size; None once unknown or refused
    if dim is not None:
        amplitudes = dim * (dim if isinstance(state, MixedStateDecl) else 1)
    attached = 0

    def grow(name: str, outcomes: int, pos: Pos) -> bool:
        """Count a device's stored pointer states into the final state size;
        False once the size is unknown or a limit is passed."""
        nonlocal amplitudes, attached
        if amplitudes is None:
            return False
        amplitudes *= outcomes
        attached += 1
        if attached > MAX_DEVICES:
            add(f"device {name!r} makes {attached} devices, past the limit of {MAX_DEVICES}", pos)
        elif amplitudes > MAX_AMPLITUDES:
            add(
                f"device {name!r} grows the chain state to {amplitudes} amplitudes "
                f"({16 * amplitudes} bytes), past the limit of {MAX_AMPLITUDES}",
                pos,
            )
        else:
            return True
        amplitudes = None
        return False

    initial = None
    outcome_counts: dict[str, int] = {}  # observable name -> outcome count
    observables: dict[str, Observable] = {}
    hamiltonians: dict[str, np.ndarray | None] = {}  # None: declared, not built
    devices: dict[str, int] = {}  # device name -> outcome count
    measured: dict[str, int] = {}  # observable name -> outcome count, if a device measures it
    joint_outcomes = 1  # product of the system devices' outcome counts
    weak_count = 0  # outcome count of the weak device with the most outcomes
    equivalence_queries: list[Pos] = []
    specs: dict[str, DeviceSpec] = {}
    events: list[DeviceSpec | Evolve] = []

    for stmt in scenario.statements:
        if isinstance(stmt, (MeasureDeviceDecl, ReaderDeviceDecl)) and stmt.name == SYSTEM_LABEL:
            add(f"device label {SYSTEM_LABEL!r} is reserved for the system", stmt.pos)
        try:
            if isinstance(stmt, PureStateDecl):
                if dim is not None and len(stmt.amplitudes) != dim:
                    raise ValueError(
                        f"state has {len(stmt.amplitudes)} amplitudes for dimension {dim}"
                    )
                v = _np_mat((stmt.amplitudes,), "state")[0]
                norm = float(np.linalg.norm(v))
                if norm <= NORM_FLOOR:
                    raise ValueError("state is not normalizable (norm is zero)")
                initial = as_state_vector(v / norm)
            elif isinstance(stmt, MixedStateDecl):
                m = system_matrix(stmt.rows, "mixed state")
                tr = float(np.trace(m).real)
                if tr <= NORM_FLOOR:
                    raise ValueError("mixed state is not normalizable (trace is zero)")
                initial = DensityState(SYSTEM_LABEL, m / tr)
            elif isinstance(stmt, EigenObservableDecl):
                outcome_counts[stmt.name] = len(stmt.eigenvalues)
                rows = system_matrix(stmt.basis, "eigenbasis")
                norms = np.linalg.norm(rows, axis=1)
                if float(np.min(norms)) <= NORM_FLOOR:
                    raise ValueError("eigenbasis contains a zero row")
                observables[stmt.name] = make_observable(
                    stmt.name, SYSTEM_LABEL, stmt.eigenvalues, rows / norms[:, None]
                )
            elif isinstance(stmt, ProjectorObservableDecl):
                outcome_counts[stmt.name] = len(stmt.eigenvalues)
                mats = [system_matrix(m, "projector") for m in stmt.projectors]
                observables[stmt.name] = make_degenerate_observable(
                    stmt.name, SYSTEM_LABEL, stmt.eigenvalues, mats
                )
            elif isinstance(stmt, HamiltonianDecl):
                hamiltonians[stmt.name] = None
                name = f"hamiltonian {stmt.name!r}"
                hamiltonians[stmt.name] = as_hermitian(system_matrix(stmt.matrix, name), name)
            elif isinstance(stmt, MeasureDeviceDecl):
                if stmt.observable not in outcome_counts:
                    devices[stmt.name] = 0
                    raise ValueError(f"undefined observable {stmt.observable!r}")
                count = devices[stmt.name] = outcome_counts[stmt.observable]
                measured[stmt.observable] = count
                joint_outcomes *= count
                fits = grow(stmt.name, count, stmt.pos)
                disturbance = None
                if stmt.weak is not None:
                    weak_count = max(weak_count, count)
                    if len(stmt.weak) != count:
                        raise ValueError(
                            f"weak device needs {count} disturbance matrices, "
                            f"got {len(stmt.weak)}"
                        )
                    disturbance = Disturbance(tuple(
                        system_matrix(m, f"disturbance {i}")
                        for i, m in enumerate(stmt.weak, start=1)
                    ))
                if fits and stmt.observable in observables:
                    spec = DeviceSpec(stmt.name, observables[stmt.observable], disturbance)
                    events.append(spec)
                    specs[stmt.name] = spec
            elif isinstance(stmt, ReaderDeviceDecl):
                if stmt.target not in devices:
                    devices[stmt.name] = 0
                    raise ValueError(f"undefined device {stmt.target!r}")
                # Reader outcomes: one per pointer state of the target.
                devices[stmt.name] = devices[stmt.target] + 1
                fits = grow(stmt.name, devices[stmt.name], stmt.pos)
                if fits and stmt.target in specs:
                    spec = specs[stmt.name] = make_reader_device(stmt.name, specs[stmt.target])
                    events.append(spec)
            elif isinstance(stmt, EvolveNamedDecl):
                if stmt.hamiltonian not in hamiltonians:
                    add(f"undefined hamiltonian {stmt.hamiltonian!r}", stmt.pos)
                if not np.isfinite(stmt.time):
                    raise ValueError("evolution time must be finite")
                if hamiltonians.get(stmt.hamiltonian) is not None:
                    events.append(Evolve(hamiltonians[stmt.hamiltonian], stmt.time))
            elif isinstance(stmt, EvolveUnitaryDecl):
                u = as_unitary(system_matrix(stmt.matrix, "evolution"), "evolution")
                events.append(Evolve(u))
        except ValueError as exc:
            add(str(exc), stmt.pos)
        except FloatingPointError as exc:
            quantity = _CHECKED_QUANTITY.get(type(stmt), "checked value")
            problem = "overflows" if "overflow" in str(exc) else "cannot be evaluated in"
            add(f"{quantity} {problem} float64", stmt.pos)
        if isinstance(stmt, MarginalQuery):
            _check_device_ref(stmt.device, devices, stmt.pos, add)
        elif isinstance(stmt, JointQuery):
            _check_events(stmt.events, devices, add)
        elif isinstance(stmt, ConditionalQuery):
            _check_events((stmt.target,) + stmt.given, devices, add)
        elif isinstance(stmt, RepeatabilityQuery):
            ok_first = _check_device_ref(stmt.first, devices, stmt.pos, add)
            ok_second = _check_device_ref(stmt.second, devices, stmt.pos, add)
            if stmt.first == stmt.second:
                add("repeatability needs two distinct devices", stmt.pos)
            elif ok_first and ok_second and devices[stmt.first] != devices[stmt.second]:
                add(
                    f"devices {stmt.first!r} and {stmt.second!r} have different "
                    "outcome counts",
                    stmt.pos,
                )
        elif isinstance(stmt, EquivalenceQuery):
            equivalence_queries.append(stmt.pos)

    measures = any(isinstance(s, MeasureDeviceDecl) for s in scenario.statements)
    problem = None if measures else "scenario attaches no system devices; nothing to compare"
    if equivalence_queries and measures and amplitudes is not None:
        mixed = isinstance(state, MixedStateDecl)
        stacks = [*measured.values(), 3 * weak_count]
        problem = equivalence_problem(dim, mixed, joint_outcomes, stacks)
    if equivalence_queries and problem:
        for pos in equivalence_queries:
            add(problem, pos)
        diags.sort(key=lambda d: (d.line, d.col))
    return Program(initial, observables, tuple(events), tuple(diags))


def equivalence_problem(dim: int, mixed: bool, joint_outcomes: int, outcome_counts) -> str | None:
    """Why a ``query equivalence`` of this size is refused, or None.

    The collapse oracle's peak is priced at three stacks of one complex128
    state per joint outcome (a ``dim`` vector, or a density matrix for a
    mixed start), plus its (K, dim, dim) matrix stacks.  Three stacks is the
    worst step: a measure step on B branches holds its B incoming states,
    the K * B projected ones and at most K * B more (a density matrix's
    matmul temporary, or the kept copy of a step that prunes), and with
    K = 1 the incoming states are as many as the projected ones; an evolve
    step on density matrices holds the frontier, a temporary and the result.
    ``outcome_counts`` lists the leading length of each matrix stack: K for
    the projectors of each distinct observable, and 3 * K for the weak
    device with the most outcomes, as steps run one at a time.  A weak step
    holds its stacked R_k, R_k P_k and, for density matrices, that product's
    adjoint; checking one R_k takes three (dim, dim) temporaries.  The few
    8-byte index and weight values per joint outcome are left out:
    ``MAX_JOINT_OUTCOMES`` bounds them to about 16 MB.
    """
    if joint_outcomes > MAX_JOINT_OUTCOMES:
        return (
            f"query equivalence compares {joint_outcomes} joint outcomes, "
            f"past the limit of {MAX_JOINT_OUTCOMES}"
        )
    leaf = dim * dim if mixed else dim
    needed = 16 * (3 * joint_outcomes * leaf + sum(outcome_counts) * dim * dim)
    if needed > MAX_ORACLE_BYTES:
        return (
            f"query equivalence needs about {needed} bytes of collapse-oracle "
            f"states, past the limit of {MAX_ORACLE_BYTES}"
        )
    return None


def validate_scenario(scenario: Scenario) -> list[Diagnostic]:
    """Diagnostics of the compiled scenario (see ``compile_scenario``) in file
    order; an empty list means the scenario is runnable.

    Input that a constructor rejects is a diagnostic here, at its statement's
    position.  Running the program can still fail, for example when an
    evolution's phases overflow.
    """
    return list(scenario.program.diagnostics)


def _check_device_ref(name: str, devices: dict[str, int], pos: Pos, add) -> bool:
    if name not in devices:
        add(f"undefined device {name!r}", pos)
        return False
    return True


def _check_events(events, devices: dict[str, int], add) -> None:
    seen = set()
    for ev in events:
        if not _check_device_ref(ev.device, devices, ev.pos, add):
            continue
        count = devices[ev.device]
        if count and not 1 <= ev.outcome <= count:
            add(
                f"outcome index {ev.outcome} out of range 1..{count} "
                f"for device {ev.device!r}",
                ev.pos,
            )
        if ev.device in seen:
            add(f"duplicate device {ev.device!r} in query", ev.pos)
        seen.add(ev.device)
