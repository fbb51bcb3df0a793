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

Complex literals take the forms ``a``, ``bi``, ``a+bi``, ``a-bi`` with a
lowercase ``i`` suffix and no internal whitespace; ``a`` and ``b`` may use
scientific notation.  Device and evolve statements are the chain's events, in
file order; queries are answered from the final chain state.

``compile_scenario`` checks a parsed scenario in one pass and builds the
objects the engine runs (a ``Program``: initial state, observables, device
specs, evolutions).  Every number is converted and checked once, by the same
constructors the engine uses, and input they reject becomes a positioned
``Diagnostic``.  ``Scenario.program`` memoizes the result, and
``validate_scenario`` returns its diagnostics.

The canonical formatter emits one statement per line with single spaces and
17 significant digits, enough for float64 round trips, and
``parse_scenario(format_scenario(s))`` equals ``s`` (source positions are
ignored by equality).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import Disturbance, make_reader_device
from .linalg import (
    as_complex_matrix,
    as_hermitian,
    as_state_vector,
    as_unitary,
    hermitian_evolution,
)
from .model import (
    DensityState,
    DeviceSpec,
    Observable,
    make_degenerate_observable,
    make_device,
    make_observable,
)
from .tolerances import NORM_FLOOR

KEYWORDS = frozenset(
    {
        "system", "dim", "state", "pure", "mixed", "observable", "eigen",
        "basis", "projectors", "hamiltonian", "device", "measures", "weak",
        "reads", "evolve", "unitary", "t", "query", "marginal", "joint",
        "conditional", "given", "reduced", "repeatability", "equivalence",
    }
)

# Largest final chain state a scenario may ask for: 2**26 complex128
# amplitudes, 1 GiB.  The compiler checks it from the declarations alone.
MAX_AMPLITUDES = 2**26

# Factor label of the system; no device may take it.
SYSTEM_LABEL = "S"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_MAG_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_INT_RE = re.compile(r"[+-]?\d+\Z")

Pos = tuple[int, int]
Row = tuple[complex, ...]
Mat = tuple[Row, ...]


class ParseError(Exception):
    """Lexical or syntax error with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        super().__init__(f"{line}:{col}: {message}")


@dataclass(frozen=True)
class Diagnostic:
    """Validation problem at a 1-based source position."""

    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


@dataclass(frozen=True)
class Token:
    kind: str  # word | number | lbracket | rbracket | comma | equals | newline | eof
    text: str
    line: int
    col: int
    value: complex = 0j
    is_int: bool = False
    is_real: bool = False


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    depth = 0
    i = 0
    n = len(text)

    def emit(kind, lexeme, ln, cl, **kw):
        toks.append(Token(kind, lexeme, ln, cl, **kw))

    while i < n:
        ch = text[i]
        if ch == "\n":
            if depth == 0 and toks and toks[-1].kind != "newline":
                emit("newline", "\n", line, col)
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch == "[":
            emit("lbracket", "[", line, col)
            depth += 1
            i += 1
            col += 1
            continue
        if ch == "]":
            emit("rbracket", "]", line, col)
            depth = max(0, depth - 1)
            i += 1
            col += 1
            continue
        if ch == ",":
            emit("comma", ",", line, col)
            i += 1
            col += 1
            continue
        if ch == "=":
            emit("equals", "=", line, col)
            i += 1
            col += 1
            continue
        m = _NAME_RE.match(text, i)
        if m and not (ch.isdigit() or ch == "."):
            word = m.group(0)
            emit("word", word, line, col)
            i = m.end()
            col += len(word)
            continue
        # number: [sign] magnitude, optional (i | sign magnitude i)
        start_line, start_col = line, col
        j = i
        sign = 1.0
        if text[j] in "+-":
            sign = -1.0 if text[j] == "-" else 1.0
            j += 1
        m = _MAG_RE.match(text, j)
        if not m:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        first = sign * float(m.group(0))
        j = m.end()
        real, imag = first, 0.0
        if j < n and text[j] == "i":
            real, imag = 0.0, first
            j += 1
        elif j < n and text[j] in "+-":
            m2 = _MAG_RE.match(text, j + 1)
            if m2 and m2.end() < n and text[m2.end()] == "i":
                imag = float(m2.group(0)) * (-1.0 if text[j] == "-" else 1.0)
                j = m2.end() + 1
        lexeme = text[i:j]
        emit(
            "number",
            lexeme,
            start_line,
            start_col,
            value=complex(real, imag),
            is_int=bool(_INT_RE.match(lexeme)),
            is_real=(imag == 0.0 and not lexeme.endswith("i")),
        )
        col += j - i
        i = j

    if toks and toks[-1].kind != "newline":
        emit("newline", "\n", line, col)
    emit("eof", "", line, col)
    return toks


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class SystemDecl:
    dim: int
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class PureStateDecl:
    amplitudes: Row
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class MixedStateDecl:
    rows: Mat
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class EigenObservableDecl:
    name: str
    eigenvalues: tuple[float, ...]
    basis: Mat
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ProjectorObservableDecl:
    name: str
    eigenvalues: tuple[float, ...]
    projectors: tuple[Mat, ...]
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class HamiltonianDecl:
    name: str
    matrix: Mat
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class MeasureDeviceDecl:
    name: str
    observable: str
    weak: tuple[Mat, ...] | None = None
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ReaderDeviceDecl:
    name: str
    target: str
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class EvolveNamedDecl:
    hamiltonian: str
    time: float
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class EvolveUnitaryDecl:
    matrix: Mat
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class EventRef:
    device: str
    outcome: int
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class MarginalQuery:
    device: str
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class JointQuery:
    events: tuple[EventRef, ...]
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ConditionalQuery:
    target: EventRef
    given: tuple[EventRef, ...]
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ReducedQuery:
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class RepeatabilityQuery:
    first: str
    second: str
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class EquivalenceQuery:
    pos: Pos = field(default=(0, 0), compare=False)


EventDecl = MeasureDeviceDecl | ReaderDeviceDecl | EvolveNamedDecl | EvolveUnitaryDecl
QueryDecl = (
    MarginalQuery | JointQuery | ConditionalQuery | ReducedQuery
    | RepeatabilityQuery | EquivalenceQuery
)
Statement = SystemDecl | PureStateDecl | MixedStateDecl | EigenObservableDecl | \
    ProjectorObservableDecl | HamiltonianDecl | EventDecl | QueryDecl


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario; statement order is the chain's event order."""

    statements: tuple[Statement, ...]

    @property
    def system_decl(self) -> SystemDecl | None:
        for s in self.statements:
            if isinstance(s, SystemDecl):
                return s
        return None

    @property
    def system_dim(self) -> int | None:
        decl = self.system_decl
        return decl.dim if decl else None

    @property
    def state_decl(self):
        for s in self.statements:
            if isinstance(s, (PureStateDecl, MixedStateDecl)):
                return s
        return None

    @property
    def observables(self) -> dict[str, EigenObservableDecl | ProjectorObservableDecl]:
        return {
            s.name: s
            for s in self.statements
            if isinstance(s, (EigenObservableDecl, ProjectorObservableDecl))
        }

    @property
    def device_decls(self) -> dict[str, MeasureDeviceDecl | ReaderDeviceDecl]:
        return {
            s.name: s
            for s in self.statements
            if isinstance(s, (MeasureDeviceDecl, ReaderDeviceDecl))
        }

    @property
    def events(self) -> tuple[EventDecl, ...]:
        kinds = (MeasureDeviceDecl, ReaderDeviceDecl, EvolveNamedDecl, EvolveUnitaryDecl)
        return tuple(s for s in self.statements if isinstance(s, kinds))

    @property
    def queries(self) -> tuple[QueryDecl, ...]:
        kinds = (
            MarginalQuery, JointQuery, ConditionalQuery, ReducedQuery,
            RepeatabilityQuery, EquivalenceQuery,
        )
        return tuple(s for s in self.statements if isinstance(s, kinds))

    def has_weak_device(self) -> bool:
        return any(
            isinstance(s, MeasureDeviceDecl) and s.weak is not None
            for s in self.statements
        )

    @cached_property
    def program(self) -> Program:
        """The scenario compiled once (``compile_scenario``), memoized."""
        return compile_scenario(self)


# --- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        self.observables: set[str] = set()
        self.hamiltonians: set[str] = set()
        self.devices: set[str] = set()
        self.have_system = False
        self.have_state = False

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, expected: tuple[str, ...], got: Token | None = None):
        tok = got or self.peek()
        shown = tok.text if tok.kind != "eof" else "end of input"
        wanted = " or ".join(expected)
        raise ParseError(
            f"expected {wanted}, got {shown!r}", tok.line, tok.col, expected
        )

    def expect_kind(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail((what,))
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "word" or tok.text != word:
            self.fail((f"'{word}'",))
        return self.advance()

    def expect_name(self, role: str) -> Token:
        tok = self.peek()
        if tok.kind != "word":
            self.fail((role,))
        if tok.text in KEYWORDS:
            raise ParseError(
                f"keyword {tok.text!r} cannot be used as {role}",
                tok.line, tok.col, (role,),
            )
        return self.advance()

    def expect_int(self, role: str) -> tuple[int, Token]:
        tok = self.peek()
        if tok.kind != "number" or not tok.is_int:
            self.fail((role,))
        tok = self.advance()
        return int(tok.value.real), tok

    def expect_real(self, role: str) -> tuple[float, Token]:
        tok = self.peek()
        if tok.kind != "number":
            self.fail((role,))
        if not tok.is_real and tok.value.imag != 0.0:
            raise ParseError(
                f"expected {role}, got complex literal {tok.text!r}",
                tok.line, tok.col, (role,),
            )
        tok = self.advance()
        return float(tok.value.real), tok

    def expect_complex(self, role: str = "number") -> complex:
        tok = self.peek()
        if tok.kind != "number":
            self.fail((role,))
        return self.advance().value

    def end_statement(self):
        tok = self.peek()
        if tok.kind == "newline":
            self.advance()
        elif tok.kind != "eof":
            self.fail(("end of line",))

    # literals

    def cvec(self) -> Row:
        self.expect_kind("lbracket", "'['")
        out = [self.expect_complex()]
        while self.peek().kind == "comma":
            self.advance()
            out.append(self.expect_complex())
        self.expect_kind("rbracket", "']' or ','")
        return tuple(out)

    def rvec(self, role: str = "real number") -> tuple[float, ...]:
        self.expect_kind("lbracket", "'['")
        out = [self.expect_real(role)[0]]
        while self.peek().kind == "comma":
            self.advance()
            out.append(self.expect_real(role)[0])
        self.expect_kind("rbracket", "']' or ','")
        return tuple(out)

    def cmat(self) -> Mat:
        self.expect_kind("lbracket", "'['")
        rows = [self.cvec()]
        while self.peek().kind == "comma":
            self.advance()
            rows.append(self.cvec())
        self.expect_kind("rbracket", "']' or ','")
        return tuple(rows)

    def cmat_list(self) -> tuple[Mat, ...]:
        mats = [self.cmat()]
        while self.peek().kind == "lbracket":
            mats.append(self.cmat())
        return tuple(mats)

    def event(self) -> EventRef:
        name = self.expect_name("device name")
        self.expect_kind("equals", "'='")
        outcome, _ = self.expect_int("outcome index")
        return EventRef(name.text, outcome, pos=(name.line, name.col))

    # statements

    def declare(self, registry: set[str], tok: Token, kind: str):
        if tok.text in registry:
            raise ParseError(f"duplicate {kind} name {tok.text!r}", tok.line, tok.col)
        registry.add(tok.text)

    def statement(self) -> Statement:
        tok = self.peek()
        if tok.kind != "word":
            self.fail(("statement keyword",))
        pos = (tok.line, tok.col)
        word = tok.text
        if word == "system":
            self.advance()
            if self.have_system:
                raise ParseError("duplicate system declaration", tok.line, tok.col)
            self.have_system = True
            self.expect_keyword("dim")
            dim, _ = self.expect_int("integer dimension")
            return SystemDecl(dim, pos=pos)
        if word == "state":
            self.advance()
            if self.have_state:
                raise ParseError("duplicate state declaration", tok.line, tok.col)
            self.have_state = True
            sel = self.peek()
            if sel.kind == "word" and sel.text == "pure":
                self.advance()
                return PureStateDecl(self.cvec(), pos=pos)
            if sel.kind == "word" and sel.text == "mixed":
                self.advance()
                return MixedStateDecl(self.cmat(), pos=pos)
            self.fail(("'pure'", "'mixed'"))
        if word == "observable":
            self.advance()
            name = self.expect_name("observable name")
            self.declare(self.observables, name, "observable")
            sel = self.peek()
            if sel.kind == "word" and sel.text == "eigen":
                self.advance()
                eigenvalues = self.rvec("eigenvalue")
                self.expect_keyword("basis")
                return EigenObservableDecl(name.text, eigenvalues, self.cmat(), pos=pos)
            if sel.kind == "word" and sel.text == "projectors":
                self.advance()
                eigenvalues = self.rvec("eigenvalue")
                return ProjectorObservableDecl(
                    name.text, eigenvalues, self.cmat_list(), pos=pos
                )
            self.fail(("'eigen'", "'projectors'"))
        if word == "hamiltonian":
            self.advance()
            name = self.expect_name("hamiltonian name")
            self.declare(self.hamiltonians, name, "hamiltonian")
            return HamiltonianDecl(name.text, self.cmat(), pos=pos)
        if word == "device":
            self.advance()
            name = self.expect_name("device name")
            self.declare(self.devices, name, "device")
            sel = self.peek()
            if sel.kind == "word" and sel.text == "measures":
                self.advance()
                obs = self.expect_name("observable name")
                weak = None
                after = self.peek()
                if after.kind == "word" and after.text == "weak":
                    self.advance()
                    weak = self.cmat_list()
                return MeasureDeviceDecl(name.text, obs.text, weak, pos=pos)
            if sel.kind == "word" and sel.text == "reads":
                self.advance()
                target = self.expect_name("device name")
                return ReaderDeviceDecl(name.text, target.text, pos=pos)
            self.fail(("'measures'", "'reads'"))
        if word == "evolve":
            self.advance()
            sel = self.peek()
            if sel.kind == "word" and sel.text == "unitary":
                self.advance()
                return EvolveUnitaryDecl(self.cmat(), pos=pos)
            name = self.expect_name("hamiltonian name")
            self.expect_keyword("t")
            time, _ = self.expect_real("time")
            return EvolveNamedDecl(name.text, time, pos=pos)
        if word == "query":
            self.advance()
            return self.query(pos)
        self.fail((
            "'system'", "'state'", "'observable'", "'hamiltonian'",
            "'device'", "'evolve'", "'query'",
        ))

    def query(self, pos: Pos) -> QueryDecl:
        sel = self.peek()
        if sel.kind != "word":
            self.fail(("query kind",))
        kind = sel.text
        if kind == "marginal":
            self.advance()
            dev = self.expect_name("device name")
            return MarginalQuery(dev.text, pos=pos)
        if kind == "joint":
            self.advance()
            events = [self.event()]
            while self.peek().kind == "word":
                events.append(self.event())
            return JointQuery(tuple(events), pos=pos)
        if kind == "conditional":
            self.advance()
            target = self.event()
            self.expect_keyword("given")
            given = [self.event()]
            while self.peek().kind == "word":
                given.append(self.event())
            return ConditionalQuery(target, tuple(given), pos=pos)
        if kind == "reduced":
            self.advance()
            return ReducedQuery(pos=pos)
        if kind == "repeatability":
            self.advance()
            first = self.expect_name("device name")
            second = self.expect_name("device name")
            return RepeatabilityQuery(first.text, second.text, pos=pos)
        if kind == "equivalence":
            self.advance()
            return EquivalenceQuery(pos=pos)
        self.fail((
            "'marginal'", "'joint'", "'conditional'", "'reduced'",
            "'repeatability'", "'equivalence'",
        ))

    def scenario(self) -> Scenario:
        statements = []
        while self.peek().kind == "newline":
            self.advance()
        while self.peek().kind != "eof":
            statements.append(self.statement())
            self.end_statement()
            while self.peek().kind == "newline":
                self.advance()
        return Scenario(tuple(statements))


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises :class:`ParseError` with a position on any
    lexical or syntax error, including duplicate names."""
    return _Parser(_tokenize(text)).scenario()


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


def _fmt_rvec(vals) -> str:
    return "[" + ", ".join(format_real(v) for v in vals) + "]"


def _fmt_cmat(mat) -> str:
    return "[" + ", ".join(_fmt_cvec(row) for row in mat) + "]"


def _fmt_event(ev: EventRef) -> str:
    return f"{ev.device}={ev.outcome}"


def format_statement(stmt: Statement) -> str:
    if isinstance(stmt, SystemDecl):
        return f"system dim {stmt.dim}"
    if isinstance(stmt, PureStateDecl):
        return f"state pure {_fmt_cvec(stmt.amplitudes)}"
    if isinstance(stmt, MixedStateDecl):
        return f"state mixed {_fmt_cmat(stmt.rows)}"
    if isinstance(stmt, EigenObservableDecl):
        return (
            f"observable {stmt.name} eigen {_fmt_rvec(stmt.eigenvalues)} "
            f"basis {_fmt_cmat(stmt.basis)}"
        )
    if isinstance(stmt, ProjectorObservableDecl):
        mats = " ".join(_fmt_cmat(m) for m in stmt.projectors)
        return f"observable {stmt.name} projectors {_fmt_rvec(stmt.eigenvalues)} {mats}"
    if isinstance(stmt, HamiltonianDecl):
        return f"hamiltonian {stmt.name} {_fmt_cmat(stmt.matrix)}"
    if isinstance(stmt, MeasureDeviceDecl):
        base = f"device {stmt.name} measures {stmt.observable}"
        if stmt.weak is not None:
            base += " weak " + " ".join(_fmt_cmat(m) for m in stmt.weak)
        return base
    if isinstance(stmt, ReaderDeviceDecl):
        return f"device {stmt.name} reads {stmt.target}"
    if isinstance(stmt, EvolveNamedDecl):
        return f"evolve {stmt.hamiltonian} t {format_real(stmt.time)}"
    if isinstance(stmt, EvolveUnitaryDecl):
        return f"evolve unitary {_fmt_cmat(stmt.matrix)}"
    if isinstance(stmt, MarginalQuery):
        return f"query marginal {stmt.device}"
    if isinstance(stmt, JointQuery):
        return "query joint " + " ".join(_fmt_event(e) for e in stmt.events)
    if isinstance(stmt, ConditionalQuery):
        given = " ".join(_fmt_event(e) for e in stmt.given)
        return f"query conditional {_fmt_event(stmt.target)} given {given}"
    if isinstance(stmt, ReducedQuery):
        return "query reduced"
    if isinstance(stmt, RepeatabilityQuery):
        return f"query repeatability {stmt.first} {stmt.second}"
    if isinstance(stmt, EquivalenceQuery):
        return "query equivalence"
    raise TypeError(f"unknown statement {stmt!r}")


def format_scenario(scenario: Scenario) -> str:
    """Canonical text: statement order preserved, whitespace normalized."""
    return "\n".join(format_statement(s) for s in scenario.statements) + "\n"


# --- compiler ----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Attach:
    """Attach ``device`` in ``mode``: "ideal", "weak" (with ``disturbance``)
    or "reader" (of the earlier device labelled ``target``)."""

    device: DeviceSpec
    mode: str
    disturbance: Disturbance | None = None
    target: str | None = None


@dataclass(frozen=True, eq=False)
class Evolution:
    """Evolve the system by the unitary ``matrix``, or, given a ``time``, by
    ``exp(-i matrix time)`` of the Hermitian ``matrix``."""

    matrix: np.ndarray
    time: float | None = None

    @cached_property
    def unitary(self) -> np.ndarray:
        """Exponentiated once, on first use when the chain is built, so a phase
        overflow is a build failure rather than a diagnostic."""
        if self.time is None:
            return self.matrix
        return hermitian_evolution(self.matrix, self.time)


@dataclass(frozen=True, eq=False)
class Program:
    """A scenario compiled into the objects the engine runs.

    ``initial_state`` is a unit vector or a unit-trace density matrix and
    ``events`` holds the devices and evolutions in file order.  A program
    with ``diagnostics`` is incomplete and must not be run.
    """

    initial_state: np.ndarray | None
    observables: dict[str, Observable]
    events: tuple[Attach | Evolution, ...]
    diagnostics: tuple[Diagnostic, ...]


def _np_mat(mat: Mat, name: str) -> np.ndarray:
    """A matrix literal as a finite 2-d complex128 array."""
    if not all(len(row) == len(mat[0]) for row in mat):
        raise ValueError("matrix rows have unequal lengths")
    return as_complex_matrix(np.array(mat, dtype=np.complex128), name)


@np.errstate(over="raise", invalid="raise", divide="raise")
def compile_scenario(scenario: Scenario) -> Program:
    """Compile ``scenario`` in one pass in file order; prefer the memoized
    ``scenario.program``.

    Structural checks: the system and state declarations are present, every
    matrix is finite and square of the system dimension, names resolve in
    file order, queries name attached devices with outcome indices in range
    and no device twice, and the final chain state (system dim times every
    pointer dim, times the system dim again for a mixed state's ancilla)
    stays within ``MAX_AMPLITUDES``, counted before any device is built.
    User input is normalized (state norm or trace, eigenbasis rows) and
    handed to the constructors that check the rest.  Their ValueErrors, and
    float overflows while checking, become diagnostics at the statement.
    """
    diags: list[Diagnostic] = []

    def add(msg: str, pos: Pos):
        diags.append(Diagnostic(msg, pos[0], pos[1]))

    system = scenario.system_decl
    dim = None
    if system is None:
        add("no system declaration", (1, 1))
    elif system.dim < 1:
        add(f"system dimension must be positive, got {system.dim}", system.pos)
    else:
        dim = system.dim

    state = scenario.state_decl
    if state is None:
        add("no state declaration", (1, 1))

    def system_matrix(mat: Mat, name: str) -> np.ndarray:
        m = _np_mat(mat, name)
        if m.shape[0] != m.shape[1] or (dim is not None and m.shape[0] != dim):
            raise ValueError(f"{name} has shape {m.shape} for system {dim}")
        return m

    amplitudes = None
    if dim is not None:
        amplitudes = dim * (dim if isinstance(state, MixedStateDecl) else 1)

    def grow(name: str, pointer_dim: int, pos: Pos) -> bool:
        """Count a device into the final state size; False once the size is
        unknown or past the limit."""
        nonlocal amplitudes
        if amplitudes is None or amplitudes > MAX_AMPLITUDES:
            return False
        amplitudes *= pointer_dim
        if amplitudes > MAX_AMPLITUDES:
            add(
                f"device {name!r} grows the chain state to {amplitudes} amplitudes "
                f"({16 * amplitudes} bytes), past the limit of {MAX_AMPLITUDES}",
                pos,
            )
            return False
        return True

    initial = None
    outcome_counts: dict[str, int] = {}  # observable name -> outcome count
    observables: dict[str, Observable] = {}
    hamiltonians: dict[str, np.ndarray | None] = {}  # None: declared, not built
    devices: dict[str, int] = {}  # device name -> outcome count
    specs: dict[str, DeviceSpec] = {}
    events: list[Attach | Evolution] = []

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
                initial = DensityState(SYSTEM_LABEL, m / tr).matrix
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
                fits = grow(stmt.name, count + 1, stmt.pos)
                disturbance = None
                if stmt.weak is not None:
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
                    spec = specs[stmt.name] = make_device(stmt.name, observables[stmt.observable])
                    mode = "ideal" if disturbance is None else "weak"
                    events.append(Attach(spec, mode, disturbance))
            elif isinstance(stmt, ReaderDeviceDecl):
                if stmt.target not in devices:
                    devices[stmt.name] = 0
                    raise ValueError(f"undefined device {stmt.target!r}")
                # Reader outcomes: one per pointer state of the target.
                devices[stmt.name] = devices[stmt.target] + 1
                fits = grow(stmt.name, devices[stmt.name] + 1, stmt.pos)
                if fits and stmt.target in specs:
                    spec = specs[stmt.name] = make_reader_device(stmt.name, specs[stmt.target])
                    events.append(Attach(spec, "reader", target=stmt.target))
            elif isinstance(stmt, EvolveNamedDecl):
                if stmt.hamiltonian not in hamiltonians:
                    add(f"undefined hamiltonian {stmt.hamiltonian!r}", stmt.pos)
                if not np.isfinite(stmt.time):
                    raise ValueError("evolution time must be finite")
                if hamiltonians.get(stmt.hamiltonian) is not None:
                    events.append(Evolution(hamiltonians[stmt.hamiltonian], stmt.time))
            elif isinstance(stmt, EvolveUnitaryDecl):
                u = as_unitary(system_matrix(stmt.matrix, "evolution"), "evolution")
                events.append(Evolution(u))
        except (ValueError, FloatingPointError) as exc:
            add(str(exc), stmt.pos)
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
    return Program(initial, observables, tuple(events), tuple(diags))


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
