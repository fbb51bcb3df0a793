"""Scenario description language: parser, validator, canonical formatter.

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

The canonical formatter emits one statement per line with single spaces and
17 significant digits, enough for float64 round trips, and
``parse_scenario(format_scenario(s))`` equals ``s`` (source positions are
ignored by equality).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, hermiticity_residual, unitarity_residual
from .model import EIGENVALUE_SEPARATION

KEYWORDS = frozenset(
    {
        "system", "dim", "state", "pure", "mixed", "observable", "eigen",
        "basis", "projectors", "hamiltonian", "device", "measures", "weak",
        "reads", "evolve", "unitary", "t", "query", "marginal", "joint",
        "conditional", "given", "reduced", "repeatability", "equivalence",
    }
)

# Largest final chain state a scenario may ask for: 2**26 complex128
# amplitudes, 1 GiB.  The validator checks it from the declarations alone.
MAX_AMPLITUDES = 2**26

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


DeviceDecl = MeasureDeviceDecl | ReaderDeviceDecl
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
    def hamiltonians(self) -> dict[str, HamiltonianDecl]:
        return {s.name: s for s in self.statements if isinstance(s, HamiltonianDecl)}

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


# --- validator ---------------------------------------------------------------

def _mat_ok(mat: Mat) -> bool:
    return bool(mat) and all(len(row) == len(mat[0]) for row in mat)


def _np_mat(mat: Mat) -> np.ndarray:
    return np.array([[complex(z) for z in row] for row in mat], dtype=np.complex128)


def validate_scenario(scenario: Scenario) -> list[Diagnostic]:
    """Semantic diagnostics; an empty list means the scenario is runnable.

    Checks cover: presence of system/state declarations, dimension
    consistency, normalizability of states, observable structure
    (orthonormality, distinct eigenvalues, projector completeness), Hermitian
    generators, unitary disturbances and explicit evolutions, name resolution
    in file order, query references (devices attached, outcome indices in
    range, no duplicate devices per query), and the size of the final chain
    state: system dim times every pointer dim (times the system dim again for
    the ancilla of a mixed state) must stay within ``MAX_AMPLITUDES``.
    """
    diags: list[Diagnostic] = []

    def add(msg: str, pos: Pos):
        diags.append(Diagnostic(msg, pos[0], pos[1]))

    system = scenario.system_decl
    if system is None:
        add("no system declaration", (1, 1))
        dim = None
    else:
        dim = system.dim
        if dim < 1:
            add(f"system dimension must be positive, got {dim}", system.pos)
            dim = None

    state = scenario.state_decl
    if state is None:
        add("no state declaration", (1, 1))

    observables: dict[str, int] = {}  # name -> outcome count
    hamiltonians: set[str] = set()
    devices: dict[str, int] = {}  # name -> outcome count
    system_label = "S"
    amplitudes = None
    if dim is not None:
        amplitudes = dim * (dim if isinstance(state, MixedStateDecl) else 1)

    def grow(name: str, pointer_dim: int, pos: Pos):
        nonlocal amplitudes
        if amplitudes is None or amplitudes > MAX_AMPLITUDES:
            return
        amplitudes *= pointer_dim
        if amplitudes > MAX_AMPLITUDES:
            add(
                f"device {name!r} grows the chain state to {amplitudes} amplitudes "
                f"({16 * amplitudes} bytes), past the limit of {MAX_AMPLITUDES}",
                pos,
            )

    for stmt in scenario.statements:
        if isinstance(stmt, PureStateDecl):
            if dim is not None and len(stmt.amplitudes) != dim:
                add(
                    f"state has {len(stmt.amplitudes)} amplitudes for dimension {dim}",
                    stmt.pos,
                )
                continue
            v = np.array([complex(z) for z in stmt.amplitudes])
            if float(np.linalg.norm(v)) <= 1e-12:
                add("state is not normalizable (norm is zero)", stmt.pos)
        elif isinstance(stmt, MixedStateDecl):
            if not _mat_ok(stmt.rows):
                add("matrix rows have unequal lengths", stmt.pos)
                continue
            m = _np_mat(stmt.rows)
            if m.shape[0] != m.shape[1]:
                add(f"mixed state must be square, got shape {m.shape}", stmt.pos)
                continue
            if dim is not None and m.shape[0] != dim:
                add(f"mixed state has dimension {m.shape[0]} for system {dim}", stmt.pos)
                continue
            res = hermiticity_residual(m)
            if res > DEFAULT_TOL:
                add(f"mixed state is not Hermitian (residual {res:.3e})", stmt.pos)
                continue
            tr = float(np.trace(m).real)
            if tr <= 1e-12:
                add("mixed state is not normalizable (trace is zero)", stmt.pos)
                continue
            low = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2))) / tr
            if low < -DEFAULT_TOL:
                add(f"mixed state has negative eigenvalue {low:.3e}", stmt.pos)
        elif isinstance(stmt, EigenObservableDecl):
            count = len(stmt.eigenvalues)
            observables[stmt.name] = count
            if not _mat_ok(stmt.basis):
                add("matrix rows have unequal lengths", stmt.pos)
                continue
            rows = _np_mat(stmt.basis)
            if dim is not None and rows.shape[1] != dim:
                add(
                    f"eigenbasis rows have dimension {rows.shape[1]} for system {dim}",
                    stmt.pos,
                )
                continue
            if rows.shape[0] != count:
                add(
                    f"{count} eigenvalues but {rows.shape[0]} basis rows",
                    stmt.pos,
                )
                continue
            if rows.shape[0] != rows.shape[1]:
                add(
                    f"{rows.shape[0]} basis rows for dimension {rows.shape[1]}",
                    stmt.pos,
                )
                continue
            norms = np.linalg.norm(rows, axis=1)
            if float(np.min(norms)) <= 1e-12:
                add("eigenbasis contains a zero row", stmt.pos)
                continue
            unit = rows / norms[:, None]
            res = float(np.max(np.abs(unit.conj() @ unit.T - np.eye(rows.shape[0]))))
            if res > DEFAULT_TOL:
                add(f"non-orthonormal eigenbasis (residual {res:.3e})", stmt.pos)
            _check_eigenvalues(stmt.eigenvalues, stmt.pos, add)
        elif isinstance(stmt, ProjectorObservableDecl):
            count = len(stmt.eigenvalues)
            observables[stmt.name] = count
            if len(stmt.projectors) != count:
                add(
                    f"{count} eigenvalues but {len(stmt.projectors)} projectors",
                    stmt.pos,
                )
                continue
            mats = []
            bad = False
            for m in stmt.projectors:
                if not _mat_ok(m):
                    add("matrix rows have unequal lengths", stmt.pos)
                    bad = True
                    break
                mats.append(_np_mat(m))
            if bad:
                continue
            d0 = mats[0].shape
            if d0[0] != d0[1] or any(m.shape != d0 for m in mats):
                add("projectors must be square matrices of one dimension", stmt.pos)
                continue
            if dim is not None and d0[0] != dim:
                add(f"projectors have dimension {d0[0]} for system {dim}", stmt.pos)
                continue
            for i, m in enumerate(mats, start=1):
                res = hermiticity_residual(m)
                if res > DEFAULT_TOL:
                    add(f"projector {i} is not Hermitian (residual {res:.3e})", stmt.pos)
                res = float(np.max(np.abs(m @ m - m)))
                if res > DEFAULT_TOL:
                    add(f"projector {i} is not idempotent (residual {res:.3e})", stmt.pos)
            total = sum(mats)
            res = float(np.max(np.abs(total - np.eye(d0[0]))))
            if res > DEFAULT_TOL:
                add(f"projectors do not sum to identity (residual {res:.3e})", stmt.pos)
            _check_eigenvalues(stmt.eigenvalues, stmt.pos, add)
        elif isinstance(stmt, HamiltonianDecl):
            hamiltonians.add(stmt.name)
            if not _mat_ok(stmt.matrix):
                add("matrix rows have unequal lengths", stmt.pos)
                continue
            m = _np_mat(stmt.matrix)
            if m.shape[0] != m.shape[1]:
                add(f"hamiltonian must be square, got shape {m.shape}", stmt.pos)
                continue
            if dim is not None and m.shape[0] != dim:
                add(f"hamiltonian has dimension {m.shape[0]} for system {dim}", stmt.pos)
                continue
            res = hermiticity_residual(m)
            if res > DEFAULT_TOL:
                add(f"hamiltonian {stmt.name!r} is not Hermitian (residual {res:.3e})", stmt.pos)
        elif isinstance(stmt, MeasureDeviceDecl):
            if stmt.name == system_label:
                add(f"device label {system_label!r} is reserved for the system", stmt.pos)
            if stmt.observable not in observables:
                add(f"undefined observable {stmt.observable!r}", stmt.pos)
                devices[stmt.name] = 0
                continue
            count = observables[stmt.observable]
            devices[stmt.name] = count
            grow(stmt.name, count + 1, stmt.pos)
            if stmt.weak is not None:
                if len(stmt.weak) != count:
                    add(
                        f"weak device needs {count} disturbance matrices, "
                        f"got {len(stmt.weak)}",
                        stmt.pos,
                    )
                    continue
                for i, m in enumerate(stmt.weak, start=1):
                    if not _mat_ok(m):
                        add("matrix rows have unequal lengths", stmt.pos)
                        continue
                    arr = _np_mat(m)
                    if arr.shape[0] != arr.shape[1] or (
                        dim is not None and arr.shape[0] != dim
                    ):
                        add(
                            f"disturbance {i} has shape {arr.shape} for system {dim}",
                            stmt.pos,
                        )
                        continue
                    res = unitarity_residual(arr)
                    if res > DEFAULT_TOL:
                        add(f"disturbance {i} is not unitary (residual {res:.3e})", stmt.pos)
        elif isinstance(stmt, ReaderDeviceDecl):
            if stmt.name == system_label:
                add(f"device label {system_label!r} is reserved for the system", stmt.pos)
            if stmt.target not in devices:
                add(f"undefined device {stmt.target!r}", stmt.pos)
                devices[stmt.name] = 0
            else:
                # Reader outcomes: one per pointer state of the target.
                devices[stmt.name] = devices[stmt.target] + 1
                grow(stmt.name, devices[stmt.name] + 1, stmt.pos)
        elif isinstance(stmt, EvolveNamedDecl):
            if stmt.hamiltonian not in hamiltonians:
                add(f"undefined hamiltonian {stmt.hamiltonian!r}", stmt.pos)
            if not np.isfinite(stmt.time):
                add("evolution time must be finite", stmt.pos)
        elif isinstance(stmt, EvolveUnitaryDecl):
            if not _mat_ok(stmt.matrix):
                add("matrix rows have unequal lengths", stmt.pos)
                continue
            m = _np_mat(stmt.matrix)
            if m.shape[0] != m.shape[1] or (dim is not None and m.shape[0] != dim):
                add(f"evolution has shape {m.shape} for system {dim}", stmt.pos)
                continue
            res = unitarity_residual(m)
            if res > DEFAULT_TOL:
                add(f"evolution is not unitary (residual {res:.3e})", stmt.pos)
        elif isinstance(stmt, MarginalQuery):
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
    return diags


def _check_eigenvalues(values, pos: Pos, add) -> None:
    vals = sorted(values)
    for a, b in zip(vals, vals[1:]):
        if abs(b - a) <= EIGENVALUE_SEPARATION:
            add(f"eigenvalues not distinct: {a!r} and {b!r}", pos)
            return


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
