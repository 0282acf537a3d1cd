"""Core value, event, subscription, and advertisement types with text forms.

Events are lists of attribute-value pairs; subscriptions are conjunctions of
predicates; advertisements share the predicate syntax but are read
disjunctively (they describe the space of pairs a publisher may emit).

Text grammar (whitespace insignificant outside quotes):

    event      := "{" pair ("," pair)* "}"
    pair       := "(" attr "," value ")"
    sub / adv  := predicate ("AND" predicate)*
    predicate  := "(" attr op value ")"
    attr       := bareword | quoted-string          (lowercased)
    value      := quoted-string | integer | "true" | "false"
    op         := "=" | "!=" | "<" | "<=" | ">" | ">="

Attribute names and string values are canonicalized to lowercase at parse
time.  Integers are exact signed 64-bit; there is no floating point.
Ordering operators apply to integer values only.
"""

from __future__ import annotations

import enum
import re
import reprlib
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Callable, Iterable, NamedTuple, TypeVar, Union

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

_BAREWORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*\Z")


class ParseError(ValueError):
    """Raised on malformed entity text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_EXCERPT = reprlib.Repr()
_EXCERPT.maxlevel = 2
_EXCERPT_LIMIT = 60


def excerpt(raw: object) -> str:
    """`repr(raw)` cut to at most 60 characters, for quoting rejected input
    in an error message; nesting past two levels shows as `...`."""
    text = _EXCERPT.repr(raw)
    if len(text) <= _EXCERPT_LIMIT:
        return text
    return text[: _EXCERPT_LIMIT - 3] + "..."


_T = TypeVar("_T")
_K = TypeVar("_K")


def _hash_once(cls: type[_T]) -> type[_T]:
    """Keep the dataclass-generated hash after its first computation.

    Entities are immutable and serve as keys of sets and dicts again and
    again: routing looks `Value`s up in the kept summaries at every hop, and
    the CLI and the tests key `semantic.sem_match`'s memo, which routing no
    longer fills, on events and subscriptions.  The generated hash rehashes
    every nested entity on each call.  The kept
    value is the generated one, over compared fields only (so never `id`),
    computed on first use rather than at construction, because most parsed
    entities are never hashed.  The pickled state is exactly the dataclass
    fields: string hashes differ between interpreter processes, and what
    `kept` and the cached properties hold is rebuilt on first use.
    """
    generated = cls.__hash__
    names = tuple(f.name for f in fields(cls))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = generated(self)
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in names}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


def kept(entity: Any, name: str, key: _K, build: Callable[[Any, _K], _T]) -> _T:
    """`build(entity, key)`, built on first use and kept on the entity.

    Routing and the relations keep here what they derive from an entity (a
    normal form, a per-attribute summary, an attribute set), the way
    `_hash_once` keeps the hash: as an instance attribute, outside the
    compared fields and the pickled state.  `key` is the hierarchy or
    knowledge base it is built under; asked under another one, it is
    rebuilt, and only the last is kept.
    """
    held = getattr(entity, name, None)
    if held is None or held[0] is not key:
        held = (key, build(entity, key))
        object.__setattr__(entity, name, held)
    return held[1]


def group_by_attribute(items: Iterable[tuple[str, _T]]) -> dict[str, list[_T]]:
    """The items' second parts in order, keyed by their attribute."""
    grouped: dict[str, list[_T]] = {}
    for attribute, item in items:
        grouped.setdefault(attribute, []).append(item)
    return grouped


class ValueKind(enum.Enum):
    STRING = "string"
    INT = "int"
    BOOL = "bool"


@_hash_once
@dataclass(frozen=True)
class Value:
    """A string, integer, or boolean attribute value.

    The explicit kind tag keeps values of different kinds unequal even where
    Python's own equality would conflate them (``True == 1``).
    """

    kind: ValueKind
    data: Union[str, int, bool]

    @staticmethod
    def string(text: str) -> "Value":
        text = text.lower()
        if not text:
            raise ValueError("string values must be non-empty")
        return Value(ValueKind.STRING, text)

    @staticmethod
    def integer(number: int) -> "Value":
        if not (INT_MIN <= number <= INT_MAX):
            raise ValueError(f"integer out of 64-bit range: {number}")
        return Value(ValueKind.INT, int(number))

    @staticmethod
    def boolean(flag: bool) -> "Value":
        return Value(ValueKind.BOOL, bool(flag))

    @property
    def is_int(self) -> bool:
        return self.kind is ValueKind.INT

    @property
    def is_string(self) -> bool:
        return self.kind is ValueKind.STRING


class RelOp(enum.Enum):
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @property
    def is_ordering(self) -> bool:
        return self in (RelOp.LT, RelOp.LE, RelOp.GT, RelOp.GE)

    def holds(self, left: Value, right: Value) -> bool:
        """Evaluate ``left op right``.

        Equality and inequality compare across kinds (values of different
        kinds are simply unequal).  Ordering operators are defined on
        integers only; any other kind makes the relation false.
        """
        if self is RelOp.EQ:
            return left == right
        if self is RelOp.NE:
            return left != right
        if not (left.is_int and right.is_int):
            return False
        a, b = left.data, right.data
        if self is RelOp.LT:
            return a < b
        if self is RelOp.LE:
            return a <= b
        if self is RelOp.GT:
            return a > b
        return a >= b


@_hash_once
@dataclass(frozen=True)
class Pair:
    attribute: str
    value: Value


@_hash_once
@dataclass(frozen=True)
class Predicate:
    attribute: str
    op: RelOp
    value: Value

    @cached_property
    def interval(self) -> tuple[int | None, int | None]:
        """The closed integer interval satisfying an ordering predicate, as
        (lo, hi) with None for the unbounded side; built on first use and
        kept.  Only ordering operators have one; their values are integers
        by construction."""
        v = self.value.data
        if self.op is RelOp.LE:
            return (None, v)
        if self.op is RelOp.LT:
            return (None, v - 1)
        if self.op is RelOp.GE:
            return (v, None)
        if self.op is RelOp.GT:
            return (v + 1, None)
        raise ValueError(f"no interval for operator {self.op.value!r}")


@_hash_once
@dataclass(frozen=True)
class Event:
    """An ordered list of attribute-value pairs.

    The parser rejects duplicate attribute names; events built directly (for
    example by semantic augmentation) may carry several pairs per attribute.
    """

    pairs: tuple[Pair, ...]

    @cached_property
    def by_attribute(self) -> dict[str, list[Value]]:
        """The event's values keyed by attribute, built on first use and kept."""
        return group_by_attribute((p.attribute, p.value) for p in self.pairs)


class Row(NamedTuple):
    """What a subscription requires at one attribute: every `=` value, every
    `!=` value, and the largest lower bound and smallest upper bound of its
    ordering predicates, closed as `Predicate.interval` closes them (None
    when it has none).  Each predicate is quantified over its own value, so
    the row holds each one rather than their intersection."""

    attribute: str
    equal: tuple[Value, ...]
    unequal: tuple[Value, ...]
    lo: int | None
    hi: int | None


@_hash_once
@dataclass(frozen=True)
class Subscription:
    """A conjunction of predicates; the id is an opaque routing token."""

    predicates: tuple[Predicate, ...]
    id: str = field(default="", compare=False)

    @cached_property
    def requirement(self) -> tuple[Row, ...]:
        """One `Row` per attribute, in the order the attributes first
        appear; built on first use and kept."""
        rows: dict[str, tuple[list[Value], list[Value], list[int | None]]] = {}
        for p in self.predicates:
            row = rows.get(p.attribute)
            if row is None:
                row = rows[p.attribute] = ([], [], [None, None])
            if p.op is RelOp.EQ:
                row[0].append(p.value)
            elif p.op is RelOp.NE:
                row[1].append(p.value)
            else:
                bounds = row[2]
                lo, hi = p.interval
                if hi is None:
                    if bounds[0] is None or lo > bounds[0]:
                        bounds[0] = lo
                elif bounds[1] is None or hi < bounds[1]:
                    bounds[1] = hi
        return tuple(
            Row(attribute, tuple(equal), tuple(unequal), lo, hi)
            for attribute, (equal, unequal, (lo, hi)) in rows.items()
        )


@_hash_once
@dataclass(frozen=True)
class Advertisement:
    """A disjunctive predicate set announcing future publications."""

    predicates: tuple[Predicate, ...]
    id: str = field(default="", compare=False)

    @cached_property
    def by_attribute(self) -> dict[str, list[Predicate]]:
        """The predicates keyed by attribute, built on first use and kept."""
        return group_by_attribute((p.attribute, p) for p in self.predicates)


Entity = Union[Event, Subscription, Advertisement]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<punct>[{}(),])
  | (?P<op>!=|<=|>=|=|<|>)
  | (?P<int>-?[0-9]+)
  | (?P<quoted>"(?:[^"\\]|\\.)*")
  | (?P<bare>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    # Every position starts a match (`bad` takes any character the others
    # refuse, `ws` the newlines), so one pass sees the text whole.
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append(_Token(kind, m.group(), m.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _unquote(token: _Token) -> str:
    body = token.text[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            out.append(body[i + 1])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        if tok.kind != "eof":
            self.index += 1
        return tok

    def expect_punct(self, symbol: str) -> _Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != symbol:
            raise ParseError(f"expected {symbol!r}", tok.position)
        return self.advance()

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {excerpt(tok.text)}", tok.position)

    def attribute(self) -> str:
        tok = self.peek()
        if tok.kind == "bare":
            self.advance()
            return tok.text.lower()
        if tok.kind == "quoted":
            self.advance()
            name = _unquote(tok).lower()
            if not name:
                raise ParseError("empty attribute name", tok.position)
            return name
        raise ParseError("expected attribute name", tok.position)

    def value(self) -> Value:
        tok = self.peek()
        if tok.kind == "quoted":
            self.advance()
            text = _unquote(tok)
            if not text:
                raise ParseError("empty string value", tok.position)
            return Value.string(text)
        if tok.kind == "int":
            self.advance()
            try:
                number = int(tok.text)
            except ValueError:  # more digits than int() converts
                number = None
            if number is None or not (INT_MIN <= number <= INT_MAX):
                raise ParseError("integer out of 64-bit range", tok.position)
            return Value.integer(number)
        if tok.kind == "bare" and tok.text.lower() in ("true", "false"):
            self.advance()
            return Value.boolean(tok.text.lower() == "true")
        raise ParseError("expected value", tok.position)

    def pair(self) -> Pair:
        self.expect_punct("(")
        attr = self.attribute()
        self.expect_punct(",")
        val = self.value()
        self.expect_punct(")")
        return Pair(attr, val)

    def predicate(self) -> Predicate:
        open_tok = self.expect_punct("(")
        attr = self.attribute()
        tok = self.peek()
        if tok.kind != "op":
            raise ParseError("expected relational operator", tok.position)
        self.advance()
        op = RelOp(tok.text)
        val = self.value()
        self.expect_punct(")")
        if op.is_ordering and not val.is_int:
            raise ParseError(
                f"ordering operator {op.value!r} requires an integer value",
                open_tok.position,
            )
        return Predicate(attr, op, val)


def parse_event(text: str) -> Event:
    """Parse ``{(attr, value), ...}`` into a canonical event."""
    parser = _Parser(text)
    open_tok = parser.expect_punct("{")
    if parser.peek().kind == "punct" and parser.peek().text == "}":
        raise ParseError("empty event", open_tok.position)
    pairs = [parser.pair()]
    while parser.peek().text == ",":
        parser.advance()
        pairs.append(parser.pair())
    parser.expect_punct("}")
    parser.expect_eof()
    seen = set()
    for p in pairs:
        if p.attribute in seen:
            raise ParseError(f"duplicate attribute {excerpt(p.attribute)}", 0)
        seen.add(p.attribute)
    return Event(tuple(pairs))


def _parse_predicates(text: str, what: str) -> tuple[Predicate, ...]:
    parser = _Parser(text)
    if parser.peek().kind == "eof":
        raise ParseError(f"empty {what}", 0)
    predicates = [parser.predicate()]
    while True:
        tok = parser.peek()
        if tok.kind == "bare" and tok.text.upper() == "AND":
            parser.advance()
            predicates.append(parser.predicate())
        else:
            break
    parser.expect_eof()
    return tuple(predicates)


def parse_subscription(text: str, sub_id: str | None = None) -> Subscription:
    """Parse ``(attr op value) AND ...`` into a subscription.

    The id defaults to the canonical rendered text, which is stable across
    runs and unique per content.
    """
    predicates = _parse_predicates(text, "subscription")
    canonical = _render_predicates(predicates)
    return Subscription(predicates, id=sub_id if sub_id is not None else canonical)


def parse_advertisement(text: str, adv_id: str | None = None) -> Advertisement:
    """Parse the subscription grammar into an advertisement."""
    predicates = _parse_predicates(text, "advertisement")
    canonical = _render_predicates(predicates)
    return Advertisement(predicates, id=adv_id if adv_id is not None else canonical)


def _render_attr(name: str) -> str:
    if _BAREWORD_RE.match(name):
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render_value(value: Value) -> str:
    if value.kind is ValueKind.STRING:
        text = value.data
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if value.kind is ValueKind.BOOL:
        return "true" if value.data else "false"
    return str(value.data)


def _render_predicates(predicates: tuple[Predicate, ...]) -> str:
    parts = [
        f"({_render_attr(p.attribute)} {p.op.value} {_render_value(p.value)})"
        for p in predicates
    ]
    return " AND ".join(parts)


def render_pair(pair: Pair) -> str:
    return f"({_render_attr(pair.attribute)}, {_render_value(pair.value)})"


def render(entity: Entity) -> str:
    """Canonical text of an entity; parsing it back yields an equal entity."""
    if isinstance(entity, Event):
        return "{" + ", ".join(render_pair(p) for p in entity.pairs) + "}"
    if isinstance(entity, (Subscription, Advertisement)):
        return _render_predicates(entity.predicates)
    raise TypeError(f"cannot render {type(entity).__name__}")
