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

Entities compare and hash by their fields; what is derived from them (the
cached properties, `kept`) stays outside those, and is rebuilt on first use
after unpickling.  `split_by_operator` is the one operator split that every
summary of a predicate set reads.  `read_document`, `read_object`,
`read_name` and `read_file` are the loaders' one reader per kind of outside
input: a document, a nested object, a name and a file.
"""

from __future__ import annotations

import enum
import json
import re
import reprlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
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


def read_document(
    document: Union[bytes, str, dict], error: type[ValueError], noun: str, known: set
) -> dict:
    """The loader's JSON object, decoded if need be; `error` when it is not
    one (naming the `noun`) or holds a key outside `known`."""
    if isinstance(document, (bytes, str)):
        try:
            data = json.loads(document)
        # ValueError also covers bytes that are not UTF-8 and integers too
        # long to convert; RecursionError, nesting deeper than the decoder
        # can recurse.
        except (ValueError, RecursionError) as err:
            raise error(f"invalid JSON: {err}") from None
    else:
        data = document
    if not isinstance(data, dict):
        raise error(f"{noun} must be a JSON object")
    check_keys(data, known, error)
    return data


def check_keys(
    data: dict, known: set, error: type[ValueError], where: str = ""
) -> None:
    """`error` when `data` holds a key outside `known`; the message names
    `where`, if given, as in `mappings[0]: unknown keys: ['gaurd']`."""
    if not data.keys() <= known:
        unknown = f"unknown keys: {excerpt(sorted(data.keys() - known))}"
        raise error(f"{where}: {unknown}" if where else unknown)


def read_object(
    raw: object,
    required: tuple[str, ...],
    optional: tuple[str, ...],
    error: type[ValueError],
    where: str,
) -> dict:
    """`raw`, a JSON object holding every `required` key and nothing outside
    `required` and `optional`; else `error`, as in `clients[1]: need id,
    broker`."""
    if not (isinstance(raw, dict) and all(map(raw.__contains__, required))):
        raise error(f"{where}: need {', '.join(required)}")
    # Holding every required key, an object no larger holds no other.
    if len(raw) > len(required):
        check_keys(raw, {*required, *optional}, error, where)
    return raw


def read_name(raw: object, what: str, error: type[ValueError]) -> str:
    """`raw`, a non-empty string; else `error` naming `what`."""
    if isinstance(raw, str) and raw:
        return raw
    raise error(f"{what} must be a non-empty string")


def read_file(path: Path, error: type[Exception], what: str) -> bytes:
    """The bytes at `path`; `error` naming `what` when they cannot be read,
    a NUL in the path (a ValueError) included."""
    try:
        return path.read_bytes()
    except (OSError, ValueError) as err:
        raise error(f"cannot read {what}: {err}") from None


def list_field(data: dict, key: str, error: type[ValueError]) -> list:
    """`data[key]`, an empty list when absent; `error` when it is no list."""
    value = data.get(key, [])
    if not isinstance(value, list):
        raise error(f"{key} must be a list")
    return value


_T = TypeVar("_T")
_K = TypeVar("_K")


def kept(entity: Any, name: str, key: _K, build: Callable[[Any, _K], _T]) -> _T:
    """`build(entity, key)`, built on first use and kept on the entity.

    Routing and the relations keep here what they derive from an entity (a
    normal form, a per-attribute summary, an attribute set) the way the
    cached properties keep theirs: as an instance attribute, outside the
    compared fields.  `key` is the knowledge base it is built under; asked
    under another one (by identity), it is rebuilt; only the last is kept.
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

    # Members are singletons, so identity is their equality; every `Value`
    # hash includes its kind's, and `Enum.__hash__` is a Python-level call
    # where this one is C.
    __hash__ = object.__hash__


class Value(NamedTuple):
    """A string, integer, or boolean attribute value.

    The explicit kind tag keeps values of different kinds unequal even where
    Python's own equality would conflate them (``True == 1``).  A value is a
    named tuple, so it hashes and compares in C: routing looks values up in
    the kept summaries at every hop.
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

    # As for `ValueKind`: identity is equality, and this hash is C.
    __hash__ = object.__hash__

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


class Pair(NamedTuple):
    attribute: str
    value: Value


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


def split_by_operator(
    preds: Iterable[Predicate],
) -> tuple[list[Value], list[Value], list[int], list[int]]:
    """The predicates' `=` values, `!=` values, and lower and upper bounds,
    closed as `Predicate.interval` closes them; each in predicate order."""
    equal: list[Value] = []
    unequal: list[Value] = []
    lows: list[int] = []
    highs: list[int] = []
    for p in preds:
        if p.op is RelOp.EQ:
            equal.append(p.value)
        elif p.op is RelOp.NE:
            unequal.append(p.value)
        else:
            lo, hi = p.interval
            if hi is None:
                lows.append(lo)
            else:
                highs.append(hi)
    return equal, unequal, lows, highs


@dataclass(frozen=True)
class Event:
    """An ordered list of attribute-value pairs.

    The parser rejects duplicate attribute names; events built directly (for
    example by `semantic.normalize_event`, where synonyms can merge two
    attributes into one) may carry several pairs per attribute.
    """

    pairs: tuple[Pair, ...]


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


@dataclass(frozen=True)
class Subscription:
    """A conjunction of predicates; the id is an opaque routing token."""

    predicates: tuple[Predicate, ...]
    id: str = field(default="", compare=False)

    @cached_property
    def requirement(self) -> tuple[Row, ...]:
        """One `Row` per attribute, in the order the attributes first
        appear; built on first use and kept."""
        grouped = group_by_attribute((p.attribute, p) for p in self.predicates)
        rows = []
        for attribute, preds in grouped.items():
            equal, unequal, lows, highs = split_by_operator(preds)
            lo, hi = max(lows, default=None), min(highs, default=None)
            rows.append(Row(attribute, tuple(equal), tuple(unequal), lo, hi))
        return tuple(rows)


@dataclass(frozen=True)
class Advertisement:
    """A disjunctive predicate set announcing future publications."""

    predicates: tuple[Predicate, ...]
    id: str = field(default="", compare=False)


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


def _unquote(quoted: str) -> str:
    body = quoted[1:-1]
    if "\\" not in body:
        return body
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
            name = _unquote(tok.text).lower()
            if not name:
                raise ParseError("empty attribute name", tok.position)
            return name
        raise ParseError("expected attribute name", tok.position)

    def value(self) -> Value:
        tok = self.peek()
        if tok.kind == "quoted":
            self.advance()
            text = _unquote(tok.text)
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
        op = _RELOPS[tok.text]
        val = self.value()
        self.expect_punct(")")
        if op.is_ordering and not val.is_int:
            raise ParseError(
                f"ordering operator {op.value!r} requires an integer value",
                open_tok.position,
            )
        return Predicate(attr, op, val)

    def event_pairs(self) -> tuple[Pair, ...]:
        open_tok = self.expect_punct("{")
        if self.peek().kind == "punct" and self.peek().text == "}":
            raise ParseError("empty event", open_tok.position)
        pairs = [self.pair()]
        while self.peek().text == ",":
            self.advance()
            pairs.append(self.pair())
        self.expect_punct("}")
        self.expect_eof()
        seen = set()
        for p in pairs:
            if p.attribute in seen:
                raise ParseError(f"duplicate attribute {excerpt(p.attribute)}", 0)
            seen.add(p.attribute)
        return tuple(pairs)

    def predicates(self, what: str) -> tuple[Predicate, ...]:
        if self.peek().kind == "eof":
            raise ParseError(f"empty {what}", 0)
        predicates = [self.predicate()]
        while True:
            tok = self.peek()
            if tok.kind == "bare" and tok.text.upper() == "AND":
                self.advance()
                predicates.append(self.predicate())
            else:
                break
        self.expect_eof()
        return tuple(predicates)


# Production scanning.  Each pattern reads one whole pair or predicate, with
# the separator before it and the whitespace around both, as the tokens the
# tokenizer would make of the same text: a word ends only where no bareword
# character follows, so `ANDx` or `truex` never reads as a keyword.  A text
# the scans do not consume whole, or that breaks a rule they leave to code
# (the 64-bit range, integer values under ordering operators, duplicate
# event attributes), goes to `_Parser`, which alone reports what is wrong.
# Empty quotes and integers of more than 19 digits never scan, so `_Parser`
# reports the former and judges the latter.
_SCAN_ATTRIBUTE = r'(?:([A-Za-z_][A-Za-z0-9_\-]*)|("(?:[^"\\]|\\.)+"))'
_SCAN_VALUE = (
    r'(?:(-?[0-9]{1,19})|("(?:[^"\\]|\\.)+")|([Tt][Rr][Uu][Ee])|[Ff][Aa][Ll][Ss][Ee])'
)
_PAIR_RE = re.compile(
    rf"\s*([{{,])\s*\(\s*{_SCAN_ATTRIBUTE}\s*,\s*{_SCAN_VALUE}\s*\)\s*(\}}\s*\Z)?"
)
_PREDICATE_RE = re.compile(
    rf"\s*([Aa][Nn][Dd])?\s*\(\s*{_SCAN_ATTRIBUTE}\s*(!=|<=|>=|=|<|>)\s*{_SCAN_VALUE}\s*\)\s*"
)
_RELOPS = {op.value: op for op in RelOp}
# Each operator's text, read without the enum's Python-level `value` property.
_OP_TEXT = {op: text for text, op in _RELOPS.items()}


def _scanned_value(number: str | None, quoted: str | None, true: str | None) -> Value | None:
    if number is not None:
        data = int(number)
        if not INT_MIN <= data <= INT_MAX:
            return None
        return Value(ValueKind.INT, data)
    if quoted is not None:
        return Value(ValueKind.STRING, _unquote(quoted).lower())
    return Value(ValueKind.BOOL, true is not None)


def _scan_pairs(text: str) -> tuple[Pair, ...] | None:
    """The event's pairs if the pair scan reads `text` whole, else None."""
    pairs: list[Pair] = []
    end = 0
    closed = None
    for m in _PAIR_RE.finditer(text):
        separator, bare, quoted, number, string, true, closed = m.groups()
        if m.start() != end or (separator == "{") != (end == 0):
            return None
        value = _scanned_value(number, string, true)
        if value is None:
            return None
        attribute = bare.lower() if bare else _unquote(quoted).lower()
        pairs.append(Pair(attribute, value))
        end = m.end()
    if closed is None or len({p.attribute for p in pairs}) < len(pairs):
        return None
    return tuple(pairs)


def _scan_predicates(text: str) -> tuple[Predicate, ...] | None:
    """The predicates if the predicate scan reads `text` whole, else None."""
    predicates: list[Predicate] = []
    end = 0
    for m in _PREDICATE_RE.finditer(text):
        joint, bare, quoted, op, number, string, true = m.groups()
        if m.start() != end or (joint is None) != (end == 0):
            return None
        relop = _RELOPS[op]
        if number is None and relop.is_ordering:
            return None
        value = _scanned_value(number, string, true)
        if value is None:
            return None
        attribute = bare.lower() if bare else _unquote(quoted).lower()
        predicates.append(Predicate(attribute, relop, value))
        end = m.end()
    if end != len(text) or not predicates:
        return None
    return tuple(predicates)


def parse_event(text: str) -> Event:
    """Parse ``{(attr, value), ...}`` into a canonical event."""
    return Event(_scan_pairs(text) or _Parser(text).event_pairs())


def parse_subscription(text: str) -> Subscription:
    """Parse ``(attr op value) AND ...`` into a subscription.

    The id is the canonical rendered text, which is stable across runs and
    unique per content.
    """
    predicates = _scan_predicates(text) or _Parser(text).predicates("subscription")
    return Subscription(predicates, id=_render_predicates(predicates))


def parse_advertisement(text: str) -> Advertisement:
    """Like `parse_subscription`, but into an advertisement."""
    predicates = _scan_predicates(text) or _Parser(text).predicates("advertisement")
    return Advertisement(predicates, id=_render_predicates(predicates))


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
        f"({_render_attr(p.attribute)} {_OP_TEXT[p.op]} {_render_value(p.value)})"
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
