"""Semantic knowledge: synonym groups, a concept hierarchy, mapping functions.

A knowledge base is loaded from a JSON document and never mutated afterwards,
so a single instance can be shared by every broker in a simulation.

Document format::

    {
      "synonyms": [{"root": "vehicle", "members": ["car", "automobile"]}],
      "hierarchy": [{"child": "book", "parent": "printed material"}],
      "mappings": [
        {
          "name": "f1",
          "inputs": ["work experience", "graduation date"],
          "guard": {"attribute": "work experience", "op": "=", "value": true},
          "output": "professional experience",
          "body": {"kind": "years_since", "input": "graduation date"}
        }
      ],
      "reference_year": 2003
    }

All terms are lowercase.  Hierarchy terms and every attribute or string value
inside a mapping must already be in root-term form; the loader rejects
synonym members there instead of normalizing twice.  No hierarchy term may
have more than `MAX_HIERARCHY_DEPTH` (64) strict ancestors.

Mapping bodies are a closed set of combinators so evaluation always
terminates: RENAME copies an input value under a new attribute, CONST emits
a fixed value, and LINEAR computes scale*x + offset over one integer input.
The loader reads a `years_since` body, reference_year - x, as LINEAR with
scale -1 and offset reference_year, so a mapping reads only the event's
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Optional, Union

from .model import (
    INT_MAX,
    INT_MIN,
    Pair,
    Predicate,
    RelOp,
    Value,
    excerpt,
    list_field,
    read_document,
    read_name,
    read_object,
)


# The most strict ancestors a hierarchy term may have.  Hierarchy
# augmentation lifts each event pair to every ancestor of its attribute
# crossed with every ancestor of its value, so depth multiplies the work of
# every publication; the bound also caps each ancestor walk at load.
MAX_HIERARCHY_DEPTH = 64


class KnowledgeError(ValueError):
    """Raised for malformed or inconsistent knowledge documents."""


class MappingEvaluationError(RuntimeError):
    """Raised when a mapping body cannot produce a representable value."""

    def __init__(self, function_name: str, detail: str):
        super().__init__(f"mapping {excerpt(function_name)}: {detail}")
        self.function_name = function_name


@dataclass(frozen=True)
class SynonymGroup:
    root: str
    members: frozenset[str]


@dataclass(frozen=True)
class Rename:
    input: str


@dataclass(frozen=True)
class Const:
    value: Value


@dataclass(frozen=True)
class Linear:
    input: str
    scale: int
    offset: int


MappingBody = Union[Rename, Const, Linear]


@dataclass(frozen=True)
class MappingFunction:
    name: str
    inputs: tuple[str, ...]
    guard: Optional[Predicate]
    output: str
    body: MappingBody


class KnowledgeBase:
    """Immutable synonym/hierarchy/mapping store.

    Instances compare and hash by identity, which lets `sem_match`'s memo
    and `model.kept` key on them cheaply; so hold on to what the uncached
    `without_mappings` returns.  The only state filled after construction
    is `ancestor_values`' table, which changes no answer.
    """

    def __init__(
        self,
        synonyms: Iterable[SynonymGroup] = (),
        hierarchy: Iterable[tuple[str, str]] = (),
        mappings: Iterable[MappingFunction] = (),
        reference_year: int = 0,
    ):
        self.synonyms = tuple(synonyms)
        self.hierarchy = tuple(hierarchy)
        self.mappings = tuple(mappings)
        self.reference_year = int(reference_year)
        # Read only by routing's covering and gating dispatch.
        self.is_empty = not (self.synonyms or self.hierarchy or self.mappings)
        self._root: dict[str, str] = {}
        self._parent: dict[str, str] = {}
        self._ancestors: dict[str, tuple[str, ...]] = {}
        self._validate()
        self._parents_with_children = frozenset(self._parent.values())
        self._ancestor_values: dict[str, tuple[Value, ...]] = {}

    def _validate(self) -> None:
        if not (INT_MIN <= self.reference_year <= INT_MAX):
            raise KnowledgeError("reference_year out of 64-bit range")
        for group in self.synonyms:
            if group.root in group.members:
                raise KnowledgeError(
                    f"synonym root {excerpt(group.root)} listed among its members"
                )
            for term in (group.root, *sorted(group.members)):
                if term in self._root:
                    raise KnowledgeError(f"term {excerpt(term)} in two synonym groups")
                self._root[term] = group.root

        for child, parent in self.hierarchy:
            for term in (child, parent):
                if self.root_term(term) != term:
                    raise KnowledgeError(
                        f"hierarchy term {excerpt(term)} is not in root form"
                    )
            if child == parent:
                raise KnowledgeError(f"self-edge on {excerpt(child)}")
            if child in self._parent:
                raise KnowledgeError(f"term {excerpt(child)} has multiple parents")
            self._parent[child] = parent
        for start in self._parent:
            seen = {start}
            chain = []
            node = start
            while node in self._parent:
                node = self._parent[node]
                if node in seen:
                    raise KnowledgeError(f"hierarchy cycle through {excerpt(node)}")
                if len(chain) == MAX_HIERARCHY_DEPTH:
                    raise KnowledgeError(
                        f"hierarchy deeper than {MAX_HIERARCHY_DEPTH} levels"
                        f" above {excerpt(start)}"
                    )
                seen.add(node)
                chain.append(node)
            self._ancestors[start] = tuple(chain)

        for f in self.mappings:
            if not f.inputs:
                raise KnowledgeError(f"mapping {excerpt(f.name)} has no inputs")
            if len(set(f.inputs)) != len(f.inputs):
                raise KnowledgeError(f"mapping {excerpt(f.name)} repeats an input")
            if f.output in f.inputs:
                raise KnowledgeError(
                    f"mapping {excerpt(f.name)} output is also an input"
                )
            for attr in (*f.inputs, f.output):
                self._require_root_form(f.name, attr)
            if f.guard is not None:
                if f.guard.attribute not in f.inputs:
                    raise KnowledgeError(
                        f"mapping {excerpt(f.name)} guard attribute is not an input"
                    )
                self._require_root_form(f.name, f.guard.attribute)
                if f.guard.value.is_string:
                    self._require_root_form(f.name, f.guard.value.data)
            if isinstance(f.body, (Rename, Linear)):
                if f.body.input not in f.inputs:
                    raise KnowledgeError(
                        f"mapping {excerpt(f.name)} body input is not a declared input"
                    )
            if isinstance(f.body, Const) and f.body.value.is_string:
                self._require_root_form(f.name, f.body.value.data)
            if isinstance(f.body, Linear):
                for n in (f.body.scale, f.body.offset):
                    if not (INT_MIN <= n <= INT_MAX):
                        raise KnowledgeError(
                            f"mapping {excerpt(f.name)} coefficient out of range"
                        )

    def _require_root_form(self, owner: str, term: str) -> None:
        if self.root_term(term) != term:
            raise KnowledgeError(
                f"mapping {excerpt(owner)} uses non-root term {excerpt(term)}"
            )

    @classmethod
    def empty(cls) -> "KnowledgeBase":
        """The one empty knowledge base, so what `model.kept` keeps under it
        is built once per entity, however many runs ask."""
        return _EMPTY

    def root_term(self, term: str) -> str:
        """Group root for synonym members and roots; other terms unchanged."""
        return self._root.get(term, term)

    def ancestors(self, term: str) -> tuple[str, ...]:
        """Strict ancestors of a root-form term, nearest first."""
        return self._ancestors.get(term, ())

    def ancestor_values(self, term: str) -> tuple[Value, ...]:
        """`ancestors(term)` as string values, built on first use and kept,
        so at most once per hierarchy term."""
        values = self._ancestor_values.get(term)
        if values is None:
            values = tuple(Value.string(t) for t in self.ancestors(term))
            if values:
                self._ancestor_values[term] = values
        return values

    def is_descendant_or_equal(self, t1: str, t2: str) -> bool:
        """True iff t1 equals t2 or t2 is a strict ancestor of t1."""
        return t1 == t2 or t2 in self.ancestors(t1)

    def comparable(self, t1: str, t2: str) -> bool:
        """True iff the terms lie on one hierarchy path (either direction)."""
        return self.is_descendant_or_equal(t1, t2) or self.is_descendant_or_equal(
            t2, t1
        )

    def has_relative(self, term: str) -> bool:
        """True iff the term has a strict ancestor or a strict descendant."""
        return bool(self.ancestors(term)) or term in self._parents_with_children

    def without_mappings(self) -> "KnowledgeBase":
        """The same knowledge base minus its mappings: itself if it has
        none, else a new instance."""
        if not self.mappings:
            return self
        return KnowledgeBase(self.synonyms, self.hierarchy, (), self.reference_year)


_EMPTY = KnowledgeBase()


def _json_value(raw: object, where: str) -> Value:
    if isinstance(raw, bool):
        return Value.boolean(raw)
    if isinstance(raw, int):
        if not (INT_MIN <= raw <= INT_MAX):
            raise KnowledgeError(f"{where}: integer out of range")
        return Value.integer(raw)
    if isinstance(raw, str):
        if not raw:
            raise KnowledgeError(f"{where}: empty string value")
        return Value.string(raw)
    raise KnowledgeError(f"{where}: unsupported value {excerpt(raw)}")


def _parse_guard(raw: object, where: str) -> Predicate:
    fields = ("attribute", "op", "value")
    raw = read_object(raw, fields, (), KnowledgeError, f"{where}.guard")
    attr = _term(raw["attribute"], where, "guard attribute")
    op_text = raw["op"]
    try:
        op = RelOp(op_text)
    except ValueError:
        raise KnowledgeError(
            f"{where}: unknown guard operator {excerpt(op_text)}"
        ) from None
    val = _json_value(raw["value"], where)
    if op.is_ordering and not val.is_int:
        raise KnowledgeError(f"{where}: ordering guard requires an integer")
    return Predicate(attr, op, val)


def _is_int(raw: object) -> bool:
    """True for a JSON integer; JSON booleans are not integers here."""
    return isinstance(raw, int) and not isinstance(raw, bool)


def _term(term: object, where: str, key: str) -> str:
    """The lowercased term, read as a name."""
    return read_name(term, f"{where}: {key}", KnowledgeError).lower()


# The keys each mapping body holds besides its kind.
_BODY_KEYS = {
    "rename": ("input",),
    "const": ("value",),
    "linear": ("input", "scale", "offset"),
    "years_since": ("input",),
}


def _parse_body(raw: object, where: str, reference_year: int) -> MappingBody:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise KnowledgeError(f"{where}: body must be an object with a kind")
    kind = raw["kind"]
    if not (isinstance(kind, str) and kind in _BODY_KEYS):
        raise KnowledgeError(f"{where}: unknown mapping body kind {excerpt(kind)}")
    read_object(raw, ("kind", *_BODY_KEYS[kind]), (), KnowledgeError, f"{where}.body")
    if kind == "const":
        return Const(_json_value(raw["value"], where))
    if kind == "linear":
        if not (_is_int(raw["scale"]) and _is_int(raw["offset"])):
            raise KnowledgeError(f"{where}: linear scale and offset must be integers")
        return Linear(_term(raw["input"], where, "input"), raw["scale"], raw["offset"])
    source = _term(raw["input"], where, "input")
    return Rename(source) if kind == "rename" else Linear(source, -1, reference_year)


def load_knowledge(document: Union[bytes, str, dict]) -> KnowledgeBase:
    """Parse, validate, and freeze a knowledge document."""
    known = {"synonyms", "hierarchy", "mappings", "reference_year"}
    data = read_document(document, KnowledgeError, "knowledge document", known)

    groups = []
    for i, raw in enumerate(list_field(data, "synonyms", KnowledgeError)):
        where = f"synonyms[{i}]"
        raw = read_object(raw, ("root", "members"), (), KnowledgeError, where)
        members = raw["members"]
        if not isinstance(members, list) or not all(
            isinstance(m, str) and m for m in members
        ):
            raise KnowledgeError(f"{where}: members must be non-empty strings")
        members = [m.lower() for m in members]
        if len(set(members)) != len(members):
            raise KnowledgeError(f"{where}: duplicate member")
        root = _term(raw["root"], where, "root")
        groups.append(SynonymGroup(root, frozenset(members)))

    edges = []
    for i, raw in enumerate(list_field(data, "hierarchy", KnowledgeError)):
        where = f"hierarchy[{i}]"
        raw = read_object(raw, ("child", "parent"), (), KnowledgeError, where)
        child = _term(raw["child"], where, "child")
        parent = _term(raw["parent"], where, "parent")
        edges.append((child, parent))

    reference_year = data.get("reference_year", 0)
    if not _is_int(reference_year):
        raise KnowledgeError("reference_year must be an integer")

    mappings = []
    for i, raw in enumerate(list_field(data, "mappings", KnowledgeError)):
        where = f"mappings[{i}]"
        fields = ("name", "inputs", "output", "body")
        raw = read_object(raw, fields, ("guard",), KnowledgeError, where)
        name = read_name(raw["name"], f"{where}: name", KnowledgeError)
        inputs = raw["inputs"]
        if not isinstance(inputs, list) or not all(
            isinstance(a, str) and a for a in inputs
        ):
            raise KnowledgeError(f"{where}: inputs must be non-empty strings")
        guard = _parse_guard(raw["guard"], where) if "guard" in raw else None
        mappings.append(
            MappingFunction(
                name=name,
                inputs=tuple(a.lower() for a in inputs),
                guard=guard,
                output=_term(raw["output"], where, "output"),
                body=_parse_body(raw["body"], where, reference_year),
            )
        )

    return KnowledgeBase(groups, edges, mappings, reference_year)


def apply_mapping(
    f: MappingFunction, values: Mapping[str, Collection[Value]]
) -> list[Pair]:
    """Evaluate one mapping function against an event's values by attribute.

    Every input must hold a value (augmented events may hold several at one
    attribute), or the function yields nothing.  A guard on the body's
    input keeps the values that pass it; a guard on another input lets the
    function run only if one of that input's values passes it.  The body
    then runs once per kept value, in canonical order, and a constant body
    once, so the work is linear in the event's values and the outputs do
    not depend on the order of the event's pairs.  A non-integer value
    yields nothing under an arithmetic body.  A `MappingEvaluationError`
    comes from the first value, in that order, whose result overflows.
    """
    if not all(values.get(attr) for attr in f.inputs):
        return []
    guard, body = f.guard, f.body
    source = None if isinstance(body, Const) else body.input
    held = values[source] if source is not None else ()
    if guard is not None:
        if guard.attribute == source:
            held = [v for v in held if guard.op.holds(v, guard.value)]
        elif not any(guard.op.holds(v, guard.value) for v in values[guard.attribute]):
            return []
    if source is None:
        return [Pair(f.output, body.value)]
    if len(held) > 1:
        held = sorted(held, key=lambda v: (v.kind.value, v.data))
    outputs = (_evaluate(f, value) for value in held)
    return [Pair(f.output, value) for value in outputs if value is not None]


def _evaluate(f: MappingFunction, source: Value) -> Optional[Value]:
    """The output of the mapping's rename or linear body on one value of its
    input, or None."""
    body = f.body
    if isinstance(body, Rename):
        return source
    if not source.is_int:
        return None
    result = body.scale * source.data + body.offset
    try:
        return Value.integer(result)
    except ValueError:
        raise MappingEvaluationError(
            f.name, f"result {result} exceeds the 64-bit range"
        ) from None
