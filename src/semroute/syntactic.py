"""Relation kernel over events, subscriptions, advertisements.

`covers` and `intersects` are the relation kernel of both modes.  Each takes
a `KnowledgeBase`, by default the one `KnowledgeBase.empty()`, under which
names compare literally and no term has a relative, and assumes input in
its root form, which every entity is under the empty one; `semantic`
normalizes first.  Event matching is `semantic.sem_match`, and over the
empty knowledge base `semantic.match_event`.

The operator rules live here once, lifted through a knowledge base's
hierarchy: `Implied` says which predicates a set of predicates implies, and
`Gate` which it admits, each against a per-attribute summary of many
predicates, split by `model.split_by_operator`.  A `Gate` answers two
questions of an advertisement: which subscription predicates it meets
(gating, `intersects`) and which event pairs it admits (publish admission,
`determines`).

- One predicate implies another when every pair matching the first matches
  the second (exact over integer intervals, equality, and inequality).
- Two predicates are jointly satisfiable when a single pair can match both.

Both are exact for predicates on integer values because ordering operators
are restricted to integers, so satisfying sets are intervals.  The tests
check the summaries against per-pair references and enumeration oracles
(`tests/bruteforce.py`).

Each relation keeps a summary of the side it quantifies over on that
entity (`model.kept`, under the knowledge base asked), built on first use,
so a test makes a few lookups per predicate instead of a scan of the other
side: `covers` keeps an `Implied` per attribute of the covered subscription
and its ancestors, `intersects` a `Gate` per subscription attribute asked
of the advertisement (`_Gates`), and `determines` a `Gate` per event
attribute asked of it (`_AdmissionGates`, a `_Gates` that merges fewer
attributes).  Each gate keeps the knowledge base it was built under.
Nothing here keeps anything on an event.

The side that must be implied is a subscription, compiled once into one
requirement row per attribute (`Subscription.requirement`: its `=` and
`!=` values and its tightest bounds), and `requirement_met` asks the rows
of a summary with one check per attribute.  `covers` asks the covering
subscription's rows of the covered one's summary, and routing asks each
table entry's rows of the event's summary.  `semantic.sem_match` and the
simulator's oracle ask the predicates one by one (`all_implied`), so these
references grade the rows rather than share them.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .knowledge import KnowledgeBase
from .model import (
    Advertisement,
    Predicate,
    RelOp,
    Row,
    Subscription,
    Value,
    ValueKind,
    group_by_attribute,
    kept,
    split_by_operator,
)


# The knowledge base the relations default to: no synonyms, so names
# compare literally, and no hierarchy edges.
_EMPTY = KnowledgeBase.empty()
_NONE: frozenset = frozenset()


def _holds_other(values: frozenset[Value], v: Value) -> bool:
    """True iff `values` holds a value other than v."""
    return len(values) > 1 or (bool(values) and v not in values)


class Implied:
    """What a set of predicates implies, in the form covering asks about it.

    `entails(p)` is true iff some summarised predicate q implies p: every
    pair matching q matches p.  `covers` summarises the predicates on an
    attribute and on all its descendants, and lifts `=` values to their
    ancestor chains, which is where the hierarchy adds implications: (= v)
    implies (= w) when v descends from w.  With q's value v and p's value w:

      - p is (= w): q is (= v) with w == v, or w a string that is an
        ancestor of v: w in `values`, or w's term in `above`, the strict
        ancestors of the string `=` values;
      - p is (!= w): q is (!= w), or (= v) with v != w: w in `excluded`, or
        `values` holds another value than w;
      - p is a lower-bounded half-line, from w once closed as
        `Predicate.interval` closes it: q is a lower-bounded half-line from
        w or above, or (= v) with v an integer, v >= w, so `floor`, the
        largest such bound or value, is at least w;
      - p is upper-bounded up to w: `ceil`, the smallest upper bound or
        integer `=` value, is at most w.

    Each case asks whether some q exists, so a summary over merged
    predicate sets stays exact.
    """

    __slots__ = ("values", "above", "excluded", "floor", "ceil")

    def __init__(self, preds: Iterable[Predicate], kb: KnowledgeBase):
        equal, unequal, lows, highs = split_by_operator(preds)
        ints = [v.data for v in equal if v.is_int]
        self.values = frozenset(equal) if equal else _NONE
        above = [kb.ancestors(v.data) for v in equal if v.is_string]
        self.above = frozenset().union(*above) if any(above) else _NONE
        self.excluded = frozenset(unequal) if unequal else _NONE
        self.floor: Optional[int] = max(lows + ints, default=None)
        self.ceil: Optional[int] = min(highs + ints, default=None)

    @classmethod
    def of_values(cls, values: Iterable[Value]) -> "Implied":
        """The summary of one `(a = v)` predicate per value v, with no value
        lifted: some value satisfies p iff this entails p.  The values are
        an event's at one attribute, plain, or augmented, which already
        holds the lifted values."""
        summary = cls.__new__(cls)
        summary.values = held = frozenset(values)
        summary.above = summary.excluded = _NONE
        # Built for every attribute of every event routed, so the bounds
        # avoid `max`'s slower `default=` form.
        ints = [v.data for v in held if v.kind is ValueKind.INT]
        if ints:
            summary.floor, summary.ceil = max(ints), min(ints)
        else:
            summary.floor = summary.ceil = None
        return summary

    def entails(self, p: Predicate) -> bool:
        v = p.value
        if p.op is RelOp.EQ:
            # `above` holds only terms, so only a string's data can be in it.
            return v in self.values or v.data in self.above
        if p.op is RelOp.NE:
            return v in self.excluded or _holds_other(self.values, v)
        lo, hi = p.interval
        if hi is None:
            return self.floor is not None and lo <= self.floor
        return self.ceil is not None and self.ceil <= hi


def implied_by_attribute(
    preds: Iterable[Predicate], kb: KnowledgeBase
) -> dict[str, Implied]:
    """An `Implied` for each attribute over its own predicates and those of
    its descendants: the keys are the predicates' attributes and their
    ancestors."""
    grouped = group_by_attribute(
        (attribute, p)
        for p in preds
        for attribute in (p.attribute, *kb.ancestors(p.attribute))
    )
    return {a: Implied(group, kb) for a, group in grouped.items()}


def implied_by_values(values: Mapping[str, Iterable[Value]]) -> dict[str, Implied]:
    """An `Implied` for each attribute over its values, keyed as given."""
    return {a: Implied.of_values(vs) for a, vs in values.items()}


def all_implied(preds: Iterable[Predicate], implied: dict[str, Implied]) -> bool:
    """True iff the summary at each predicate's attribute entails it."""
    for p in preds:
        summary = implied.get(p.attribute)
        if summary is None or not summary.entails(p):
            return False
    return True


def requirement_met(requirement: Iterable[Row], implied: dict[str, Implied]) -> bool:
    """True iff the summary at each row's attribute entails every predicate
    the row stands for: `all_implied` over the subscription's predicates,
    decided one row at a time with the comparisons `Implied.entails` makes.
    By the cases of `Implied`'s table:

      - the half-line cases: every lower bound holds iff the largest, `lo`,
        does, `floor >= lo`, and every upper bound iff the smallest, `hi`,
        does, `ceil <= hi`; a missing `floor` or `ceil` entails no bound;
      - the (= w) case, for each w in `equal`: w in `values`, or w's data
        in `above`;
      - the (!= w) case, for each w in `unequal`: w in `excluded`, or
        `values` holds a value other than w.

    A row joins no two predicates into one constraint, so `lo` above `hi`
    is met by a summary holding both a value at or above `lo` and one at or
    below `hi`.
    """
    for attribute, equal, unequal, lo, hi in requirement:
        summary = implied.get(attribute)
        if summary is None:
            return False
        if lo is not None:
            floor = summary.floor
            if floor is None or floor < lo:
                return False
        if hi is not None:
            ceil = summary.ceil
            if ceil is None or ceil > hi:
                return False
        for v in equal:
            if v not in summary.values and v.data not in summary.above:
                return False
        for w in unequal:
            if w not in summary.excluded and not _holds_other(summary.values, w):
                return False
    return True


def _implied(sub: Subscription, kb: KnowledgeBase) -> dict[str, Implied]:
    return implied_by_attribute(sub.predicates, kb)


def covers(s1: Subscription, s2: Subscription, kb: KnowledgeBase = _EMPTY) -> bool:
    """True iff every event matching s2 is guaranteed to match s1, with
    matching lifted through `kb`'s hierarchy; both must be in its root form.

    Decided predicate-wise: each s1 predicate must be implied by some s2
    predicate on the same attribute or a descendant of it.  This is sound
    even when an event carries several pairs for one attribute, because
    implication is quantified over single pairs.  The hierarchy adds one
    case: (= v) implies (= w) when v descends from w; against (!= w) a pair
    satisfying (= v) still carries v itself, so that rule is unchanged.  s2
    keeps its summary under `kb` (an `Implied` at each of its attributes
    and their ancestors), and s1's rows (`Subscription.requirement`) are
    asked of it, so each attribute of s1 costs a lookup.
    """
    return requirement_met(s1.requirement, kept(s2, "_implied", kb, _implied))


class Gate:
    """What a set of advertisement predicates admits, in the form
    intersection asks about it.

    A subscription predicate sp meets the gate iff one event pair can
    satisfy sp and some gate predicate ap, satisfaction being
    hierarchy-lifted.  `intersects` builds one gate per subscription
    attribute, over the advertised predicates at every attribute comparable
    with it (itself, its ancestors and its descendants): the deeper of sp's
    and ap's attributes is the witness pair's, and in a forest no witness
    lies under two siblings, so no other attribute can hold an ap.
    Every syntactic witness value counts, and the hierarchy adds witnesses
    only for string equality.  By operator of sp (rows) and ap (columns),
    with sp's value v and ap's value w:

      sp, ap    | = w                       | != w                   | half-line
      = v       | v == w, or strings on one | v != w, or v == w a    | v an integer
                | hierarchy path            | string with a relative | inside it
      != v      | w != v, or v == w a       | always                 | always
                | string with a relative    |                        |
      half-line | w an integer inside it    | always                 | overlap

    A "relative" is a strict ancestor (the witness is v itself, which also
    carries a differing generalization) or a strict descendant (the
    witness, whose chain holds v while it differs from v).  Under the empty
    knowledge base a relative never exists, and the table is the plain
    joint satisfiability of sp and ap on one attribute.  Each entry asks
    whether some ap exists, so gates over merged predicate sets stay exact.

    `admits(v)` asks the second question, of publish admission: is a
    normalized event pair with value v admitted, that is, does some value
    on v's chain (v and, for a string, its ancestor terms) satisfy some
    gate predicate ap?  `determines` asks it of the gate at the pair's
    attribute, over the advertised predicates at that attribute and its
    ancestors (`_AdmissionGates`).  By operator of ap, with its value w:

      - (= w): v == w, or w a string term that is a strict ancestor of v;
      - (!= w): some chain value differs from w: a `!=` value other than v,
        or any `!=` value when v has an ancestor;
      - half-line: v an integer inside it.

    The summary answers each in a few lookups:

      - `values`: the `=` values; `terms`: the string ones; `up`: the terms
        and all their ancestors, so v lies on a path with some term iff v is
        in `up` or one of v's ancestors is in `terms`;
      - `excluded`: the `!=` values;
      - `lo`: the smallest bound of the `>`, `>=` half-lines and `hi` the
        largest of the `<`, `<=` ones, as `Predicate.interval` closes them;
      - `bottom`: the least integer a `>`, `>=` or integer `=` predicate
        admits, and `top` the greatest a `<`, `<=` or integer `=` one
        admits.  A half-line sp meets every half-line facing its own way;
        past those, a lower-bounded sp needs `top` at or above its bound,
        an upper-bounded one `bottom` at or below it.
    """

    __slots__ = ("kb", "values", "terms", "up", "excluded", "lo", "hi", "bottom", "top")

    def __init__(self, preds: Iterable[Predicate], kb: KnowledgeBase):
        self.kb = kb
        equal, unequal, lows, highs = split_by_operator(preds)
        self.values: set[Value] = set(equal)
        self.excluded: set[Value] = set(unequal)
        self.terms = {v.data for v in self.values if v.is_string}
        self.up = self.terms.union(*(kb.ancestors(t) for t in self.terms))
        ints = [v.data for v in self.values if v.is_int]
        self.lo: Optional[int] = min(lows, default=None)
        self.hi: Optional[int] = max(highs, default=None)
        self.bottom: Optional[int] = min(lows + ints, default=None)
        self.top: Optional[int] = max(highs + ints, default=None)

    def meets(self, sp: Predicate) -> bool:
        kb, v = self.kb, sp.value
        if sp.op is RelOp.EQ:
            if _holds_other(self.excluded, v):
                return True
            if v.is_string:
                return (
                    v.data in self.up
                    or not self.terms.isdisjoint(kb.ancestors(v.data))
                    or (v in self.excluded and kb.has_relative(v.data))
                )
            if v in self.values:
                return True
            return v.is_int and (
                (self.lo is not None and self.lo <= v.data)
                or (self.hi is not None and v.data <= self.hi)
            )
        if sp.op is RelOp.NE:
            if self.excluded or self.lo is not None or self.hi is not None:
                return True
            return _holds_other(self.values, v) or (
                v.is_string and v.data in self.terms and kb.has_relative(v.data)
            )
        if self.excluded:
            return True
        lo, hi = sp.interval
        if hi is None:
            return self.lo is not None or (self.top is not None and lo <= self.top)
        return self.hi is not None or (self.bottom is not None and self.bottom <= hi)

    def admits(self, v: Value) -> bool:
        if v in self.values or _holds_other(self.excluded, v):
            return True
        # Asked of every pair of every publication loaded, so the kind is
        # compared here rather than through the `is_int`/`is_string` calls.
        kind = v.kind
        if kind is ValueKind.INT:
            return (self.lo is not None and self.lo <= v.data) or (
                self.hi is not None and v.data <= self.hi
            )
        if kind is ValueKind.STRING:
            above = self.kb.ancestors(v.data)
            return bool(above) and (
                bool(self.excluded) or not self.terms.isdisjoint(above)
            )
        return False


class _Gates(dict):
    """An advertisement's gates under one knowledge base: at each
    subscription attribute asked, the `Gate` over the predicates at every
    advertised attribute comparable with it, or None when there are none.
    Built on the first ask; it holds the grouped predicates, not the
    advertisement, so keeping it there makes no reference cycle."""

    __slots__ = ("predicates", "kb")

    def __init__(self, adv: Advertisement, kb: KnowledgeBase):
        super().__init__()
        self.predicates = group_by_attribute((p.attribute, p) for p in adv.predicates)
        self.kb = kb

    def merged(self, attribute: str) -> list[str]:
        """The advertised attributes whose predicates the gate at
        `attribute` merges: every one comparable with it."""
        return [a for a in self.predicates if self.kb.comparable(attribute, a)]

    def __missing__(self, attribute: str) -> Optional[Gate]:
        advertised = self.predicates
        preds = [p for a in self.merged(attribute) for p in advertised[a]]
        gate = self[attribute] = Gate(preds, self.kb) if preds else None
        return gate


class _AdmissionGates(_Gates):
    """An advertisement's gates for publish admission: at each event
    attribute asked, the `Gate` over the predicates at that attribute and
    its ancestors, whose `admits` decides a pair there.  A predicate at a
    descendant admits no pair of the attribute: an event pair is lifted to
    its attribute's ancestors, never to its descendants."""

    __slots__ = ()

    def merged(self, attribute: str) -> list[str]:
        """The attribute and its ancestors, those advertised: each a such
        that `kb.is_descendant_or_equal(attribute, a)`."""
        chain = (attribute, *self.kb.ancestors(attribute))
        return [a for a in chain if a in self.predicates]


def intersects(
    adv: Advertisement, sub: Subscription, kb: KnowledgeBase = _EMPTY
) -> bool:
    """True iff some event could be determined by adv and match sub, with
    matching lifted through `kb`'s hierarchy; both must be in its root form.

    Each subscription predicate needs an advertisement predicate on a
    comparable attribute that one event pair can satisfy together with it;
    under the empty knowledge base, a same-attribute predicate it is jointly
    satisfiable with.  The false verdict is exact: any event pair matching a
    subscription predicate while the event is determined by adv must match
    some such adv predicate.  adv keeps its gates under `kb` (`_Gates`), so
    each subscription predicate costs a lookup.
    """
    gates = kept(adv, "_gates", kb, _Gates)
    for sp in sub.predicates:
        gate = gates[sp.attribute]
        if gate is None or not gate.meets(sp):
            return False
    return True


def determines(
    adv: Advertisement,
    pairs: Iterable[tuple[str, Value]],
    kb: KnowledgeBase = _EMPTY,
) -> bool:
    """True iff some adv predicate admits each event pair (`Gate.admits`),
    with matching lifted through `kb`'s hierarchy; both must be in its root
    form.  adv keeps its gates under `kb` (`_AdmissionGates`)."""
    gates = kept(adv, "_admission", kb, _AdmissionGates)
    for attribute, value in pairs:
        gate = gates[attribute]
        if gate is None or not gate.admits(value):
            return False
    return True
