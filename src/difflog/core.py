"""Datalog data model, text formats, grounding, and Boolean fixpoint evaluation.

Constants are opaque strings.  Rules are pure positive Datalog: no negation,
no arithmetic, and every head variable must occur in the body (range
restriction); each relation has one arity, in the input and in every rule.
One semi-naive kernel grounds a rule set with numpy sort-merge joins over
one interned fact table, and fires the rules that share a body shape as one
join per delta literal, whatever their heads read: it derives the least
fixpoint and emits, in one pass, every ground clause over it except
self-loops, which never raise their conclusion, as the arrays that weighted
evaluation runs on.  A join that is empty for sure is skipped, and a
grounding past ``CLAUSE_BUDGET`` clauses, or join rows in one step summed
over the rules of its shape, stops with ``GroundingBudgetError``.  This
module alone fixes the clause order, (conclusion, rule id, antecedents),
which decides the winning derivation among equal values; bodies shorter than
the longest are padded with -1.  All structures are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

Constant = str

INPUT = "input"
OUTPUT = "output"

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ProblemError(Exception):
    """Base error for malformed problem instances."""


class ParseError(ProblemError):
    """Syntax error in a problem file, with location information."""

    def __init__(self, message: str, path: str | Path | None = None,
                 line: int | None = None, column: int | None = None):
        loc = ""
        if path is not None:
            loc += str(path)
        if line is not None:
            loc += f":{line}"
        if column is not None:
            loc += f":{column}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = str(path) if path is not None else None
        self.line = line
        self.column = column


class SemanticError(ProblemError):
    """Well-formed syntax with invalid meaning (unknown relation, bad arity...)."""


@dataclass(frozen=True)
class RelationDecl:
    name: str
    arity: int
    kind: str  # INPUT or OUTPUT

    def __post_init__(self):
        if not IDENT_RE.match(self.name):
            raise SemanticError(f"invalid relation name {self.name!r}")
        if self.arity < 1:
            raise SemanticError(f"relation {self.name}: arity must be >= 1")
        if self.kind not in (INPUT, OUTPUT):
            raise SemanticError(f"relation {self.name}: kind must be input or output")


class Fact(NamedTuple):
    """A ground tuple: relation name plus constant arguments.

    A named tuple, so it hashes, compares and sorts as the plain tuple
    ``(relation, args)``, and equals it.
    """

    relation: str
    args: tuple[Constant, ...]

    def __str__(self):
        return f"{self.relation}({', '.join(self.args)})"


@dataclass(frozen=True)
class Const:
    """A constant appearing in a rule atom (written quoted in rule files)."""

    value: str

    def __str__(self):
        return f'"{self.value}"'


@dataclass(frozen=True)
class Atom:
    relation: str
    args: tuple  # of variable names (str) or Const

    def variables(self) -> Iterator[str]:
        for a in self.args:
            if isinstance(a, str):
                yield a

    def __str__(self):
        return f"{self.relation}({','.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Rule:
    id: str
    head: Atom
    body: tuple[Atom, ...]

    def variables(self) -> list[str]:
        """All variables, in first-occurrence order (head first)."""
        seen: dict[str, None] = {}
        for atom in (self.head, *self.body):
            for v in atom.variables():
                seen.setdefault(v)
        return list(seen)

    def __str__(self):
        body = ", ".join(str(a) for a in self.body)
        return f"{self.head} :- {body}."


def validate_rule(rule: Rule, decls: Mapping[str, RelationDecl]) -> None:
    """Raise SemanticError unless the rule is well-formed against the declarations."""
    if not rule.body:
        raise SemanticError(f"rule {rule.id}: empty body")
    for atom in (rule.head, *rule.body):
        decl = decls.get(atom.relation)
        if decl is None:
            raise SemanticError(f"rule {rule.id}: undeclared relation {atom.relation}")
        if len(atom.args) != decl.arity:
            raise SemanticError(
                f"rule {rule.id}: {atom.relation} expects {decl.arity} args, got {len(atom.args)}")
    if decls[rule.head.relation].kind != OUTPUT:
        raise SemanticError(f"rule {rule.id}: head relation {rule.head.relation} is not an output relation")
    body_vars = {v for atom in rule.body for v in atom.variables()}
    for v in rule.head.variables():
        if v not in body_vars:
            raise SemanticError(f"rule {rule.id}: head variable {v} not bound in body")


class Database:
    """An immutable set of ground tuples, indexed by relation name."""

    __slots__ = ("_tuples", "_sets")

    def __init__(self, facts: Iterable[Fact] = ()):
        by_rel: dict[str, set[Fact]] = {}
        for f in facts:
            by_rel.setdefault(f.relation, set()).add(f)
        object.__setattr__(self, "_tuples",
                           {rel: tuple(sorted(fs)) for rel, fs in sorted(by_rel.items())})
        object.__setattr__(self, "_sets", {rel: frozenset(fs) for rel, fs in by_rel.items()})

    @property
    def tuples(self) -> Mapping[str, tuple[Fact, ...]]:
        return self._tuples

    def relation(self, name: str) -> tuple[Fact, ...]:
        return self._tuples.get(name, ())

    def facts(self) -> Iterator[Fact]:
        for fs in self._tuples.values():
            yield from fs

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._sets.get(fact.relation, ())

    def __len__(self):
        return sum(len(fs) for fs in self._tuples.values())

    def __eq__(self, other):
        return isinstance(other, Database) and self._tuples == other._tuples

    def __hash__(self):
        return hash(tuple(self._tuples.items()))

    def union(self, other: "Database") -> "Database":
        return Database([*self.facts(), *other.facts()])

    def __repr__(self):
        return f"Database({len(self)} tuples over {len(self._tuples)} relations)"


@dataclass(frozen=True)
class LabelSet:
    positive: frozenset[Fact]
    negative: frozenset[Fact]

    def __post_init__(self):
        overlap = self.positive & self.negative
        if overlap:
            raise SemanticError(f"tuples labeled both positive and negative: {sorted(overlap)}")


class CandidateRuleSet:
    """The candidate pool the synthesizer selects from; rule ids are unique."""

    __slots__ = ("_rules", "_by_id")

    def __init__(self, rules: Iterable[Rule]):
        rules = tuple(rules)
        by_id: dict[str, Rule] = {}
        for r in rules:
            if r.id in by_id:
                raise SemanticError(f"duplicate rule id {r.id}")
            by_id[r.id] = r
        self._rules = rules
        self._by_id = by_id

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __len__(self):
        return len(self._rules)

    def __getitem__(self, rule_id: str) -> Rule:
        return self._by_id[rule_id]

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._by_id

    def ids(self) -> list[str]:
        return [r.id for r in self._rules]

    def subset(self, rule_ids: Iterable[str]) -> "CandidateRuleSet":
        wanted = set(rule_ids)
        missing = wanted - set(self._by_id)
        if missing:
            raise SemanticError(f"unknown rule ids: {sorted(missing)}")
        return CandidateRuleSet(r for r in self._rules if r.id in wanted)


class Problem(NamedTuple):
    relations: dict[str, RelationDecl]
    input: Database
    labels: LabelSet
    rules: CandidateRuleSet


# ---------------------------------------------------------------------------
# Grounding and Boolean evaluation: one semi-naive kernel, a body shape at a time
# ---------------------------------------------------------------------------
#
# Constants and relation names are interned as ints in sorted string order.
# Every fact is a row of one table, in arrival order: its relation id, then
# its arguments, padded with constant 0 past the relation's arity.  A fact's
# id is its row, and its key packs the whole row, relation first, so keys
# sort exactly like ``Fact``s.  A round's delta is the suffix of rows that
# arrived in the last round and the old facts are the prefix before it.
# Each round joins every rule once per body literal that reads the delta:
# literals left of it read only old facts, literals right of it read all
# facts.  A clause is thus fired exactly once, in the round after its newest
# antecedent arrived, and the rounds yield the least fixpoint together with
# every ground clause over it.
#
# How such a join runs depends on the rule's body shape, its pattern of
# variables and constants, but not on its relation names or constant values.
# So the (rule, delta literal) pairs are grouped by (body shape, delta
# literal), and the rules of a group fire together, as one join a round.
# The group's template carries every variable that some member's head reads;
# a rule whose head does not read one gives it weight 0 in its head key, so
# each rule still gets its own join rows and clauses, only with a column it
# does not use.  A group's template, its join order and key weights, is
# built on its first firing; relation ids and constants are data, one static
# key part per rule and step, and the join rows carry their rule's index in
# the group.  The first step probes the delta with one key per rule.  Every
# later step packs each row's bound arguments into one exact key (int64, or
# Python ints where that could overflow), finds it in a sorted key index of
# the facts that the step reads, built on first use in a round, and expands
# the rows by their matches with ``np.repeat``.  The index already leaves out
# facts that break a repeated variable.  A head key
# is a per-rule base plus each head variable times a per-rule weight, so one
# pass projects heads over any relation, with constants and repeated
# variables.  A pair whose join is empty for sure is not fired: one test a
# round over all pairs finds those with a literal left of the delta over a
# relation without old facts, or any literal over one without facts.
# Conclusions are looked up among the known facts as they fire; the new ones
# get fact ids at the end of the round, one per unique key.  A self-loop, a
# clause whose conclusion is also an antecedent, is dropped as it fires: its
# value is a product of factors <= 1 times its conclusion's, so it can never
# raise that value.  Any batching of the joins gives the same arrays, since
# ``grounding`` sorts the clauses.
#
# A join step whose rows, summed over the group's rules that fire in that
# round (whatever their heads read), would pass ``CLAUSE_BUDGET``, or a
# clause total past it, raises ``GroundingBudgetError`` before the rows
# exist, with that sum as its ``count``.  The output alone takes 40 bytes a
# clause; the samegen pool over a 30-fact binary tree, 10.2 M clauses,
# grounds in about 0.6 GB.

CLAUSE_BUDGET = 16_000_000

_OLD, _DELTA, _ALL = range(3)


class GroundingBudgetError(ProblemError):
    """Grounding would build more clauses, or join rows in one step, than the budget."""

    def __init__(self, count: int, budget: int):
        super().__init__(f"grounding stopped at {count:,} clauses or join rows, "
                         f"over the budget of {budget:,}")
        self.count = count


def _pack(columns: Sequence, radix: int, n: int) -> np.ndarray:
    """Exact keys of ``n`` rows whose values at ``columns`` (arrays, or one int
    for every row) lie in [0, radix): mixed radix, so keys sort like the rows.
    int64 while ``radix ** len(columns)`` fits in it, else Python ints."""
    wide = radix ** len(columns) > 2 ** 63
    key = np.zeros(n, dtype=object if wide else np.int64)
    for col in columns:
        key *= radix
        key += col.astype(object) if wide and isinstance(col, np.ndarray) else col
    return key


def _unpack(keys: np.ndarray, radix: int, width: int) -> np.ndarray:
    """The (width x n) int32 columns that ``_pack`` made ``keys`` of."""
    args = np.empty((width, len(keys)), dtype=np.int32)
    keys = keys.copy()
    for p in reversed(range(width)):
        args[p] = keys % radix
        keys //= radix
    return args


def _sum(base, terms: Iterable[tuple[np.ndarray, object]], n: int, wide: bool) -> np.ndarray:
    """``base + sum(column * weight)`` over ``n`` rows: a ``_pack`` key as its
    mixed-radix sum.  ``base`` and each weight are one value for every row or
    one per row; Python ints where ``wide``."""
    key = None
    for col, weight in terms:
        term = (col.astype(object) if wide else col) * weight
        if key is None:
            key = term
        else:
            key += term
    if key is None:
        key = np.zeros(n, dtype=object if wide else np.int64)
    key += base
    return key


def _per_rule(values: list[int], wide: bool):
    """One value for every rule where they agree, else an array by rule."""
    if values.count(values[0]) == len(values):
        return values[0] if wide else np.int64(values[0])
    return np.array(values, dtype=object if wide else np.int64)


def _of(values, rule):
    """The value of ``rule`` (an index, or one per row) in ``_per_rule``'s ``values``."""
    return values[rule] if isinstance(values, np.ndarray) else values


def _spread(lo: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """The index positions of row i's matches, ``lo[i]:lo[i] + counts[i]``, for every i."""
    return np.arange(total) + (lo - counts.cumsum() + counts).repeat(counts)


_Shape = tuple[tuple[int, ...], ...]  # per body literal, a variable's number or -1 for a constant


class _Step(NamedTuple):
    """One body literal of a join template."""

    literal: int                        # its position in the body
    mode: int                           # _OLD, _DELTA or _ALL facts
    positions: tuple[int, ...]          # argument positions bound on entry, constants included
    equal: tuple[tuple[int, int], ...]  # position pairs that repeat a new variable
    carry: tuple[int, ...]              # variables bound before and read later
    new: tuple[tuple[int, int], ...]    # (position, variable) of each new variable read later


def _template(body: _Shape, delta: int, head: Iterable[int]) -> tuple[_Step, ...]:
    """Join ``body`` from its delta literal, then most-bound literal first.

    Constants are bound from the start.  A variable is carried past a step
    only while a later step or the head reads it.
    """
    def bound_args(i: int) -> int:
        return sum(v < 0 or v in bound for v in body[i])

    bound: set[int] = set()
    order, rest, steps = [delta], [i for i in range(len(body)) if i != delta], []
    while True:
        positions, equal, new = [], [], {}
        for p, v in enumerate(body[order[-1]]):
            if v < 0 or v in bound:
                positions.append(p)
            elif v in new:
                equal.append((new[v], p))
            else:
                new[v] = p
        bound.update(new)
        steps.append((order[-1], tuple(positions), tuple(equal), new))
        if not rest:
            break
        nxt = rest[0] if len(rest) == 1 else max(
            rest, key=lambda i: (bound_args(i) == len(body[i]), bound_args(i), -i))
        rest.remove(nxt)
        order.append(nxt)

    live, joins = set(head), []
    for i, positions, equal, new in reversed(steps):
        joins.append(_Step(i, _DELTA if i == delta else _OLD if i < delta else _ALL,
                           positions, equal, tuple(sorted(live.difference(new))),
                           tuple((p, v) for v, p in new.items() if v in live)))
        live = live.difference(new).union(body[i][p] for p in positions if body[i][p] >= 0)
    return tuple(reversed(joins))


class _Group:
    """The rules that share one (body shape, delta literal) key.

    Built on the group's first firing: the template ``steps``, which carries
    every variable that some member's head reads; ``first``, each rule's
    probe of the delta, its relation id and constants; per later step, the
    static key part (relation id and constants) of each rule, the (variable,
    weight) terms of the bound variables and whether the keys are Python
    ints; ``at``, the join step of each body literal; and the head key's base
    and per-variable weights, 0 for a variable that a rule's head does not
    read.  A part that every rule shares is one value.
    """

    __slots__ = ("members", "body", "delta", "steps", "first", "keys", "at",
                 "head_base", "head_terms")

    def __init__(self, body: _Shape, delta: int, members: np.ndarray):
        self.body, self.delta = body, delta
        self.members = members  # rule positions
        self.steps: tuple[_Step, ...] = ()


class _Kernel:
    """Semi-naive evaluation of a rule set that records every clause it fires."""

    def __init__(self, rules: Iterable[Rule], input: Database):
        self.rules = tuple(rules)
        # one arity per relation: the input's, else its first atom's
        arity = {}
        for name, tuples in input.tuples.items():
            lengths = sorted({len(f.args) for f in tuples})
            if len(lengths) > 1:
                raise SemanticError(f"input relation {name} has facts of arities {lengths}")
            arity[name] = lengths[0]
        for rule in self.rules:
            for atom in (rule.head, *rule.body):
                if arity.setdefault(atom.relation, len(atom.args)) != len(atom.args):
                    raise SemanticError(f"rule {rule.id}: {atom.relation} expects "
                                        f"{arity[atom.relation]} args, got {len(atom.args)}")
        self.names = sorted(arity)
        rel_id = {name: i for i, name in enumerate(self.names)}
        self.constants = sorted({c for f in input.facts() for c in f.args}
                                | {t.value for r in self.rules for a in (r.head, *r.body)
                                   for t in a.args if isinstance(t, Const)})
        const_id = {c: i for i, c in enumerate(self.constants)}
        self.arity = [arity[name] for name in self.names]
        self.width = max(self.arity, default=1)
        self.radix = max(len(self.constants), len(self.names), 1)
        self.wide = self.radix ** (1 + self.width) > 2 ** 63
        power = [self.radix ** (self.width - 1 - p) for p in range(self.width)]

        # each rule's body shape, relation ids and constants, and its head key
        # as a base plus a weight per variable; then its pairs into the groups
        groups: dict[tuple, list[int]] = {}
        self.rels: list[tuple[int, ...]] = []
        self.consts: list[list[int]] = []
        self.heads: list[tuple[int, dict[int, int]]] = []
        head_key = self.radix ** self.width
        for r, rule in enumerate(self.rules):
            if not rule.body:
                raise SemanticError(f"rule {rule.id}: empty body")
            var: dict[str, int] = {}
            body, rels, consts = [], [], []
            for atom in rule.body:
                rels.append(rel_id[atom.relation])
                literal = []
                for t in atom.args:
                    if isinstance(t, Const):
                        literal.append(-1)
                        consts.append(const_id[t.value])
                    else:
                        literal.append(var.setdefault(t, len(var)))
                body.append(tuple(literal))
            base, coef = rel_id[rule.head.relation] * head_key, {}
            for p, t in enumerate(rule.head.args):
                if isinstance(t, Const):
                    base += const_id[t.value] * power[p]
                elif t in var:
                    coef[var[t]] = coef.get(var[t], 0) + power[p]
                else:
                    raise SemanticError(f"rule {rule.id}: head variable {t} not bound in body")
            self.rels.append(tuple(rels))
            self.consts.append(consts)
            self.heads.append((base, coef))
            shape = tuple(body)
            for d in range(len(body)):
                groups.setdefault((shape, d), []).append(r)

        # the pairs, group by group: each literal's relation and the facts it
        # must find, past the end of a body a relation that always has facts
        length = max(map(len, self.rels), default=0)
        pad = len(self.names)
        rels = np.array([rel + (pad,) * (length - len(rel)) for rel in self.rels],
                        dtype=np.intp).reshape(len(self.rels), length)
        members = np.array([r for rules in groups.values() for r in rules], dtype=np.intp)
        sizes = np.array([len(rules) for rules in groups.values()], dtype=np.intp)
        starts = sizes.cumsum() - sizes
        self.groups = [_Group(*key, members[start:start + size]) for key, start, size
                       in zip(groups, starts.tolist(), sizes.tolist())]
        self.pair_rel = rels[members]
        modes = np.full((length, length), _ALL, dtype=np.intp)
        modes[np.tril_indices(length, -1)] = _OLD
        modes[np.diag_indices(length)] = _DELTA
        self.pair_group = np.arange(len(sizes)).repeat(sizes)
        self.pair_mode = modes[np.array([group.delta for group in self.groups],
                                        dtype=np.intp)[self.pair_group]]
        self.pair_member = (np.arange(len(members)) - starts.repeat(sizes)).astype(
            np.min_scalar_type(max(sizes, default=1) - 1))

        # the input facts are rows 0, 1, ... in Database order, and the first delta
        self.inputs = list(input.facts())
        self.n_input = self.n = len(self.inputs)
        self.n_old = 0
        self.rel = np.array([rel_id[f.relation] for f in self.inputs], dtype=np.int32)
        self.args = np.zeros((self.width, self.n), dtype=np.int32)
        at = 0
        for name, tuples in input.tuples.items():
            self.args[:arity[name], at:at + len(tuples)] = np.array(
                [[const_id[c] for c in f.args] for f in tuples], dtype=np.int32).T
            at += len(tuples)
        keys = _pack([self.rel, *self.args], self.radix, self.n)
        order = np.argsort(keys, kind="stable")
        self.known_keys, self.known_ids = keys[order], order.astype(np.int32)
        # facts per relation id, old and all; the pad relation always has one
        self.count_old = np.zeros(pad + 1, dtype=np.intp)
        self.count_old[pad] = 1
        self.count_all = self.count_old + np.bincount(self.rel, minlength=pad + 1)

        # chunks of clauses: (rule positions, rule index or one per clause,
        # conclusions, antecedents in body order)
        self.chunks: list[tuple] = []
        self.n_clauses = 0
        self._index: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._new: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._run()

    def _run(self) -> None:
        while self.n_old < self.n:
            self._index = {}
            have = np.stack([self.count_old, self.count_all - self.count_old, self.count_all])
            pairs = np.flatnonzero((have[self.pair_mode, self.pair_rel] > 0).all(axis=1))
            group = self.pair_group[pairs]
            cuts = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist(), len(pairs)]
            for a, b in zip(cuts, cuts[1:]) if len(pairs) else ():
                self._fire(self.groups[group[a]], self.pair_member[pairs[a:b]])
            self._intern()

    def _build(self, group: _Group) -> None:
        """The group's template and, per step and for its head, each rule's key parts."""
        members = group.members.tolist()
        head = sorted(set().union(*(self.heads[r][1] for r in members)))
        group.steps = _template(group.body, group.delta, head)
        # the constants' order in ``self.consts``: body order
        slot = {}
        for i, literal in enumerate(group.body):
            for p, v in enumerate(literal):
                if v < 0:
                    slot[i, p] = len(slot)
        group.keys = []
        for step in group.steps:
            width = 1 + len(step.positions)
            wide = self.radix ** width > 2 ** 63
            weight = [self.radix ** (width - 1 - c) for c in range(width)]
            static = [self.rels[r][step.literal] * weight[0] for r in members]
            terms = []
            for c, p in enumerate(step.positions, 1):
                v = group.body[step.literal][p]
                if v >= 0:
                    terms.append((v, weight[c] if wide else np.int64(weight[c])))
                    continue
                k = slot[step.literal, p]
                for m, r in enumerate(members):
                    static[m] += self.consts[r][k] * weight[c]
            if step is group.steps[0]:
                group.first = np.array(static, dtype=object if wide else np.int64)
            else:
                group.keys.append((_per_rule(static, wide), tuple(terms), wide))
        group.at = tuple(map([s.literal for s in group.steps].index, range(len(group.body))))
        group.head_base = _per_rule([self.heads[r][0] for r in members], self.wide)
        group.head_terms = tuple((v, _per_rule([self.heads[r][1].get(v, 0) for r in members],
                                               self.wide)) for v in head)

    def _lookup(self, step: _Step) -> tuple[np.ndarray, np.ndarray]:
        """The sorted keys, relation id then the arguments at ``step.positions``,
        of the facts ``step`` reads, and their rows; built on first use in a round."""
        index = (step.mode, step.positions, step.equal)
        entry = self._index.get(index)
        if entry is None:
            lo = self.n_old if step.mode == _DELTA else 0
            hi = self.n_old if step.mode == _OLD else self.n
            rows = np.arange(lo, hi)
            for p, q in step.equal:
                rows = rows[self.args[p, rows] == self.args[q, rows]]
            keys = _pack([self.rel[rows], *(self.args[p, rows] for p in step.positions)],
                         self.radix, len(rows))
            order = np.argsort(keys, kind="stable")
            entry = self._index[index] = (keys[order], rows[order])
        return entry

    def _fire(self, group: _Group, live: np.ndarray) -> None:
        """Join the rules ``live`` of ``group`` (indices among its members) once."""
        if not group.steps:
            self._build(group)
        first, *steps = group.steps
        # the delta literal comes first: one probe per rule, its relation and constants
        keys, rows = self._lookup(first)
        probe = group.first[live]
        lo = keys.searchsorted(probe)
        counts = keys.searchsorted(probe, "right") - lo
        total = int(counts.sum())
        if total > CLAUSE_BUDGET:
            raise GroundingBudgetError(total, CLAUSE_BUDGET)
        if not total:
            return
        hit = counts.nonzero()[0] if len(live) > 1 else (0,)
        if len(hit) == 1:  # one rule: its matches are one slice, and rule is a scalar
            rule = int(live[hit[0]])
            start = int(lo[hit[0]])
            rows = rows[start:start + total]
        else:
            rule = live.repeat(counts)
            rows = rows[_spread(lo, counts, total)]
        binding = {v: self.args[p][rows] for p, v in first.new}
        ants = [rows.astype(np.int32)]  # fact ids, one column per join step
        n = total
        for step, (static, terms, wide) in zip(steps, group.keys):
            keys, rows = self._lookup(step)
            probe = _sum(_of(static, rule), [(binding[v], w) for v, w in terms], n, wide)
            lo = keys.searchsorted(probe)
            counts = keys.searchsorted(probe, "right") - lo
            total = int(counts.sum())
            if total > CLAUSE_BUDGET:
                raise GroundingBudgetError(total, CLAUSE_BUDGET)
            if not total:
                return
            # row i matches rows[lo[i]:lo[i] + counts[i]]
            take = np.arange(n).repeat(counts)
            rows = rows[_spread(lo, counts, total)]
            binding = {**{v: binding[v][take] for v in step.carry},
                       **{v: self.args[p][rows] for p, v in step.new}}
            ants = [a[take] for a in ants]
            ants.append(rows.astype(np.int32))
            if isinstance(rule, np.ndarray):
                rule = rule[take]
            n = total

        key = _sum(_of(group.head_base, rule),
                   [(binding[v], _of(weight, rule)) for v, weight in group.head_terms], n, self.wide)
        at = self.known_keys.searchsorted(key)
        np.minimum(at, self.n - 1, out=at)
        # -1 until a new conclusion gets its id
        concl = np.where(self.known_keys[at] == key, self.known_ids[at], np.int32(-1))
        keep = ants[0] != concl
        for a in ants[1:]:
            keep &= a != concl
        if not keep.all():
            concl, key, ants = concl[keep], key[keep], [a[keep] for a in ants]
            if isinstance(rule, np.ndarray):
                rule = rule[keep]
            if not len(concl):
                return
        self.n_clauses += len(concl)
        if self.n_clauses > CLAUSE_BUDGET:
            raise GroundingBudgetError(self.n_clauses, CLAUSE_BUDGET)
        miss = (concl < 0).nonzero()[0]
        if len(miss):
            self._new.append((concl, miss, key[miss]))
        self.chunks.append((group.members, rule, concl, [ants[j] for j in group.at]))

    def _intern(self) -> None:
        """Give the round's new conclusions fact ids, one per unique key; they are
        the next round's delta."""
        pending, self._new = self._new, []
        self.n_old, self.count_old = self.n, self.count_all
        if not pending:
            return
        # the unique keys and each key's index among them, by one stable sort
        # (np.unique's inverse path maps about 0.6 MB more of numpy's sort code)
        keys = np.concatenate([k for _, _, k in pending])
        order = keys.argsort(kind="stable")
        keys = keys[order]
        first = np.append(True, keys[1:] != keys[:-1])
        inverse = np.empty(len(keys), dtype=np.intp)
        inverse[order] = first.cumsum() - 1
        keys = keys[first]
        ids = np.arange(self.n, self.n + len(keys), dtype=np.int32)
        at = 0
        for concl, miss, k in pending:
            concl[miss] = ids[inverse[at:at + len(k)]]
            at += len(k)
        rows = _unpack(keys, self.radix, 1 + self.width)
        self.rel = np.concatenate([self.rel, rows[0]])
        self.args = np.concatenate([self.args, rows[1:]], axis=1)
        self.n += len(keys)
        self.count_all = self.count_all + np.bincount(rows[0], minlength=len(self.count_all))
        keys = np.concatenate([self.known_keys, keys])
        order = np.argsort(keys, kind="stable")
        self.known_keys, self.known_ids = keys[order], np.concatenate([self.known_ids, ids])[order]

    def _facts(self, rows: np.ndarray) -> list[Fact]:
        """The facts of table rows ``rows``; an input fact is the input's own object."""
        return [self.inputs[row] if row < self.n_input else
                Fact(self.names[rel], tuple(self.constants[c] for c in args[:self.arity[rel]]))
                for row, rel, args in zip(rows.tolist(), self.rel[rows].tolist(),
                                          self.args[:, rows].T.tolist())]

    def derived(self) -> list[Fact]:
        """The derived facts that are not input facts."""
        return self._facts(np.arange(self.n_input, self.n))

    def grounding(self) -> "Grounding":
        # ``known_ids`` lists the fact ids in sorted fact order
        facts = self._facts(self.known_ids)
        position = np.empty(self.n, dtype=np.int64)
        position[self.known_ids] = np.arange(self.n)
        width = max((len(ants) for *_, ants in self.chunks), default=0)
        by_rank = sorted(range(len(self.rules)), key=lambda r: self.rules[r].id)
        rank = np.empty(len(self.rules), dtype=np.int64)
        rank[by_rank] = np.arange(len(self.rules))

        # A clause is one bit field each for its conclusion, its rule's id rank
        # and its antecedents, most significant first, in as few int64 words as
        # hold them.  Fact fields hold positions, antecedents + 1 so that a pad
        # is 0.  No two clauses are equal, so sorting the words as numbers puts
        # the clauses in (conclusion, rule id, antecedents) order.
        fact_bits = len(facts).bit_length()
        sizes = [fact_bits, len(self.rules).bit_length()] + [fact_bits] * width
        groups: list[list[int]] = [[]]
        for i, bits in enumerate(sizes):
            if sum(sizes[j] for j in groups[-1]) + bits > 63:
                groups.append([])
            groups[-1].append(i)
        place = {}  # field -> (word, shift)
        for w, group in enumerate(groups):
            shift = 0
            for i in reversed(group):
                place[i] = (w, shift)
                shift += sizes[i]

        n = sum(len(concl) for _, _, concl, _ in self.chunks)
        words = [np.zeros(n, dtype=np.int64) for _ in groups]
        at = 0
        while self.chunks:
            members, rule, concl, ants = self.chunks.pop()
            for i, value in enumerate((position[concl], rank[members][rule],
                                       *(position[a] + 1 for a in ants))):
                w, shift = place[i]
                words[w][at:at + len(concl)] |= value << shift
            at += len(concl)
        if len(words) == 1:
            words[0].sort()
        else:
            order = np.lexsort(words[::-1])
            words = [word[order] for word in words]

        def field(i: int, out: np.ndarray | None = None) -> np.ndarray:
            w, shift = place[i]
            out = np.right_shift(words[w], shift, out=out)
            out &= (1 << sizes[i]) - 1
            return out

        rule = np.array(by_rank, dtype=np.int64)[field(1)]
        cols = np.empty((width, n), dtype=np.intp)
        for j in range(width):
            field(2 + j, cols[j])
            cols[j] -= 1
        concl = field(0, words[0])  # read last, so it takes the first word's memory
        return Grounding(
            facts=facts,
            input_idx=np.sort(position[:self.n_input]),
            rule_ids=tuple(r.id for r in self.rules),
            concl=concl,
            rule=rule,
            cols=cols)


@dataclass(frozen=True, eq=False)
class Grounding:
    """The least fixpoint of a rule set and every ground clause over it except
    self-loops, which never raise their conclusion, as arrays.

    Facts are referred to by their position in the sorted ``facts`` list.
    Clauses are numbered in (conclusion, rule id, antecedents) order, so each
    conclusion's clauses are one run, and within it the lower index belongs
    to the lower rule id.  ``cols[j, c]`` is the antecedent at body position
    ``j`` of clause ``c``, or -1 past the end of a shorter body.
    """

    facts: list[Fact]          # input and derived facts, sorted
    input_idx: np.ndarray      # positions of the input facts
    rule_ids: tuple[str, ...]  # by rule position
    concl: np.ndarray          # clause -> conclusion position
    rule: np.ndarray           # clause -> rule position
    cols: np.ndarray           # (max body length x clauses) intp, C-contiguous, -1 padded

    def __len__(self) -> int:
        return len(self.concl)


def ground(rules: Iterable[Rule], input: Database) -> Grounding:
    """The least fixpoint of ``rules`` over ``input`` and its non-self-loop ground clauses."""
    return _Kernel(rules, input).grounding()


def boolean_fixpoint(rules: Iterable[Rule], input: Database) -> Database:
    """Least fixpoint under classical semantics; returns derived tuples only."""
    return Database(_Kernel(rules, input).derived())


@dataclass(frozen=True)
class SolutionCheck:
    accepted: bool
    missing: frozenset[Fact]
    spurious: frozenset[Fact]


def check_solution(rules: Iterable[Rule], input: Database, labels: LabelSet) -> SolutionCheck:
    """Accept iff the rules derive every positive label and no negative label."""
    fixpoint = boolean_fixpoint(rules, input)
    missing = frozenset(t for t in labels.positive if t not in fixpoint)
    spurious = frozenset(t for t in labels.negative if t in fixpoint)
    return SolutionCheck(not missing and not spurious, missing, spurious)


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

# A rules.dl line is blank, a comment, or one rule:
#   rule := [name ":"] atom ":-" atom {"," atom} "."
#   atom := name "(" arg {"," arg} ")"
#   arg  := name | '"' {any character but '"'} '"'
#   name := [A-Za-z_][A-Za-z0-9_]*
# Spaces and tabs may stand between any two tokens.  An argument name that
# starts with a lowercase letter or "_" is a variable; any other name, and a
# quoted string, is a constant.  A "#" outside a quoted constant starts a
# comment that runs to the end of the line.  A rule without a name is
# r<line number>.

_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_ARG = rf'(?:{_ID}|"[^"]*")'
_NAME_RE = re.compile(rf"[ \t]*({_ID})[ \t]*:(?!-)")
# The longest valid prefix of an atom: a match that does not reach ``)``
# ends where the grammar rejects the line.  The separator is matched before
# each further argument, so ``p(x,)`` ends after the ``,``.
_ATOM_RE = re.compile(
    rf"[ \t]*({_ID})(?:[ \t]*\((?:[ \t]*{_ARG}[ \t]*,)*(?:[ \t]*{_ARG}(?P<close>[ \t]*\))?)?)?")
_ARGS_RE = re.compile(rf'({_ID})|"([^"]*)"')
_SEP_RE = re.compile(r"[ \t]*(:-|[,.])")
_END_RE = re.compile(r"[ \t]*(?:#.*)?\Z", re.DOTALL)
# From a position the grammar rejects: the next token, then the tokens up to
# a ``#`` comment or the end of the line.  If neither ends the match, the
# character it stopped at is one that no token can start.
_REST_RE = re.compile(
    rf'[ \t]*(?P<token>{_ID}|:-|[(),.:]|"[^"]*")?(?:{_ID}|:-|[(),.: \t]|"[^"]*")*(?P<end>#|\Z)?',
    re.DOTALL)


def _error(text: str, pos: int, expected: str, path, lineno: int) -> ParseError:
    """The error for a line that the grammar rejects at ``pos``, where it
    expected an "argument", a "token" or the "end" of the line.  A character
    that no token can start is reported first, wherever it is after ``pos``.
    A line that ends, or reaches its comment, too early is reported at the
    column just past its last non-blank character before that."""
    m = _REST_RE.match(text, pos)
    if m["end"] is None:
        return ParseError(f"unexpected character {text[m.end()]!r}", path, lineno, m.end() + 1)
    token = m["token"]
    if token is None:
        end = len(text[:m.start("end")].rstrip(" \t"))
        return ParseError("unexpected end of rule", path, lineno, end + 1)
    column = m.start("token") + 1
    if expected == "argument":
        return ParseError(f"expected argument, got {token!r}", path, lineno, column)
    if expected == "end":
        return ParseError("trailing tokens after rule", path, lineno, column)
    return ParseError(f"unexpected token {token!r}", path, lineno, column)


def _atom(text: str, pos: int, path, lineno: int, atoms: dict[str, Atom]) -> tuple[Atom, int]:
    """The atom at ``pos`` and the position past it.  ``atoms`` maps the text
    of each atom read so far, name through ``)``, to its ``Atom``."""
    m = _ATOM_RE.match(text, pos)
    if m is None:
        raise _error(text, pos, "token", path, lineno)
    if m["close"] is None:
        expected = "argument" if text[m.end() - 1] in "(," else "token"
        raise _error(text, m.end(), expected, path, lineno)
    key = text[m.start(1):m.end()]
    atom = atoms.get(key)
    if atom is None:
        # lowercase/underscore-initial identifiers are variables; others constants
        args = tuple(Const(quoted) if not ident
                     else ident if ident[0].islower() or ident[0] == "_" else Const(ident)
                     for ident, quoted in _ARGS_RE.findall(text, m.end(1), m.end()))
        atom = atoms[key] = Atom(m[1], args)
    return atom, m.end()


def parse_rule_line(text: str, default_id: str, path=None, lineno: int = 0,
                    atoms: dict[str, Atom] | None = None) -> Rule:
    """The rule on one line; ``default_id`` unless it has a ``name:`` prefix.
    ``atoms``, shared across the lines of a file, reads each distinct atom
    text once."""
    if atoms is None:
        atoms = {}
    rule_id, pos = default_id, 0
    m = _NAME_RE.match(text)
    if m is not None:
        rule_id, pos = m[1], m.end()
    head, pos = _atom(text, pos, path, lineno, atoms)
    body, separators = [], (":-",)
    while (m := _SEP_RE.match(text, pos)) is not None and m[1] in separators:
        if m[1] == ".":
            if _END_RE.match(text, m.end()) is None:
                raise _error(text, m.end(), "end", path, lineno)
            return Rule(rule_id, head, tuple(body))
        atom, pos = _atom(text, m.end(), path, lineno, atoms)
        body.append(atom)
        separators = (",", ".")
    raise _error(text, pos, "token", path, lineno)


def parse_rules(text: str, path=None) -> list[Rule]:
    """One rule per line, ``r<line>`` unless named, ids unique; skips blanks and comments."""
    rules: dict[str, Rule] = {}
    atoms: dict[str, Atom] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _END_RE.match(line) is None:
            rule = parse_rule_line(line, f"r{lineno}", path, lineno, atoms)
            if rule.id in rules:
                raise ParseError(f"duplicate rule id {rule.id}", path, lineno)
            rules[rule.id] = rule
    return list(rules.values())


def format_rule(rule: Rule) -> str:
    return f"{rule.id}: {rule}"


def parse_relations(text: str, path=None) -> dict[str, RelationDecl]:
    decls: dict[str, RelationDecl] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in (INPUT, OUTPUT):
            raise ParseError("expected 'input|output <name> <arity>'", path, lineno)
        kind, name, arity_text = parts
        if not IDENT_RE.match(name):
            raise ParseError(f"invalid relation name {name!r}", path, lineno)
        try:
            arity = int(arity_text)
        except ValueError:
            raise ParseError(f"invalid arity {arity_text!r}", path, lineno) from None
        if arity < 1:
            raise ParseError("arity must be >= 1", path, lineno)
        if name in decls:
            raise ParseError(f"duplicate relation {name}", path, lineno)
        decls[name] = RelationDecl(name, arity, kind)
    return decls


def _rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """The stripped tab-separated fields of each line that is not blank or a comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, [f.strip() for f in line.split("\t")]


def _fact(decl: RelationDecl, fields: list[str], path, lineno: int) -> Fact:
    if len(fields) != decl.arity:
        raise ParseError(f"{decl.name} has arity {decl.arity}, got {len(fields)} fields",
                         path, lineno)
    return Fact(decl.name, tuple(fields))


def parse_fact_lines(text: str, decl: RelationDecl, path=None) -> list[Fact]:
    return [_fact(decl, fields, path, lineno) for lineno, fields in _rows(text)]


def parse_label_lines(text: str, decls: Mapping[str, RelationDecl], path=None) -> list[Fact]:
    facts = []
    for lineno, (name, *fields) in _rows(text):
        decl = decls.get(name)
        if decl is None:
            raise ParseError(f"undeclared relation {name}", path, lineno)
        if decl.kind != OUTPUT:
            raise ParseError(f"labeled relation {name} is not an output relation", path, lineno)
        facts.append(_fact(decl, fields, path, lineno))
    return facts


def read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file; ProblemError naming ``path`` if it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ProblemError(f"cannot read {path}: {exc}") from None


def parse_problem(directory: str | Path, rules: str | Path | None = None) -> Problem:
    """Load and validate a problem directory.

    Layout: relations.txt, <relation>.facts per input relation (optional,
    empty if absent), labels.pos / labels.neg (optional), and rules.dl, or
    the file ``rules`` in its place.
    """
    directory = Path(directory)
    rel_path = directory / "relations.txt"
    if not rel_path.is_file():
        raise ProblemError(f"missing {rel_path}")
    decls = parse_relations(read_text(rel_path), rel_path)

    facts: list[Fact] = []
    for facts_path in sorted(directory.glob("*.facts")):
        name = facts_path.stem
        decl = decls.get(name)
        if decl is None:
            raise SemanticError(f"{facts_path}: facts file for undeclared relation {name}")
        if decl.kind != INPUT:
            raise SemanticError(f"{facts_path}: facts file for non-input relation {name}")
        facts.extend(parse_fact_lines(read_text(facts_path), decl, facts_path))
    input_db = Database(facts)

    def load_labels(filename: str) -> frozenset[Fact]:
        path = directory / filename
        if not path.exists():
            return frozenset()
        return frozenset(parse_label_lines(read_text(path), decls, path))

    labels = LabelSet(load_labels("labels.pos"), load_labels("labels.neg"))

    rules_path = directory / "rules.dl" if rules is None else Path(rules)
    if not rules_path.is_file():
        raise ProblemError(f"missing {rules_path}")
    candidates = parse_rules(read_text(rules_path), rules_path)
    for rule in candidates:
        validate_rule(rule, decls)
    return Problem(decls, input_db, labels, CandidateRuleSet(candidates))


def _lines(items: Iterable, to_line, read) -> list[str]:
    """The line of each item; ProblemError naming the first item whose line
    ``read`` would not read back as ``[item]``."""
    lines = []
    for item in items:
        line = to_line(item)
        try:
            same = read(line) == [item]
        except ParseError:
            same = False
        if not same:
            raise ProblemError(f"cannot write {item!r}: its line {line!r} reads back differently")
        lines.append(line)
    return lines


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + ("\n" if lines else "")


def _rules_text(rules: Iterable[Rule], header: str) -> str:
    return f"# {header}\n" + _text(_lines(rules, format_rule, parse_rules))


def write_problem(directory: str | Path, decls: Mapping[str, RelationDecl],
                  input: Database, labels: LabelSet, rules: Iterable[Rule]) -> None:
    """Write a problem directory in the standard layout; ProblemError, before
    any file is written, for an input fact of a relation not declared as
    input, or a tuple or rule that would not read back as itself."""
    for relation, facts in input.tuples.items():
        decl = decls.get(relation)
        if decl is None or decl.kind != INPUT:
            raise ProblemError(f"cannot write {facts[0]!r}: {relation} is not "
                               f"declared as an input relation")
    lines = [f"{d.kind} {d.name} {d.arity}" for d in decls.values()]
    files = {"relations.txt": "\n".join(lines) + "\n"}
    for decl in decls.values():
        if decl.kind == INPUT:
            files[f"{decl.name}.facts"] = _text(_lines(
                input.relation(decl.name), lambda f: "\t".join(f.args),
                lambda row: parse_fact_lines(row, decl)))
    for filename, tuples in (("labels.pos", labels.positive), ("labels.neg", labels.negative)):
        files[filename] = _text(_lines(sorted(tuples), lambda f: "\t".join((f.relation, *f.args)),
                                       lambda row: parse_label_lines(row, decls)))
    files["rules.dl"] = _rules_text(rules, "candidate rules")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for filename, text in files.items():
        (directory / filename).write_text(text)


def write_rules(rules: Iterable[Rule], path: str | Path, header: str = "candidate rules") -> None:
    """Write rules in the rules.dl format under a ``# header`` line;
    ProblemError, before writing, for a rule that would not read back as itself."""
    Path(path).write_text(_rules_text(rules, header))
