"""Datalog data model, text formats, grounding, and Boolean fixpoint evaluation.

Constants are opaque strings.  Rules are pure positive Datalog: no
negation, no arithmetic, and every head variable must occur in the body
(range restriction).  One semi-naive kernel grounds a rule set a column at
a time, with numpy sort-merge joins over interned argument columns: it
derives the least fixpoint and emits, in one pass, every ground clause over
it except self-loops, which never raise their conclusion, as the arrays
that weighted evaluation runs on.  A join plan that is empty for sure is
skipped, and a grounding past ``CLAUSE_BUDGET`` clauses, or join rows in one
step, stops with ``GroundingBudgetError``.  This module alone fixes the
clause order, (conclusion, rule id, antecedents), which decides the winning
derivation among equal values; bodies shorter than the longest are padded
with -1.  All structures are immutable after construction and safe to share
across threads.
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


@dataclass(frozen=True, order=True)
class Fact:
    """A ground tuple: relation name plus constant arguments."""

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


Term = "str | Const"  # variables are bare strings


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
# Grounding and Boolean evaluation: one semi-naive, column-at-a-time kernel
# ---------------------------------------------------------------------------
#
# Constants and relation names are interned as ints in sorted string order,
# so interned facts sort exactly like ``Fact``s.  Each relation keeps its
# facts in arrival order as int32 argument columns and fact ids.  A round's
# delta is the suffix that arrived in the last round and the old facts are
# the prefix before it.  Each round joins every rule once per body literal
# that reads the delta: literals left of it read only old facts, literals
# right of it read all facts.  A clause is thus fired exactly once, in the
# round after its newest antecedent arrived, and the rounds yield the least
# fixpoint together with every ground clause over it.
#
# A join runs a column at a time over bindings that start from the rule's
# constants.  Each literal packs its bound arguments into one exact key per
# binding (int64, or Python ints where that could overflow) and finds them in
# a sorted key index of the facts it reads, built on first use in a round; the
# ``searchsorted`` ranges then expand the bindings by their matches with
# ``np.repeat``.  The index already leaves out facts that break a repeated
# variable.  A (rule, delta literal) plan is built on its first firing, and
# skipped while its join is empty for sure: when a literal left of the delta
# reads a relation without old facts, or any literal one without facts.
# Conclusions are looked up among the known facts as they fire; the new ones
# get fact ids at the end of the round, one per unique key.  A self-loop, a
# clause whose conclusion is also an antecedent, is dropped as it fires: its
# value is a product of factors <= 1 times its conclusion's, so it can never
# raise that value.
#
# A join step that would expand to more than ``CLAUSE_BUDGET`` rows, or a
# clause total past it, raises ``GroundingBudgetError`` before the rows exist.
# The output alone takes 40 bytes a clause; the samegen pool over a 30-fact
# binary tree, 10.2 M clauses, grounds in about 0.6 GB.

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
    """The (width x n) int32 argument columns that ``_pack`` made ``keys`` of."""
    args = np.empty((width, len(keys)), dtype=np.int32)
    keys = keys.copy()
    for p in reversed(range(width)):
        args[p] = keys % radix
        keys //= radix
    return args


class _Facts:
    """One relation's facts: argument columns and fact ids in arrival order, and
    every packed key sorted with its fact id.  The facts before ``n_old`` are
    older than the round's delta, which is the rest."""

    __slots__ = ("args", "ids", "n", "n_old", "known_keys", "known_ids")

    def __init__(self, arity: int):
        self.args = np.empty((arity, 0), dtype=np.int32)
        self.ids = np.empty(0, dtype=np.int32)
        self.n = self.n_old = 0
        self.known_keys, self.known_ids = np.empty(0, dtype=np.int64), self.ids

    def extend(self, keys: np.ndarray, ids: np.ndarray, args: np.ndarray) -> None:
        """Append new facts: they are the next round's delta."""
        self.n_old = self.n
        self.n += len(ids)
        self.args = np.concatenate([self.args, args], axis=1)
        self.ids = np.concatenate([self.ids, ids])
        keys = np.concatenate([self.known_keys, keys])
        order = np.argsort(keys, kind="stable")
        self.known_keys, self.known_ids = keys[order], np.concatenate([self.known_ids, ids])[order]


class _Join(NamedTuple):
    """One body literal of a join plan."""

    relation: str
    mode: int                           # _OLD, _DELTA or _ALL facts
    positions: tuple[int, ...]          # argument positions bound on entry
    slots: tuple[int, ...]              # the binding slots that hold their values
    equal: tuple[tuple[int, int], ...]  # position pairs that repeat a new variable
    carry: tuple[int, ...]              # variable slots bound before and read later
    new: tuple[tuple[int, int], ...]    # (position, slot) of each new variable read later


class _Plan(NamedTuple):
    """How to fire one rule when one of its body literals reads the delta."""

    rule: int
    consts: tuple[int, ...]  # the first binding slots: the rule's constants
    joins: tuple[_Join, ...]
    head: tuple[int, ...]    # the slot of each head argument
    body: tuple[int, ...]    # the join step of each body literal, in body order


class _Kernel:
    """Semi-naive evaluation of a rule set that records every clause it fires."""

    def __init__(self, rules: Iterable[Rule], input: Database):
        self.rules = tuple(rules)
        for rule in self.rules:
            if not rule.body:
                raise SemanticError(f"rule {rule.id}: empty body")
            bound = {v for atom in rule.body for v in atom.variables()}
            unbound = [v for v in rule.head.variables() if v not in bound]
            if unbound:
                raise SemanticError(f"rule {rule.id}: head variable {unbound[0]} not bound in body")
        atoms = [a for r in self.rules for a in (r.head, *r.body)]
        names = sorted({f.relation for f in input.facts()} | {a.relation for a in atoms})
        self.constants = sorted({c for f in input.facts() for c in f.args}
                                | {t.value for a in atoms for t in a.args if isinstance(t, Const)})
        self.const_id = {c: i for i, c in enumerate(self.constants)}
        self.radix = max(len(self.constants), 1)
        arity = {name: len(tuples[0].args) for name, tuples in input.tuples.items()}
        for atom in atoms:
            arity.setdefault(atom.relation, len(atom.args))
        self.facts = {name: _Facts(arity[name]) for name in names}
        self.body_facts = [[self.facts[a.relation] for a in rule.body] for rule in self.rules]
        self.uses: dict[str, list[tuple[int, int]]] = {name: [] for name in names}
        for r, rule in enumerate(self.rules):
            for d, atom in enumerate(rule.body):
                self.uses[atom.relation].append((r, d))
        self.plans: dict[tuple[int, int], _Plan] = {}
        self.clauses: list[list[tuple[np.ndarray, ...]]] = [[] for _ in self.rules]
        self.n_clauses = 0
        self._index: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._new: dict[str, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}

        # the input facts have ids 0, 1, ... in Database order, and are the first delta
        self.inputs = list(input.facts())
        self.n_facts = 0
        for name, tuples in input.tuples.items():
            args = np.array([[self.const_id[c] for c in f.args] for f in tuples],
                            dtype=np.int32).reshape(len(tuples), arity[name]).T
            ids = np.arange(self.n_facts, self.n_facts + len(tuples), dtype=np.int32)
            self.facts[name].extend(_pack(args, self.radix, len(tuples)), ids,
                                    np.ascontiguousarray(args))
            self.n_facts += len(tuples)
        self.n_input = len(self.inputs)
        self._run()

    def _run(self) -> None:
        while fresh := [name for name, facts in self.facts.items() if facts.n_old < facts.n]:
            self._index = {}
            for name in fresh:
                for r, d in self.uses[name]:
                    body = self.body_facts[r]
                    if all(f.n_old for f in body[:d]) and all(f.n for f in body[d + 1:]):
                        self._fire(self._plan(r, d))
            self._intern()

    def _plan(self, r: int, delta: int) -> _Plan:
        """Join rule ``r`` from its delta literal, then most-bound literal first.

        Built on first firing.  Each term becomes a binding slot: the rule's
        constants first, then its variables.  A variable is carried past a
        step only while a later step or the head reads it.
        """
        plan = self.plans.get((r, delta))
        if plan is not None:
            return plan
        rule = self.rules[r]
        slot: dict = {}
        for atom in (rule.head, *rule.body):
            for t in atom.args:
                if isinstance(t, Const):
                    slot.setdefault((t.value,), len(slot))
        consts = tuple(self.const_id[c] for c, in slot)
        head, *body = (tuple(slot.setdefault(t if isinstance(t, str) else (t.value,), len(slot))
                             for t in atom.args) for atom in (rule.head, *rule.body))

        bound = set(range(len(consts)))
        order = [delta]
        rest = [i for i in range(len(body)) if i != delta]
        steps = []
        while True:
            positions, slots, equal, new = [], [], [], {}
            for p, s in enumerate(body[order[-1]]):
                if s in bound:
                    positions.append(p)
                    slots.append(s)
                elif s in new:
                    equal.append((new[s], p))
                else:
                    new[s] = p
            bound.update(new)
            steps.append((order[-1], tuple(positions), tuple(slots), tuple(equal), new))
            if not rest:
                break
            nxt = rest[0] if len(rest) == 1 else max(
                rest, key=lambda i: (bound.issuperset(body[i]), sum(s in bound for s in body[i]), -i))
            rest.remove(nxt)
            order.append(nxt)

        live, joins = set(head), []
        for i, positions, slots, equal, new in reversed(steps):
            joins.append(_Join(
                rule.body[i].relation, _DELTA if i == delta else _OLD if i < delta else _ALL,
                positions, slots, equal,
                tuple(s for s in live if s >= len(consts) and s not in new),
                tuple((p, s) for s, p in new.items() if s in live)))
            live = live.difference(new).union(slots)
        plan = self.plans[r, delta] = _Plan(r, consts, tuple(reversed(joins)), head,
                                            tuple(map(order.index, range(len(order)))))
        return plan

    def _lookup(self, join: _Join) -> tuple[np.ndarray, np.ndarray]:
        """The sorted keys at ``join.positions`` of the facts ``join`` reads, and
        their rows in the relation; built on first use in a round."""
        index = (join.relation, join.mode, join.positions, join.equal)
        entry = self._index.get(index)
        if entry is None:
            facts = self.facts[join.relation]
            lo = facts.n_old if join.mode == _DELTA else 0
            hi = facts.n_old if join.mode == _OLD else facts.n
            rows = np.arange(lo, hi)
            for p, q in join.equal:
                rows = rows[facts.args[p, rows] == facts.args[q, rows]]
            keys = _pack([facts.args[p, rows] for p in join.positions], self.radix, len(rows))
            order = np.argsort(keys, kind="stable")
            entry = self._index[index] = (keys[order], rows[order])
        return entry

    def _fire(self, plan: _Plan) -> None:
        consts = dict(enumerate(plan.consts))
        # the delta literal comes first, and only the rule's constants are bound
        first = plan.joins[0]
        facts = self.facts[first.relation]
        keys, rows = self._lookup(first)
        if first.slots:
            key = _pack([consts[s] for s in first.slots], self.radix, 1)[0]
            rows = rows[keys.searchsorted(key):keys.searchsorted(key, "right")]
        if not len(rows):
            return
        binding = {**consts, **{s: facts.args[p][rows] for p, s in first.new}}
        ants = [facts.ids[rows]]  # fact ids, one column per join step
        n = len(rows)
        for join in plan.joins[1:]:
            facts = self.facts[join.relation]
            keys, rows = self._lookup(join)
            probe = _pack([binding[s] for s in join.slots], self.radix, n)
            lo = keys.searchsorted(probe)
            counts = keys.searchsorted(probe, "right") - lo
            total = int(counts.sum())
            if total > CLAUSE_BUDGET:
                raise GroundingBudgetError(total, CLAUSE_BUDGET)
            if not total:
                return
            # binding i matches rows[lo[i]:lo[i] + counts[i]]
            take = np.arange(n).repeat(counts)
            rows = rows[np.arange(total) + (lo - counts.cumsum() + counts).repeat(counts)]
            binding = {**consts, **{s: binding[s][take] for s in join.carry},
                       **{s: facts.args[p][rows] for p, s in join.new}}
            ants = [a[take] for a in ants]
            ants.append(facts.ids[rows])
            n = total

        relation = self.rules[plan.rule].head.relation
        head = self.facts[relation]
        key = _pack([binding[s] for s in plan.head], self.radix, n)
        concl = np.full(n, -1, dtype=np.int32)  # -1 until a new conclusion gets its id
        if head.n:
            at = head.known_keys.searchsorted(key)
            np.minimum(at, head.n - 1, out=at)
            concl = np.where(head.known_keys[at] == key, head.known_ids[at], concl)
        keep = ants[0] != concl
        for a in ants[1:]:
            keep &= a != concl
        if not keep.all():
            concl, key, ants = concl[keep], key[keep], [a[keep] for a in ants]
            if not len(concl):
                return
        self.n_clauses += len(concl)
        if self.n_clauses > CLAUSE_BUDGET:
            raise GroundingBudgetError(self.n_clauses, CLAUSE_BUDGET)
        miss = (concl < 0).nonzero()[0]
        if len(miss):
            self._new.setdefault(relation, []).append((concl, miss, key[miss]))
        self.clauses[plan.rule].append((concl, *(ants[j] for j in plan.body)))

    def _intern(self) -> None:
        """Give the round's new conclusions fact ids, one per unique key; they are
        the next round's delta."""
        for name, facts in self.facts.items():
            pending = self._new.pop(name, None)
            if pending is None:
                facts.n_old = facts.n
                continue
            # the unique keys and each key's index among them, by one stable sort
            # (np.unique's inverse path maps about 0.6 MB more of numpy's sort code)
            keys = np.concatenate([k for _, _, k in pending])
            order = keys.argsort(kind="stable")
            keys = keys[order]
            first = np.append(True, keys[1:] != keys[:-1])
            inverse = np.empty(len(keys), dtype=np.intp)
            inverse[order] = first.cumsum() - 1
            keys = keys[first]
            ids = np.arange(self.n_facts, self.n_facts + len(keys), dtype=np.int32)
            self.n_facts += len(keys)
            at = 0
            for concl, miss, k in pending:
                concl[miss] = ids[inverse[at:at + len(k)]]
                at += len(k)
            facts.extend(keys, ids, _unpack(keys, self.radix, len(facts.args)))

    def _sorted_facts(self) -> tuple[list[Fact], np.ndarray]:
        """Every fact, sorted, and the position of each fact id among them; the
        input facts are the input's own objects."""
        facts: list[Fact] = []
        position = np.empty(self.n_facts, dtype=np.int64)
        for name, rel in self.facts.items():
            if rel.n:
                position[rel.known_ids] = np.arange(len(facts), len(facts) + rel.n)
                args = _unpack(rel.known_keys, self.radix, len(rel.args)).T.tolist()
                facts.extend(self.inputs[fid] if fid < self.n_input
                             else Fact(name, tuple(self.constants[c] for c in row))
                             for fid, row in zip(rel.known_ids.tolist(), args))
        return facts, position

    def derived(self) -> list[Fact]:
        """The derived facts that are not input facts."""
        return [Fact(name, tuple(self.constants[c] for c in row))
                for name, rel in self.facts.items()
                for row in rel.args[:, rel.ids >= self.n_input].T.tolist()]

    def grounding(self) -> "Grounding":
        facts, position = self._sorted_facts()
        rules = [r for r in range(len(self.rules)) if self.clauses[r]]
        width = max((len(self.rules[r].body) for r in rules), default=0)
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

        n = sum(len(chunk[0]) for r in rules for chunk in self.clauses[r])
        words = [np.zeros(n, dtype=np.int64) for _ in groups]
        at = 0
        for r in rules:
            for concl, *ants in self.clauses[r]:
                for i, value in enumerate((position[concl], rank[r],
                                           *(position[a] + 1 for a in ants))):
                    w, shift = place[i]
                    words[w][at:at + len(concl)] |= value << shift
                at += len(concl)
            self.clauses[r] = []
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

_TOKEN_RE = re.compile(r"""[ \t]*(?:(?P<id>[A-Za-z_][A-Za-z0-9_]*)
                                  |(?P<str>"[^"]*")
                                  |(?P<sym>:-|[(),.:]))""", re.VERBOSE)


def _tokenize_rule_line(text: str, path, lineno: int) -> list[tuple[str, str, int]]:
    """The tokens of one line; a ``#`` outside a quoted constant starts a comment."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos] in " \t":
            pos += 1
            continue
        if text[pos] == "#":
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.start(m.lastgroup) != pos:
            raise ParseError(f"unexpected character {text[pos]!r}", path, lineno, pos + 1)
        tokens.append((m.lastgroup, m.group(m.lastgroup), pos + 1))
        pos = m.end()
    return tokens


class _RuleParser:
    def __init__(self, tokens, path, lineno):
        self.tokens = tokens
        self.path = path
        self.lineno = lineno
        self.i = 0

    def peek(self, offset=0):
        j = self.i + offset
        return self.tokens[j] if j < len(self.tokens) else (None, None, None)

    def take(self, kind=None, value=None):
        k, v, col = self.peek()
        if k is None:
            raise ParseError("unexpected end of rule", self.path, self.lineno)
        if (kind is not None and k != kind) or (value is not None and v != value):
            raise ParseError(f"unexpected token {v!r}", self.path, self.lineno, col)
        self.i += 1
        return v

    def atom(self) -> Atom:
        name = self.take("id")
        self.take("sym", "(")
        args: list = []
        while True:
            k, v, col = self.peek()
            if k == "id":
                self.take()
                # lowercase/underscore-initial tokens are variables; others constants
                args.append(v if v[0].islower() or v[0] == "_" else Const(v))
            elif k == "str":
                self.take()
                args.append(Const(v[1:-1]))
            else:
                raise ParseError(f"expected argument, got {v!r}", self.path, self.lineno, col)
            if self.peek()[1] == ",":
                self.take()
            else:
                break
        self.take("sym", ")")
        return Atom(name, tuple(args))

    def rule(self, default_id: str) -> Rule:
        rule_id = default_id
        if self.peek()[0] == "id" and self.peek(1)[1] == ":":
            rule_id = self.take("id")
            self.take("sym", ":")
        head = self.atom()
        self.take("sym", ":-")
        body = [self.atom()]
        while self.peek()[1] == ",":
            self.take()
            body.append(self.atom())
        self.take("sym", ".")
        if self.peek()[0] is not None:
            raise ParseError("trailing tokens after rule", self.path, self.lineno, self.peek()[2])
        return Rule(rule_id, head, tuple(body))


def parse_rule_line(text: str, default_id: str, path=None, lineno: int = 0) -> Rule:
    tokens = _tokenize_rule_line(text, path, lineno)
    return _RuleParser(tokens, path, lineno).rule(default_id)


def parse_rules(text: str, path=None) -> list[Rule]:
    """One rule per line; blank and comment-only lines are skipped."""
    rules = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_rule_line(line, path, lineno)
        if tokens:
            rules.append(_RuleParser(tokens, path, lineno).rule(f"r{lineno}"))
    return rules


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


def parse_fact_lines(text: str, decl: RelationDecl, path=None) -> list[Fact]:
    facts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != decl.arity:
            raise ParseError(
                f"{decl.name} has arity {decl.arity}, got {len(fields)} fields", path, lineno)
        facts.append(Fact(decl.name, tuple(f.strip() for f in fields)))
    return facts


def parse_label_lines(text: str, decls: Mapping[str, RelationDecl], path=None) -> list[Fact]:
    facts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        name = fields[0].strip()
        decl = decls.get(name)
        if decl is None:
            raise ParseError(f"undeclared relation {name}", path, lineno)
        if decl.kind != OUTPUT:
            raise ParseError(f"labeled relation {name} is not an output relation", path, lineno)
        if len(fields) - 1 != decl.arity:
            raise ParseError(
                f"{name} has arity {decl.arity}, got {len(fields) - 1} fields", path, lineno)
        facts.append(Fact(name, tuple(f.strip() for f in fields[1:])))
    return facts


def read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file; ProblemError naming ``path`` if it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ProblemError(f"cannot read {path}: {exc}") from None


def parse_problem(directory: str | Path) -> Problem:
    """Load and validate a problem directory.

    Layout: relations.txt, <relation>.facts per input relation (optional,
    empty if absent), labels.pos / labels.neg (optional), rules.dl.
    """
    directory = Path(directory)
    rel_path = directory / "relations.txt"
    if not rel_path.is_file():
        raise ProblemError(f"missing {rel_path}")
    decls = parse_relations(read_text(rel_path), rel_path)

    for facts_path in directory.glob("*.facts"):
        name = facts_path.stem
        decl = decls.get(name)
        if decl is None:
            raise SemanticError(f"{facts_path}: facts file for undeclared relation {name}")
        if decl.kind != INPUT:
            raise SemanticError(f"{facts_path}: facts file for non-input relation {name}")

    facts: list[Fact] = []
    for decl in decls.values():
        if decl.kind != INPUT:
            continue
        facts_path = directory / f"{decl.name}.facts"
        if facts_path.exists():
            facts.extend(parse_fact_lines(read_text(facts_path), decl, facts_path))
    input_db = Database(facts)

    def load_labels(filename: str) -> frozenset[Fact]:
        path = directory / filename
        if not path.exists():
            return frozenset()
        return frozenset(parse_label_lines(read_text(path), decls, path))

    labels = LabelSet(load_labels("labels.pos"), load_labels("labels.neg"))

    rules_path = directory / "rules.dl"
    if not rules_path.is_file():
        raise ProblemError(f"missing {rules_path}")
    rules = parse_rules(read_text(rules_path), rules_path)
    for rule in rules:
        validate_rule(rule, decls)
    return Problem(decls, input_db, labels, CandidateRuleSet(rules))


def write_problem(directory: str | Path, decls: Mapping[str, RelationDecl],
                  input: Database, labels: LabelSet, rules: Iterable[Rule]) -> None:
    """Write a problem directory in the standard layout."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [f"{d.kind} {d.name} {d.arity}" for d in decls.values()]
    (directory / "relations.txt").write_text("\n".join(lines) + "\n")
    for decl in decls.values():
        if decl.kind != INPUT:
            continue
        rows = ["\t".join(f.args) for f in input.relation(decl.name)]
        (directory / f"{decl.name}.facts").write_text("\n".join(rows) + ("\n" if rows else ""))
    for filename, tuples in (("labels.pos", labels.positive), ("labels.neg", labels.negative)):
        rows = ["\t".join((f.relation, *f.args)) for f in sorted(tuples)]
        (directory / filename).write_text("\n".join(rows) + ("\n" if rows else ""))
    write_rules(rules, directory / "rules.dl")


def write_rules(rules: Iterable[Rule], path: str | Path, header: str = "candidate rules") -> None:
    """Write rules in the rules.dl format under a ``# header`` line; round-trips
    through parse_problem."""
    lines = [format_rule(r) for r in rules]
    Path(path).write_text(f"# {header}\n" + "\n".join(lines) + ("\n" if lines else ""))
