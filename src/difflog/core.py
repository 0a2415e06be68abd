"""Datalog data model, text formats, grounding, and Boolean fixpoint evaluation.

Constants are opaque strings.  Rules are pure positive Datalog: no
negation, no arithmetic, and every head variable must occur in the body
(range restriction).  One semi-naive, indexed kernel grounds a rule set: it
derives the least fixpoint and emits, in one pass, every ground clause over
it except self-loops, which never raise their conclusion, as the arrays
that weighted evaluation runs on.  This module alone fixes the clause
order, (conclusion, rule id, antecedents), which decides the winning
derivation among equal values; bodies shorter than the longest are padded
with -1.  All structures are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
# Grounding and Boolean evaluation: one semi-naive, indexed kernel
# ---------------------------------------------------------------------------
#
# Constants and relation names are interned as ints in sorted string order,
# so interned facts sort exactly like ``Fact``s.  Each round joins every rule
# once per body literal that can read the previous round's new facts (the
# delta): literals left of it read only older facts, literals right of it read
# all facts.  A clause is thus fired exactly once, in the round after its
# newest antecedent arrived, and the rounds yield the least fixpoint together
# with every ground clause over it.  A self-loop, a clause whose conclusion is
# also an antecedent, is dropped as it fires: its value is a product of
# factors <= 1 times its conclusion's, so it can never raise that value.

_OLD, _DELTA, _ALL = range(3)


def _key(positions: Sequence[int]) -> Callable[[tuple], object]:
    """Index key at ``positions``: the bare value for one position, else a tuple."""
    return itemgetter(*positions) if positions else (lambda t: ())


def _picker(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """The values at ``positions``, always as a tuple."""
    if len(positions) == 1:
        p = positions[0]
        return lambda t: (t[p],)
    return _key(positions)


class _Relation:
    """The facts of one relation as interned argument tuples, in arrival order.

    Fact ids grow in arrival order, so every index bucket is sorted by id and
    the facts of a round's delta are a suffix of it.
    """

    __slots__ = ("ids", "facts", "indexes")

    def __init__(self):
        self.ids: dict[tuple[int, ...], int] = {}  # every fact ever derived, by args
        self.facts: list[tuple[tuple[int, ...], int]] = []  # (args, id) joinable this round
        self.indexes: dict[tuple[int, ...], tuple[Callable, dict]] = {}

    def index(self, positions: tuple[int, ...]) -> dict:
        """Fact ids keyed by their values at ``positions``, built on first use."""
        entry = self.indexes.get(positions)
        if entry is None:
            key = _key(positions)
            buckets: dict = {}
            for args, fid in self.facts:
                buckets.setdefault(key(args), []).append(fid)
            entry = self.indexes[positions] = (key, buckets)
        return entry[1]

    def extend(self, new: list[tuple[tuple[int, ...], int]]) -> None:
        self.facts.extend(new)
        for key, buckets in self.indexes.values():
            for args, fid in new:
                buckets.setdefault(key(args), []).append(fid)


class _Step(NamedTuple):
    """One body literal of a join plan."""

    relation: str
    positions: tuple[int, ...]         # argument positions bound on entry
    key: Callable                      # binding -> index key at those positions
    mode: int                          # _OLD, _DELTA or _ALL facts
    equal: tuple[tuple[int, int], ...]  # positions that repeat a new variable
    bind: Callable | None              # fact args -> values of the new variables


class _Plan(NamedTuple):
    """How to fire one rule when one of its body literals reads the delta."""

    rule: int
    start: tuple[int, ...]  # initial binding: the rule's constants
    steps: tuple[_Step, ...]
    head: Callable          # binding -> head args
    emit: Callable          # antecedents in join order + (conclusion,) -> clause row


def _plan(r: int, rule: Rule, delta: int, const_id: Mapping[str, int]) -> _Plan:
    """Join ``rule`` starting from the delta literal, then most-bound literal first.

    Bindings are tuples holding the rule's constants, then each variable in
    the order the join binds it.
    """
    slot: dict = {}
    for atom in (rule.head, *rule.body):
        for t in atom.args:
            if isinstance(t, Const):
                slot.setdefault(t, len(slot))
    start = tuple(const_id[c.value] for c in slot)

    def boundness(i: int) -> tuple[bool, int, int]:
        args = rule.body[i].args
        n_bound = sum(1 for t in args if t in slot)
        return (n_bound == len(args), n_bound, -i)

    order = [delta]
    rest = [i for i in range(len(rule.body)) if i != delta]
    steps = []
    while True:
        atom = rule.body[order[-1]]
        positions, slots, equal, new = [], [], [], {}
        for p, t in enumerate(atom.args):
            if t in slot:
                positions.append(p)
                slots.append(slot[t])
            elif t in new:
                equal.append((new[t], p))
            else:
                new[t] = p
        for t in new:
            slot[t] = len(slot)
        i = order[-1]
        steps.append(_Step(atom.relation, tuple(positions), _key(slots),
                           _DELTA if i == delta else _OLD if i < delta else _ALL,
                           tuple(equal), _picker(list(new.values())) if new else None))
        if not rest:
            break
        nxt = max(rest, key=boundness)
        rest.remove(nxt)
        order.append(nxt)

    unbound = [t for t in rule.head.args if t not in slot]
    if unbound:
        raise SemanticError(f"rule {rule.id}: head variable {unbound[0]} not bound in body")
    head = _picker([slot[t] for t in rule.head.args])
    emit = _picker([len(order)] + [order.index(i) for i in range(len(order))])
    return _Plan(r, start, tuple(steps), head, emit)


class _Kernel:
    """Semi-naive evaluation of a rule set that records every clause it fires."""

    def __init__(self, rules: Iterable[Rule], input: Database):
        self.rules = tuple(rules)
        atoms = [a for r in self.rules for a in (r.head, *r.body)]
        self.input = input
        self.names = sorted({f.relation for f in input.facts()} | {a.relation for a in atoms})
        self.constants = sorted({c for f in input.facts() for c in f.args}
                                | {t.value for a in atoms for t in a.args if isinstance(t, Const)})
        const_id = {c: i for i, c in enumerate(self.constants)}
        self.relations = {name: _Relation() for name in self.names}
        self.rel_rank = {name: i for i, name in enumerate(self.names)}
        self.plans: list[list[_Plan]] = []
        for r, rule in enumerate(self.rules):
            if not rule.body:
                raise SemanticError(f"rule {rule.id}: empty body")
            self.plans.append([_plan(r, rule, d, const_id) for d in range(len(rule.body))])

        self.args: list[tuple[int, ...]] = []  # fact id -> interned args
        self.rank: list[int] = []              # fact id -> relation rank
        self.clauses = [array("q") for _ in self.rules]  # flat (conclusion, antecedents...)
        self._pending = {name: [] for name in self.names}
        for f in input.facts():
            self._fact(f.relation, tuple(const_id[c] for c in f.args))
        self.n_input = len(self.args)
        self._run()

    def _fact(self, relation: str, args: tuple[int, ...]) -> int:
        """The id of a fact, added to the next round's delta if it is new."""
        ids = self.relations[relation].ids
        fid = ids.get(args)
        if fid is None:
            fid = ids[args] = len(self.args)
            self.args.append(args)
            self.rank.append(self.rel_rank[relation])
            self._pending[relation].append((args, fid))
        return fid

    def _run(self) -> None:
        lo = 0
        while lo < len(self.args):
            # the facts with ids in [lo, hi) are this round's delta
            hi = len(self.args)
            fresh = set()
            for name, new in self._pending.items():
                if new:
                    self.relations[name].extend(new)
                    self._pending[name] = []
                    fresh.add(name)
            for plans in self.plans:
                for plan in plans:
                    if plan.steps[0].relation in fresh:
                        self._fire(plan, lo)
            lo = hi

    def _fire(self, plan: _Plan, lo: int) -> None:
        rows = [(plan.start, ())]
        args_of = self.args
        for step in plan.steps:
            buckets = self.relations[step.relation].index(step.positions)
            key, mode, equal, bind = step.key, step.mode, step.equal, step.bind
            out = []
            for b, ants in rows:
                bucket = buckets.get(key(b))
                if not bucket:
                    continue
                if mode == _OLD:
                    if bucket[-1] >= lo:
                        bucket = bucket[:bisect_left(bucket, lo)]
                elif mode == _DELTA:
                    bucket = bucket[bisect_left(bucket, lo):]
                for fid in bucket:
                    args = args_of[fid]
                    if equal and any(args[p] != args[q] for p, q in equal):
                        continue
                    out.append((b + bind(args) if bind else b, (*ants, fid)))
            rows = out
            if not rows:
                return
        relation = self.rules[plan.rule].head.relation
        head, emit, buf = plan.head, plan.emit, self.clauses[plan.rule]
        for b, ants in rows:
            conclusion = self._fact(relation, head(b))
            if conclusion not in ants:
                buf.extend(emit((*ants, conclusion)))

    def _to_fact(self, fid: int) -> Fact:
        return Fact(self.names[self.rank[fid]], tuple(self.constants[c] for c in self.args[fid]))

    def derived(self) -> list[Fact]:
        """The derived facts that are not input facts."""
        return [self._to_fact(fid) for fid in range(self.n_input, len(self.args))]

    def grounding(self) -> "Grounding":
        n_facts = len(self.args)
        order = sorted(range(n_facts), key=lambda fid: (self.rank[fid], self.args[fid]))
        position = np.empty(n_facts, dtype=np.int64)
        position[order] = np.arange(n_facts, dtype=np.int64)
        inputs = list(self.input.facts())
        facts = [inputs[fid] if fid < self.n_input else self._to_fact(fid) for fid in order]

        # the rules with clauses in id order, each one's sorted by (conclusion, antecedents)
        by_id = sorted((r for r in range(len(self.rules)) if self.clauses[r]),
                       key=lambda r: self.rules[r].id)
        sizes = [len(self.clauses[r]) // (len(self.rules[r].body) + 1) for r in by_id]
        width = max((len(self.rules[r].body) for r in by_id), default=0)
        concl = np.empty(sum(sizes), dtype=np.int64)
        cols = np.full((width, len(concl)), -1, dtype=np.intp)
        lo = 0
        for r, n in zip(by_id, sizes):
            k = len(self.rules[r].body)
            rows = position[np.frombuffer(self.clauses[r], dtype=np.int64).reshape(n, k + 1)]
            rows = rows[np.lexsort(rows.T[::-1])]
            concl[lo:lo + n] = rows[:, 0]
            cols[:k, lo:lo + n] = rows[:, 1:].T
            lo += n
        rule = np.repeat(np.array(by_id, dtype=np.int64), sizes)
        # a stable sort by conclusion gives (conclusion, rule id, antecedents) order;
        # take keeps the columns C-contiguous
        order = np.argsort(concl, kind="stable")
        return Grounding(
            facts=facts,
            input_idx=np.sort(position[:self.n_input]),
            rule_ids=tuple(r.id for r in self.rules),
            concl=concl[order],
            rule=rule[order],
            cols=np.take(cols, order, axis=1))


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


def format_term(term) -> str:
    return f'"{term.value}"' if isinstance(term, Const) else term


def format_atom(atom: Atom) -> str:
    return f"{atom.relation}({','.join(format_term(a) for a in atom.args)})"


def format_rule(rule: Rule, with_id: bool = True) -> str:
    body = ", ".join(format_atom(a) for a in rule.body)
    text = f"{format_atom(rule.head)} :- {body}."
    return f"{rule.id}: {text}" if with_id else text


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


def parse_problem(directory: str | Path) -> Problem:
    """Load and validate a problem directory.

    Layout: relations.txt, <relation>.facts per input relation (optional,
    empty if absent), labels.pos / labels.neg (optional), rules.dl.
    """
    directory = Path(directory)
    rel_path = directory / "relations.txt"
    if not rel_path.is_file():
        raise ProblemError(f"missing {rel_path}")
    decls = parse_relations(rel_path.read_text(), rel_path)

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
        if facts_path.is_file():
            facts.extend(parse_fact_lines(facts_path.read_text(), decl, facts_path))
    input_db = Database(facts)

    def load_labels(filename: str) -> frozenset[Fact]:
        path = directory / filename
        if not path.is_file():
            return frozenset()
        return frozenset(parse_label_lines(path.read_text(), decls, path))

    labels = LabelSet(load_labels("labels.pos"), load_labels("labels.neg"))

    rules_path = directory / "rules.dl"
    if not rules_path.is_file():
        raise ProblemError(f"missing {rules_path}")
    rules = parse_rules(rules_path.read_text(), rules_path)
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


def write_rules(rules: Iterable[Rule], path: str | Path) -> None:
    """Write rules.dl in the standard format; round-trips through parse_problem."""
    lines = [format_rule(r) for r in rules]
    Path(path).write_text("# candidate rules\n" + "\n".join(lines) + ("\n" if lines else ""))
