"""Independent oracles and adversarial instance generation.

naive_ground and naive_fixpoint are nested-loop grounding and naive
fixpoint iteration, kept only to check the grounding kernel in ``core``;
ground_clauses reads the kernel's clause arrays as the same GroundClauses.
brute_force_value enumerates derivation trees directly from the defining
max-product semantics, independent of the fixpoint evaluator.  encode_3cnf
builds the rule-selection instance whose solvability mirrors 3-CNF
satisfiability.  random_instance produces small valid problems for the
property suites.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import (INPUT, OUTPUT, Atom, CandidateRuleSet, Const, Constant,
                   Database, Fact, Grounding, LabelSet, Problem, ProblemError,
                   RelationDecl, Rule, boolean_fixpoint, check_solution)

TREE_GUARD = 10_000


@dataclass(frozen=True)
class GroundClause:
    """A rule instantiated with constants.

    ``antecedents`` preserves body-literal order and multiplicity.
    """

    rule_id: str
    antecedents: tuple[Fact, ...]
    conclusion: Fact


def ground_clauses(grounding: Grounding) -> list[GroundClause]:
    """The clauses of ``core.ground``'s arrays as ``GroundClause``s, in clause order."""
    facts, rule_ids = grounding.facts, grounding.rule_ids
    return [GroundClause(rule_ids[r], tuple(facts[a] for a in ants if a >= 0), facts[c])
            for c, r, ants in zip(grounding.concl.tolist(), grounding.rule.tolist(),
                                  grounding.cols.T.tolist())]


def _match_atom(atom: Atom, fact: Fact, binding: dict[str, Constant]) -> dict[str, Constant] | None:
    new = None
    for term, const in zip(atom.args, fact.args):
        if isinstance(term, Const):
            if term.value != const:
                return None
        else:
            bound = binding.get(term) if new is None else new.get(term, binding.get(term))
            if bound is None:
                if new is None:
                    new = dict(binding)
                new[term] = const
            elif bound != const:
                return None
    return binding if new is None else new


def naive_ground(rule: Rule, facts: Database) -> set[GroundClause]:
    """All instantiations of ``rule`` whose body atoms all match facts."""
    clauses: set[GroundClause] = set()

    def extend(i: int, binding: dict[str, Constant], ants: list[Fact]):
        if i == len(rule.body):
            head_args = tuple(
                a.value if isinstance(a, Const) else binding[a] for a in rule.head.args)
            clauses.add(GroundClause(rule.id, tuple(ants), Fact(rule.head.relation, head_args)))
            return
        atom = rule.body[i]
        for fact in facts.relation(atom.relation):
            nb = _match_atom(atom, fact, binding)
            if nb is not None:
                ants.append(fact)
                extend(i + 1, nb, ants)
                ants.pop()

    extend(0, {}, [])
    return clauses


def naive_fixpoint(rules: Iterable[Rule], input: Database) -> Database:
    """Least fixpoint by re-grounding every rule each round; derived tuples only."""
    rules = tuple(rules)
    derived: set[Fact] = set()
    current = input
    while True:
        new = set()
        for rule in rules:
            for clause in naive_ground(rule, current):
                if clause.conclusion not in derived and clause.conclusion not in input:
                    new.add(clause.conclusion)
        if not new:
            return Database(derived)
        derived |= new
        current = Database([*input.facts(), *derived])


class EnumerationOverflow(Exception):
    """Too many derivation trees to enumerate at this depth."""


def brute_force_value(rules: Iterable[Rule], w: Mapping[str, float],
                      input: Database, t: Fact, depth: int) -> float:
    """Max product of rule weights over derivation trees of t with height <= depth."""
    rules = tuple(rules)
    full = naive_fixpoint(rules, input)
    universe = input.union(full)
    by_conclusion: dict[Fact, list] = {}
    for rule in rules:
        for clause in naive_ground(rule, universe):
            by_conclusion.setdefault(clause.conclusion, []).append(clause)
    for clauses in by_conclusion.values():
        clauses.sort(key=lambda c: (c.rule_id, c.antecedents))

    budget = [TREE_GUARD * max(depth, 1)]

    def tree_values(fact: Fact, d: int) -> list[float]:
        if fact in input:
            return [1.0]
        if d == 0:
            return []
        values = []
        for clause in by_conclusion.get(fact, ()):
            sub_values = [tree_values(a, d - 1) for a in clause.antecedents]
            if any(not vs for vs in sub_values):
                continue
            for combo in itertools.product(*sub_values):
                budget[0] -= 1
                if budget[0] < 0:
                    raise EnumerationOverflow(
                        f"more than {TREE_GUARD * max(depth, 1)} trees for {t} at depth {depth}")
                v = w[clause.rule_id]
                for sv in combo:
                    v *= sv
                values.append(v)
        return values

    values = tree_values(t, depth)
    return max(values, default=0.0)


# ---------------------------------------------------------------------------
# 3-CNF encoding
# ---------------------------------------------------------------------------

Clause3 = Sequence[int]  # three nonzero DIMACS-style literals


def parse_dimacs(text: str) -> list[tuple[int, int, int]]:
    """Read a DIMACS CNF file; every clause must have exactly three literals."""
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("c", "p", "%")):
            continue
        try:
            literals = [int(tok) for tok in line.split()]
        except ValueError:
            raise ProblemError(f"line {lineno}: malformed clause {line!r}") from None
        if literals and literals[-1] == 0:
            literals = literals[:-1]
        if len(literals) != 3 or 0 in literals:
            raise ProblemError(f"line {lineno}: expected exactly three nonzero literals")
        clauses.append(tuple(literals))
    if not clauses:
        raise ProblemError("no clauses found")
    return clauses


def encode_3cnf(formula: Sequence[Clause3]) -> Problem:
    """Encode 3-CNF satisfiability as a rule-selection instance."""
    for i, clause in enumerate(formula, start=1):
        if len(clause) != 3 or any(lit == 0 for lit in clause):
            raise ProblemError(f"clause {i}: expected three nonzero literals")
        if any(-lit in clause for lit in clause):
            raise ProblemError(f"clause {i}: trivial clause (contains v and not-v)")

    variables = sorted({abs(lit) for clause in formula for lit in clause})
    clause_const = {i: f"c{i}" for i in range(1, len(formula) + 1)}
    var_const = {v: f"x{v}" for v in variables}
    sentinel = "a"

    decls: dict[str, RelationDecl] = {}
    facts: list[Fact] = []
    rules: list[Rule] = []
    for v in variables:
        pos_rel, neg_rel, var_rel = f"pos_x{v}", f"neg_x{v}", f"var_x{v}"
        decls[pos_rel] = RelationDecl(pos_rel, 1, INPUT)
        decls[neg_rel] = RelationDecl(neg_rel, 1, INPUT)
        decls[var_rel] = RelationDecl(var_rel, 1, INPUT)
        facts.append(Fact(var_rel, (var_const[v],)))
        for i, clause in enumerate(formula, start=1):
            if v in clause:
                facts.append(Fact(pos_rel, (clause_const[i],)))
            if -v in clause:
                facts.append(Fact(neg_rel, (clause_const[i],)))
        rules.append(Rule(f"r_x{v}_true", Atom("C2", ("c", "w")),
                          (Atom(pos_rel, ("c",)), Atom(var_rel, ("w",)))))
        rules.append(Rule(f"r_x{v}_false", Atom("C2", ("c", "w")),
                          (Atom(neg_rel, ("c",)), Atom(var_rel, ("w",)))))

    decls["conflict"] = RelationDecl("conflict", 3, INPUT)
    for i, ci in enumerate(formula, start=1):
        for j, cj in enumerate(formula, start=1):
            for v in variables:
                if v in ci and -v in cj:
                    facts.append(Fact("conflict", (clause_const[i], clause_const[j], var_const[v])))
    facts.append(Fact("conflict", (sentinel, sentinel, sentinel)))

    decls["C2"] = RelationDecl("C2", 2, OUTPUT)
    decls["C1"] = RelationDecl("C1", 1, OUTPUT)
    decls["error"] = RelationDecl("error", 3, OUTPUT)
    rules.append(Rule("r_e", Atom("error", ("c", "d", "v")),
                      (Atom("C2", ("c", "v")), Atom("C2", ("d", "v")),
                       Atom("conflict", ("c", "d", "v")))))
    rules.append(Rule("r_a", Atom("C2", ("x", "x")), (Atom("conflict", ("x", "x", "x")),)))
    rules.append(Rule("r_c", Atom("C1", ("c",)), (Atom("C2", ("c", "v")),)))

    positive = {Fact("C1", (clause_const[i],)) for i in range(1, len(formula) + 1)}
    positive.add(Fact("error", (sentinel, sentinel, sentinel)))
    negative = {
        Fact("error", (clause_const[i], clause_const[j], var_const[v]))
        for i in range(1, len(formula) + 1)
        for j in range(1, len(formula) + 1)
        for v in variables
    }
    labels = LabelSet(frozenset(positive), frozenset(negative))
    return Problem(decls, Database(facts), labels, CandidateRuleSet(rules))


def exists_solution(problem: Problem, max_rules: int = 16) -> bool:
    """Brute-force search over all rule subsets for an accepted solution."""
    rules = problem.rules.rules
    if len(rules) > max_rules:
        raise ValueError(f"too many rules to enumerate: {len(rules)}")
    for size in range(len(rules) + 1):
        for subset in itertools.combinations(rules, size):
            if check_solution(subset, problem.input, problem.labels).accepted:
                return True
    return False


def satisfiable(formula: Sequence[Clause3]) -> bool:
    """Brute-force SAT over all assignments."""
    variables = sorted({abs(lit) for clause in formula for lit in clause})
    for bits in itertools.product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if all(any(assignment[abs(l)] == (l > 0) for l in clause) for clause in formula):
            return True
    return False


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def random_instance(rng: random.Random, n_constants: int = 4, n_input_relations: int = 2,
                    n_output_relations: int = 1, n_facts: int = 6, n_rules: int = 3,
                    max_body_len: int = 2, max_arity: int = 2,
                    n_labels: int = 0) -> Problem:
    """A small random problem obeying all core invariants; deterministic in rng."""
    constants = [f"k{i}" for i in range(n_constants)]
    decls: dict[str, RelationDecl] = {}
    for i in range(n_input_relations):
        name = f"in{i}"
        decls[name] = RelationDecl(name, rng.randint(1, max_arity), INPUT)
    for i in range(n_output_relations):
        name = f"out{i}"
        decls[name] = RelationDecl(name, rng.randint(1, max_arity), OUTPUT)
    input_decls = [d for d in decls.values() if d.kind == INPUT]
    output_decls = [d for d in decls.values() if d.kind == OUTPUT]

    facts = []
    if constants:
        for _ in range(n_facts):
            decl = rng.choice(input_decls)
            facts.append(Fact(decl.name, tuple(rng.choice(constants)
                                               for _ in range(decl.arity))))
    input_db = Database(facts)

    rules = []
    pool = ["u", "v", "w", "z"]
    attempts = 0
    while len(rules) < n_rules and attempts < n_rules * 20:
        attempts += 1
        body = []
        for _ in range(rng.randint(1, max_body_len)):
            decl = rng.choice(list(decls.values()))
            body.append(Atom(decl.name, tuple(rng.choice(pool) for _ in range(decl.arity))))
        body_vars = sorted({v for atom in body for v in atom.variables()})
        if not body_vars:
            continue
        head_decl = rng.choice(output_decls)
        head = Atom(head_decl.name, tuple(rng.choice(body_vars)
                                          for _ in range(head_decl.arity)))
        rule = Rule(f"r{len(rules) + 1}", head, tuple(body))
        rules.append(rule)
    rule_set = CandidateRuleSet(rules)

    positive: set[Fact] = set()
    negative: set[Fact] = set()
    if n_labels:
        derivable = sorted(boolean_fixpoint(rule_set, input_db).facts())
        rng.shuffle(derivable)
        positive = set(derivable[:n_labels])
        for _ in range(n_labels):
            decl = rng.choice(output_decls)
            t = Fact(decl.name, tuple(rng.choice(constants) for _ in range(decl.arity)))
            if t not in positive:
                negative.add(t)
    labels = LabelSet(frozenset(positive), frozenset(negative))
    return Problem(decls, input_db, labels, rule_set)


def random_weights(rng: random.Random, rules: CandidateRuleSet,
                   low: float = 0.05, high: float = 0.95) -> dict[str, float]:
    return {rid: rng.uniform(low, high) for rid in rules.ids()}
