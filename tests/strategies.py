"""Hypothesis strategies, weights and the reference fixpoint shared by the property suites.

``reference_fixpoint`` is the one slower evaluation that the differential
suites compare ``viterbi.Evaluator`` against: clauses grouped by body
length, a scatter max for the values and a scatter min for the
lowest-index winner, every clause in every round.  It runs over any
``core.Grounding``: ``core.ground``'s, or one that keeps the self-loops.
"""

import random

import numpy as np
from hypothesis import settings, strategies as st

from difflog.core import (INPUT, OUTPUT, Atom, CandidateRuleSet, Const, Database,
                          Fact, Grounding, LabelSet, Problem, RelationDecl, Rule, ground,
                          validate_rule)
from difflog.testkit import random_instance
from difflog.viterbi import Evaluator

SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def with_constants(problem: Problem, rng: random.Random) -> Problem:
    """Swap some rule variables for constants, one of which is not in the input."""
    constants = sorted({c for f in problem.input.facts() for c in f.args}) + ["zz"]
    rules = []
    for rule in problem.rules:
        body = tuple(Atom(a.relation, tuple(Const(rng.choice(constants)) if rng.random() < 0.3
                                            else t for t in a.args)) for a in rule.body)
        bound = {v for a in body for v in a.variables()}
        head = Atom(rule.head.relation,
                    tuple(Const(rng.choice(constants)) if t not in bound or rng.random() < 0.2
                          else t for t in rule.head.args))
        rules.append(Rule(rule.id, head, body))
    return problem._replace(rules=CandidateRuleSet(rules))


@st.composite
def instances(draw) -> Problem:
    """A random instance; the seed, not hypothesis, picks its sizes uniformly."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    body_len = rng.randint(1, 3)
    problem = random_instance(
        rng, n_constants=rng.randint(1, 5), n_input_relations=rng.randint(1, 3),
        n_output_relations=rng.randint(1, 2), n_facts=rng.randint(0, 16),
        n_rules=rng.randint(1, 8), max_body_len=body_len,
        max_arity=rng.randint(1, 3 if body_len < 3 else 2), n_labels=3)
    if draw(st.booleans()):
        problem = with_constants(problem, rng)
    return problem


@st.composite
def shared_shapes(draw) -> Problem:
    """A pool of a few body shapes, each with several rules that differ in
    their relation names, body and head constants and head projection, with
    repeated head variables, over relations of arity 1-3.  Each rule draws
    its own head variables from its shape's variables, and the rules of one
    shape still ground as one join per delta literal."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    constants = [f"k{i}" for i in range(rng.randint(1, 3))]
    decls = {f"{kind[0]}{arity}{s}": RelationDecl(f"{kind[0]}{arity}{s}", arity, kind)
             for kind in (INPUT, OUTPUT) for arity in (1, 2, 3) for s in "ab"}
    inputs = [d for d in decls.values() if d.kind == INPUT]
    outputs = [d for d in decls.values() if d.kind == OUTPUT]
    facts = []
    for _ in range(rng.randint(0, 20)):
        decl = rng.choice(inputs)
        facts.append(Fact(decl.name, tuple(rng.choice(constants) for _ in range(decl.arity))))

    def constant() -> Const:
        return Const(rng.choice(constants + ["zz"]))  # "zz" is in no fact

    rules = []
    for shape in range(rng.randint(1, 3)):
        n_vars = rng.randint(1, 3)
        body = [[-1 if rng.random() < 0.2 else rng.randrange(n_vars)
                 for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 3))]
        used = sorted({v for literal in body for v in literal if v >= 0})
        for k in range(rng.randint(2, 5)):
            head = rng.sample(used, rng.randint(0, len(used)))
            # mostly input relations, so that several rules of a group find facts
            atoms = tuple(Atom(rng.choice([d for d in (inputs if rng.random() < 0.7 else outputs)
                                           if d.arity == len(literal)]).name,
                               tuple(constant() if v < 0 else f"x{v}" for v in literal))
                          for literal in body)
            # every head variable once, then repeats or constants, up to arity 1-3
            terms = [f"x{v}" for v in head]
            for _ in range(rng.randint(max(len(terms), 1), 3) - len(terms)):
                terms.append(rng.choice(terms) if terms and rng.random() < 0.7 else constant())
            rng.shuffle(terms)
            head_decl = rng.choice([d for d in outputs if d.arity == len(terms)])
            rules.append(Rule(f"s{shape}r{k}", Atom(head_decl.name, tuple(terms)), atoms))
    rng.shuffle(rules)
    for rule in rules:
        validate_rule(rule, decls)
    return Problem(decls, Database(facts), LabelSet(frozenset(), frozenset()),
                   CandidateRuleSet(rules))


def body_groups(cols: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per body length: the clauses, and their antecedents without the -1 pads."""
    lengths = (cols >= 0).sum(axis=0)
    return [(pos, cols[:k, pos].T) for k in range(1, len(cols) + 1)
            if len(pos := np.flatnonzero(lengths == k))]


def reference_fixpoint(grounding: Grounding, wv: np.ndarray):
    """Values, counts and rounds of the group-wise max-product fixpoint at the
    weights ``wv`` (by rule position): a value per fact and a count column per
    rule, each with a last zero row for the facts outside the grounding."""
    n_facts, n_clauses = len(grounding.facts), len(grounding)
    groups, concl, clause_rule = body_groups(grounding.cols), grounding.concl, grounding.rule
    # each clause's group and row there locate its antecedents
    cgroup = np.empty(n_clauses, dtype=np.int64)
    crow = np.empty(n_clauses, dtype=np.int64)
    for g, (pos, _) in enumerate(groups):
        cgroup[pos] = g
        crow[pos] = np.arange(len(pos))
    u = np.zeros(n_facts + 1)
    u[grounding.input_idx] = 1.0
    counts = np.zeros((n_facts + 1, len(grounding.rule_ids)), dtype=np.int64)

    vals = np.empty(n_clauses)
    rounds = 0
    while True:
        rounds += 1
        for pos, ante in groups:
            group_vals = wv[clause_rule[pos]]
            for j in range(ante.shape[1]):
                group_vals = group_vals * u[ante[:, j]]
            vals[pos] = group_vals
        best = u.copy()
        np.maximum.at(best, concl, vals)
        changed = best > u
        if not changed.any():
            break
        # the lowest-index clause attaining a changed fact's new value wins
        attain = (vals == best[concl]) & changed[concl]
        winner = np.full(n_facts + 1, n_clauses, dtype=np.int64)
        np.minimum.at(winner, concl[attain], np.nonzero(attain)[0])
        facts = np.nonzero(changed)[0]
        wins = winner[facts]
        # a winner's row: its rule once, plus its antecedents' rows of the last round
        rows = np.zeros((len(facts), len(grounding.rule_ids)), dtype=np.int64)
        rows[np.arange(len(facts)), clause_rule[wins]] = 1
        won_groups = cgroup[wins]
        for g, (_, ante) in enumerate(groups):
            mine = np.flatnonzero(won_groups == g)
            for column in ante[crow[wins[mine]]].T:
                rows[mine] += counts[column]
        counts[facts] = rows
        u = best
    return u, counts, rounds


def provenance_view(grounding: Grounding, values: np.ndarray, counts: np.ndarray):
    """``{fact: value}`` and ``{fact: {rule id: count}}`` of the facts with a
    nonzero value, each fact's rules those with a nonzero count."""
    value, provenance = {}, {}
    for i in np.flatnonzero(values[:-1] > 0.0).tolist():
        fact = grounding.facts[i]
        value[fact] = float(values[i])
        provenance[fact] = {grounding.rule_ids[r]: int(counts[i, r])
                            for r in np.flatnonzero(counts[i]).tolist()}
    return value, provenance


def assert_matches_reference(rules, input: Database, weights) -> Evaluator:
    """``Evaluator.evaluate`` at each weight vector equals ``reference_fixpoint``
    over ``core.ground``'s clauses: values bitwise, counts and rounds equal."""
    ev = Evaluator(rules, input)
    grounding = ground(ev.rules, input)
    results = []
    for wv in weights:
        result = ev.evaluate(wv)
        values, counts, rounds = reference_fixpoint(grounding, np.asarray(wv, dtype=np.float64))
        assert result.values.tobytes() == values.tobytes()
        # the result keeps a column per fired rule; every other rule has no count
        assert result.counts.dtype == counts.dtype
        assert np.array_equal(result.counts, counts[:, ev.fired])
        assert not np.delete(counts, ev.fired, axis=1).any()
        assert result.rounds == rounds
        results.append((result, values, counts[:, ev.fired]))
    # later calls reuse the evaluator's scratch, never an earlier result's arrays
    ev.check(ev.rule_ids[:1], LabelSet(frozenset(), frozenset()))
    for result, values, counts in results:
        assert result.values.tobytes() == values.tobytes()
        assert np.array_equal(result.counts, counts)
    return ev


def weight_vectors(rng: random.Random, n_rules: int) -> list[np.ndarray]:
    """Random weights, and weights on a grid that forces ties between clauses."""
    return [np.array([rng.random() for _ in range(n_rules)]),
            np.array([rng.choice(GRID) for _ in range(n_rules)]),
            np.array([rng.choice(GRID[2:]) for _ in range(n_rules)]),
            np.ones(n_rules)]


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()
