"""Differential tests: the grounding kernel against the naive oracle in testkit.

The kernel derives the least fixpoint and every ground clause in one
semi-naive, indexed pass, and drops the self-loops: the clauses whose
conclusion is also an antecedent.  ``naive_fixpoint`` / ``naive_ground``
re-ground every rule with nested loops each round; both must agree on the
fixpoint, on ``check_solution``, and on the clause set and order less the
self-loops.  Values, provenance and rounds must equal those of a reference
fixpoint over every naive clause, self-loops included.
"""

import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from difflog.core import (Atom, CandidateRuleSet, Const, Database, Fact,
                          RelationDecl, Rule, boolean_fixpoint,
                          check_solution, ground, parse_problem,
                          validate_rule)
from difflog.testkit import (ground_clauses, naive_fixpoint, naive_ground,
                             random_weights)
from difflog.viterbi import Evaluator
from strategies import SETTINGS, body_groups, instances

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def triples(clauses) -> list[tuple]:
    return [(c.rule_id, c.antecedents, c.conclusion) for c in clauses]


def is_self_loop(clause) -> bool:
    return clause.conclusion in clause.antecedents


def oracle_clauses(rules, input: Database):
    """Sorted facts and every clause over them, sorted the way ``ground`` numbers them."""
    facts = sorted({*input.facts(), *naive_fixpoint(rules, input).facts()})
    universe = Database(facts)
    clauses = sorted((c for rule in rules for c in naive_ground(rule, universe)),
                     key=lambda c: (c.conclusion, c.rule_id, c.antecedents))
    return facts, clauses


def clause_arrays(clauses, fact_pos, rule_pos) -> dict[str, np.ndarray]:
    """``concl``, ``rule`` and the -1-padded ``cols`` of ``clauses``, in their order."""
    cols = np.full((max((len(c.antecedents) for c in clauses), default=0), len(clauses)), -1,
                   dtype=np.intp)
    for i, c in enumerate(clauses):
        cols[:len(c.antecedents), i] = [fact_pos[a] for a in c.antecedents]
    return {
        "concl": np.array([fact_pos[c.conclusion] for c in clauses], dtype=np.int64),
        "rule": np.array([rule_pos[c.rule_id] for c in clauses], dtype=np.int64),
        "cols": cols,
    }


def oracle_arrays(rules: CandidateRuleSet, input: Database):
    """Every naive clause with its arrays, and the clauses and arrays ``ground`` keeps."""
    facts, clauses = oracle_clauses(rules, input)
    fact_pos = {f: i for i, f in enumerate(facts)}
    rule_pos = {rid: i for i, rid in enumerate(rules.ids())}
    kept = [c for c in clauses if not is_self_loop(c)]
    return {
        "facts": facts,
        "input_idx": np.array(sorted(fact_pos[f] for f in input.facts()), dtype=np.int64),
        **clause_arrays(clauses, fact_pos, rule_pos),
        "clauses": clauses,
        "kept": kept,
        "ground": clause_arrays(kept, fact_pos, rule_pos),
    }


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_evaluate(oracle, rule_ids, w):
    """Max-product fixpoint with Counter provenance over every naive GroundClause.

    Returns the value of every fact, the provenance of each fact with a
    value, and the rounds.
    """
    facts, clauses = oracle["facts"], oracle["clauses"]
    fact_pos = {f: i for i, f in enumerate(facts)}
    wv = np.array([w[rid] for rid in rule_ids], dtype=np.float64)
    u = np.zeros(len(facts))
    u[oracle["input_idx"]] = 1.0
    prov = {int(i): Counter() for i in oracle["input_idx"]}
    vals = np.empty(len(clauses))
    rounds = 0
    while True:
        rounds += 1
        for pos, ante in body_groups(oracle["cols"]):
            group_vals = wv[oracle["rule"][pos]]
            for j in range(ante.shape[1]):
                group_vals = group_vals * u[ante[:, j]]
            vals[pos] = group_vals
        best = u.copy()
        np.maximum.at(best, oracle["concl"], vals)
        changed = best > u
        if not changed.any():
            break
        attain = (vals == best[oracle["concl"]]) & changed[oracle["concl"]]
        winner = np.full(len(facts), len(clauses), dtype=np.int64)
        np.minimum.at(winner, oracle["concl"][attain], np.nonzero(attain)[0])
        new_prov = {}
        for fi in np.nonzero(changed)[0]:
            clause = clauses[int(winner[fi])]
            counts = Counter({clause.rule_id: 1})
            for a in clause.antecedents:
                counts.update(prov[fact_pos[a]])
            new_prov[int(fi)] = counts
        prov.update(new_prov)
        u = best
    provenance = {facts[i]: {r: c for r, c in prov[i].items() if c}
                  for i in range(len(facts)) if u[i] > 0.0}
    return u, provenance, rounds


def assert_matches_oracle(rules: CandidateRuleSet, input: Database, oracle, weights) -> None:
    """The kernel arrays equal ``oracle``'s less the self-loops, and Evaluator values,
    provenance and rounds equal the reference's over every naive clause."""
    grounding = ground(rules, input)
    assert grounding.facts == oracle["facts"]
    assert same_array(grounding.input_idx, oracle["input_idx"])
    assert same_array(grounding.concl, oracle["ground"]["concl"])
    assert same_array(grounding.rule, oracle["ground"]["rule"])
    assert same_array(grounding.cols, oracle["ground"]["cols"])
    assert grounding.cols.flags.c_contiguous
    ev = Evaluator(rules, input)
    for w in weights:
        result = ev.evaluate(w)
        u, provenance, rounds = reference_evaluate(oracle, ev.rule_ids, w)
        # bitwise, and the zero row of facts outside the grounding stays 0
        assert result.values.tobytes() == np.append(u, 0.0).tobytes()
        assert result.value == {f: float(v) for f, v in zip(oracle["facts"], u) if v > 0.0}
        assert {t: p.counts for t, p in result.provenance.items()} == provenance
        assert not result.counts[result.values == 0.0].any()
        assert result.rounds == rounds


@SETTINGS
@given(instances())
def test_kernel_clause_set_matches_naive_ground(problem):
    grounding = ground(problem.rules, problem.input)
    got = triples(ground_clauses(grounding))
    assert len(got) == len(grounding) == len(set(got))
    _, expected = oracle_clauses(problem.rules, problem.input)
    assert set(got) == set(triples(c for c in expected if not is_self_loop(c)))


@SETTINGS
@given(instances())
def test_kernel_fixpoint_matches_naive_fixpoint(problem):
    expected = naive_fixpoint(problem.rules, problem.input)
    assert boolean_fixpoint(problem.rules, problem.input) == expected
    assert ground(problem.rules, problem.input).facts == \
        sorted({*problem.input.facts(), *expected.facts()})


@SETTINGS
@given(instances(), st.randoms(use_true_random=False))
def test_check_solution_matches_naive_on_rule_subsets(problem, rng):
    for _ in range(3):
        subset = [r for r in problem.rules if rng.random() < 0.5]
        fixpoint = naive_fixpoint(subset, problem.input)
        check = check_solution(subset, problem.input, problem.labels)
        assert check.missing == {t for t in problem.labels.positive if t not in fixpoint}
        assert check.spurious == {t for t in problem.labels.negative if t in fixpoint}
        assert check.accepted == (not check.missing and not check.spurious)


@SETTINGS
@given(instances(), st.randoms(use_true_random=False))
def test_evaluator_matches_build_from_naive_clauses(problem, rng):
    weights = [random_weights(rng, problem.rules) for _ in range(2)]
    weights.append({rid: 1.0 for rid in problem.rules.ids()})
    weights.append({rid: rng.choice((0.0, 0.5, 1.0)) for rid in problem.rules.ids()})
    assert_matches_oracle(problem.rules, problem.input,
                          oracle_arrays(problem.rules, problem.input), weights)


@SETTINGS
@given(instances(), st.randoms(use_true_random=False))
def test_pruned_evaluator_matches_unpruned_reference(problem, rng):
    """Neither the self-loop prune nor the input-only first round changes a bit:
    uniform and tie-forcing grid weights, all 0 and all 1."""
    ids = problem.rules.ids()
    weights = [{rid: rng.random() for rid in ids},
               {rid: rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)) for rid in ids},
               dict.fromkeys(ids, 0.0),
               dict.fromkeys(ids, 1.0)]
    assert_matches_oracle(problem.rules, problem.input,
                          oracle_arrays(problem.rules, problem.input), weights)


def test_head_constant_absent_from_input():
    decls = {"p": RelationDecl("p", 1, "input"), "q": RelationDecl("q", 2, "output")}
    input_db = Database([Fact("p", ("a",)), Fact("p", ("b",))])
    rules = CandidateRuleSet([
        Rule("h1", Atom("q", ("x", Const("new"))), (Atom("p", ("x",)),)),
        Rule("h2", Atom("q", (Const("new"), "y")), (Atom("q", ("y", Const("new"))),)),
        Rule("h3", Atom("q", ("x", "x")), (Atom("q", (Const("new"), "x")), Atom("p", ("x",)))),
    ])
    for rule in rules:
        validate_rule(rule, decls)
    fixpoint = boolean_fixpoint(rules, input_db)
    assert fixpoint == naive_fixpoint(rules, input_db)
    assert Fact("q", ("a", "new")) in fixpoint and Fact("q", ("new", "b")) in fixpoint
    assert Fact("q", ("new", "new")) not in fixpoint
    oracle = oracle_arrays(rules, input_db)
    assert triples(ground_clauses(ground(rules, input_db))) == triples(oracle["kept"])
    assert_matches_oracle(rules, input_db, oracle, [{"h1": 0.9, "h2": 0.5, "h3": 0.7},
                                                    {"h1": 1.0, "h2": 1.0, "h3": 1.0}])


@pytest.mark.parametrize("name", ["samegen", "andersen"])
def test_golden_problem_matches_naive(name):
    problem = parse_problem(PROBLEMS / name)
    oracle = oracle_arrays(problem.rules, problem.input)
    assert triples(ground_clauses(ground(problem.rules, problem.input))) == \
        triples(oracle["kept"])
    assert len(oracle["kept"]) < len(oracle["clauses"])
    rng = random.Random(name)
    assert_matches_oracle(problem.rules, problem.input, oracle,
                          [random_weights(rng, problem.rules, 0.25, 0.75)])
