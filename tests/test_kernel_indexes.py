"""The evaluate kernel's per-evaluator indexes and owned buffers.

``Evaluator`` multiplies each distinct (rule, first antecedent) pair once
per round, finds winners through each clause's conclusion row into an owned
mask, and stops after a round that changes only facts that no clause
reads.  The group-wise reference, ``strategies.reference_fixpoint``, runs
every round in full, so equal values, counts and rounds show that the
idle-round stop is exact.  samegen numbers its pairs with the dense table, the 3-CNF
pool with ``np.unique``.
"""

import random
import tracemalloc
from pathlib import Path

import numpy as np

from difflog.core import Database, Fact, ground, parse_problem, parse_rules
from difflog.optimizer import clamp
from difflog.testkit import encode_3cnf, parse_dimacs
from difflog.viterbi import Evaluator
from strategies import assert_matches_reference, weight_vectors

ROOT = Path(__file__).resolve().parents[1]
SAMEGEN = ROOT / "problems" / "samegen"

CNF = """p cnf 4 6
1 2 3 0
-1 2 4 0
1 -3 -4 0
-2 3 4 0
2 -3 4 0
-1 -2 3 0
"""


def unread_heads(problem) -> set[str]:
    """The relations some rule derives and no rule reads."""
    return ({r.head.relation for r in problem.rules}
            - {a.relation for r in problem.rules for a in r.body})


def test_idle_round_stop_where_no_rule_reads_the_last_facts():
    # error facts come last, and no clause reads them: the stop fires
    problem = encode_3cnf(parse_dimacs(CNF))
    assert unread_heads(problem) == {"C1", "error"}
    rng = random.Random(7)
    weights = [w for _ in range(5) for w in weight_vectors(rng, len(problem.rules))]
    ev = assert_matches_reference(problem.rules, problem.input, weights)
    error_rows = [ev.row_of(f) for f in ev.evaluate(np.ones(len(ev.rule_ids))).derived.facts()
                  if f.relation == "error"]
    assert error_rows and not ev._read[error_rows].any()


def test_idle_round_stop_where_no_clause_reads_a_fact_of_a_read_relation():
    # p(a,c) arrives in round 2; rules read p, but no clause reads p(a,c)
    rules = parse_rules("p(x,y) :- e(x,y).\n"
                        "p(x,z) :- p(x,y), e(y,z).\n"
                        "q(x) :- p(x,y), s(y).\n")
    input = Database([Fact("e", ("a", "b")), Fact("e", ("b", "c")), Fact("s", ("b",))])
    rng = random.Random(9)
    weights = [w for _ in range(5) for w in weight_vectors(rng, len(rules))]
    ev = assert_matches_reference(rules, input, weights)
    assert ev.evaluate(np.ones(len(rules))).rounds == 3
    assert ev._read[ev.row_of(Fact("p", ("a", "b")))]
    assert not ev._read[[ev.row_of(Fact("p", ("a", "c"))), ev.row_of(Fact("q", ("a",)))]].any()


def test_idle_round_stop_where_rules_read_every_head():
    problem = parse_problem(SAMEGEN)
    assert not unread_heads(problem)
    rng = random.Random(8)
    assert_matches_reference(problem.rules, problem.input,
                             weight_vectors(rng, len(problem.rules)))


def test_evaluate_allocates_nothing_clause_sized():
    problem = parse_problem(SAMEGEN)
    ev = Evaluator(problem.rules, problem.input)
    n_clauses = len(ground(ev.rules, problem.input))
    rng = random.Random(5)
    w = clamp(np.array([rng.random() for _ in ev.rule_ids]))
    tracemalloc.start()
    try:
        result = ev.evaluate(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.rounds > 2
    # one clause-sized float64 array alone would use the whole allowance
    assert peak < 8 * n_clauses + result.counts.nbytes
