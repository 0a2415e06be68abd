"""Differential tests: the conclusion-major evaluate kernel against the group-wise one.

``Evaluator.evaluate`` runs over ``core.ground``'s conclusion-major clauses,
the input-only ones alone in its first round, points the -1 pads at a row
of value 1, and takes a segmented max with the first attaining position as
the winner.  ``reference_evaluate`` is the
kernel it replaced: clauses grouped by body length, ``np.maximum.at`` for
the values and ``np.minimum.at`` for the lowest-index winner, over the
arrays of ``core.ground``, all in every round.  Values must be bitwise
equal and counts and rounds equal.
"""

import random

import numpy as np
from hypothesis import given, strategies as st

from difflog.core import Atom, Database, Fact, Rule, ground
from difflog.testkit import ground_clauses
from difflog.viterbi import Evaluator
from strategies import SETTINGS, body_groups, instances

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def reference_evaluate(grounding, wv: np.ndarray):
    """Values, counts and rounds of the group-wise max-product fixpoint."""
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


def assert_matches_reference(rules, input: Database, weights) -> Evaluator:
    ev = Evaluator(rules, input)
    grounding = ground(ev.rules, input)
    for wv in weights:
        result = ev.evaluate(wv)
        values, counts, rounds = reference_evaluate(grounding, np.asarray(wv, dtype=np.float64))
        assert result.values.tobytes() == values.tobytes()
        # the result keeps a column per fired rule; every other rule has no count
        assert result.counts.dtype == counts.dtype
        assert np.array_equal(result.counts, counts[:, ev.fired])
        assert not np.delete(counts, ev.fired, axis=1).any()
        assert result.rounds == rounds
    return ev


def weight_vectors(rng: random.Random, n_rules: int) -> list[np.ndarray]:
    """Random weights, and weights on a grid that forces ties between clauses."""
    return [np.array([rng.random() for _ in range(n_rules)]),
            np.array([rng.choice(GRID) for _ in range(n_rules)]),
            np.array([rng.choice(GRID[2:]) for _ in range(n_rules)]),
            np.ones(n_rules)]


@SETTINGS
@given(instances(), st.randoms(use_true_random=False))
def test_evaluate_matches_group_wise_reference(problem, rng):
    assert_matches_reference(problem.rules, problem.input,
                             weight_vectors(rng, len(problem.rules)))


def rule(rid: str, head: Atom, *body: Atom) -> Rule:
    return Rule(rid, head, tuple(body))


P, Q, E, S = ((lambda *a: Atom("p", a)), (lambda *a: Atom("q", a)),
              (lambda *a: Atom("e", a)), (lambda *a: Atom("s", a)))


def test_no_clauses_is_one_round_of_inputs():
    input = Database([Fact("e", ("a", "b"))])
    ev = assert_matches_reference([rule("r1", Q("x"), P("x"))], input, [np.array([0.5])])
    result = ev.evaluate(np.array([0.5]))
    assert result.rounds == 1
    assert result.values.tolist() == [1.0, 0.0]
    assert not result.counts.any()


def test_head_that_is_an_input_fact_keeps_value_one():
    input = Database([Fact("p", ("a",)), Fact("p", ("b",)), Fact("e", ("a", "b"))])
    rules = [rule("r1", P("y"), P("x"), E("x", "y")), rule("r2", Q("x"), P("x"))]
    ev = assert_matches_reference(rules, input, [np.array([0.5, 0.5]), np.ones(2)])
    result = ev.evaluate(np.array([0.5, 0.5]))
    row = ev.row_of(Fact("p", ("b",)))
    assert result.values[row] == 1.0 and not result.counts[row].any()
    assert result.value_of(Fact("q", ("b",))) == 0.5


def test_head_with_exactly_one_clause():
    input = Database([Fact("p", ("a",))])
    ev = assert_matches_reference([rule("r1", Q("x"), P("x"))], input, [np.array([0.3])])
    result = ev.evaluate(np.array([0.3]))
    assert result.value_of(Fact("q", ("a",))) == 0.3
    assert result.provenance_of(Fact("q", ("a",))) == {"r1": 1}


def test_mixed_body_lengths_in_one_pool():
    input = Database([Fact("e", ("a", "b")), Fact("f", ("b", "c")), Fact("g", ("c", "d"))])
    F, G = (lambda *a: Atom("f", a)), (lambda *a: Atom("g", a))
    S, T = (lambda *a: Atom("s", a)), (lambda *a: Atom("t", a))
    rules = [rule("r1", Q("x", "y"), E("x", "y")),
             rule("r2", Q("x", "y"), F("x", "y")),
             rule("r3", Q("x", "y"), G("x", "y")),
             rule("r4", Q("x", "z"), E("x", "y"), F("y", "z")),
             rule("r5", S("x", "w"), Q("x", "y"), Q("y", "z"), Q("z", "w")),
             rule("r6", T("x", "w"), E("x", "y"), F("y", "z"), G("z", "w")),
             rule("r7", T("x", "w"), S("x", "w"))]
    # three antecedents of different derived values: their product depends
    # on the association order
    rng = random.Random(4)
    weights = [w for _ in range(10) for w in weight_vectors(rng, len(rules))]
    ev = assert_matches_reference(rules, input, weights)
    assert {len(r.body) for r in ev.rules} == {1, 2, 3}


def test_fact_outside_the_grounding_has_the_zero_row():
    input = Database([Fact("p", ("a",))])
    ev = assert_matches_reference([rule("r1", Q("x"), P("x"))], input, [np.array([0.7])])
    result = ev.evaluate(np.array([0.7]))
    absent = Fact("q", ("zz",))
    assert ev.row_of(absent) == len(result.values) - 1
    assert result.value_of(absent) == 0.0
    assert not result.counts[ev.row_of(absent)].any()
    assert result.provenance_of(absent) is None


def test_head_whose_only_kept_clause_is_input_only():
    # q(a) :- q(a), p(a) is a self-loop; q(a) :- p(a) fires in the first round
    input = Database([Fact("p", ("a",))])
    rules = [rule("r1", Q("x"), P("x")), rule("r2", Q("x"), Q("x"), P("x")),
             rule("r3", S("x"), Q("x"))]
    ev = assert_matches_reference(rules, input, [np.array([0.5, 1.0, 0.5]), np.ones(3)])
    assert [(c.rule_id, c.conclusion) for c in ground_clauses(ground(rules, input))] == \
        [("r1", Fact("q", ("a",))), ("r3", Fact("s", ("a",)))]
    result = ev.evaluate(np.array([0.5, 1.0, 0.5]))
    assert result.value_of(Fact("q", ("a",))) == 0.5
    assert result.provenance_of(Fact("q", ("a",))) == {"r1": 1}
    assert result.value_of(Fact("s", ("a",))) == 0.25
    assert result.provenance_of(Fact("s", ("a",))) == {"r1": 1, "r3": 1}
    assert result.rounds == 3


def test_input_fact_heading_a_self_loop():
    # p(a) :- p(a), e(a, a) is a self-loop, so the input fact p(a) heads no clause
    input = Database([Fact("p", ("a",)), Fact("e", ("a", "a"))])
    rules = [rule("r1", P("y"), P("x"), E("x", "y")), rule("r2", Q("x"), P("x"))]
    ev = assert_matches_reference(rules, input, [np.array([0.5, 0.5]), np.ones(2)])
    assert [c.conclusion for c in ground_clauses(ground(rules, input))] == [Fact("q", ("a",))]
    result = ev.evaluate(np.array([0.5, 0.5]))
    row = ev.row_of(Fact("p", ("a",)))
    assert result.values[row] == 1.0 and not result.counts[row].any()
    assert result.value_of(Fact("q", ("a",))) == 0.5
    assert result.rounds == 2


def test_all_zero_weights_stop_after_one_round_of_inputs():
    input = Database([Fact("p", ("a",)), Fact("e", ("a", "b"))])
    rules = [rule("r1", Q("x"), P("x")), rule("r2", Q("y"), Q("x"), E("x", "y")),
             rule("r3", Q("x"), Q("x"), P("x")), rule("r4", S("x"), Q("x"))]
    ev = assert_matches_reference(rules, input, [np.zeros(4)])
    result = ev.evaluate(np.zeros(4))
    assert result.rounds == 1
    assert result.derived == Database()
    assert np.flatnonzero(result.values).tolist() == sorted(ev.row_of(f) for f in input.facts())
    assert not result.counts.any()
