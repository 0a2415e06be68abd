"""Differential tests: the search on the grounding it already has.

``Evaluator`` keeps a count column only for the rules with a ground clause
(``fired``), its label rows leave out the negatives outside the grounding,
and ``SearchRunner`` checks each candidate program with ``Evaluator.check``
on the pool's grounding.  The references are the paths they replaced: a
full-width evaluator, with a count column per rule from the group-wise
reference kernel ``strategies.reference_fixpoint`` and a row for every
label, whose candidate checks ground the subset again through
``core.check_solution``.  The search must not tell
them apart: traces, outcomes and weight vectors are bitwise equal, and so
are values, the fired columns of the counts, and the loss gradient at every
step.
"""

import random
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difflog.core import (Atom, CandidateRuleSet, Fact, LabelSet, RelationDecl,
                          Rule, SemanticError, boolean_fixpoint, check_solution,
                          ground, parse_problem)
from difflog.optimizer import (SearchConfig, SearchRunner, clamp, loss_gradient,
                               separation_check)
from difflog.testkit import encode_3cnf, parse_dimacs
from difflog.viterbi import Evaluator
from strategies import SETTINGS, bits, instances, reference_fixpoint

ROOT = Path(__file__).resolve().parents[1]


class FullWidthEvaluator:
    """The evaluator as the search saw it before count columns were narrowed,
    and before its label rows left out the negatives outside the grounding:
    ``label_rows`` reads every label, each at its row or the zero row."""

    def __init__(self, problem):
        self.problem = problem
        self.grounding = ground(problem.rules, problem.input)
        self.rule_ids = self.grounding.rule_ids
        self.fired = np.arange(len(self.rule_ids))  # a column for every rule
        self._row = {f: i for i, f in enumerate(self.grounding.facts)}

    def label_rows(self, labels: LabelSet):
        ordered = [*sorted(labels.positive), *sorted(labels.negative)]
        rows = [self._row.get(t, len(self._row)) for t in ordered]
        return np.array(rows, dtype=np.int64), len(labels.positive)

    def evaluate(self, wv: np.ndarray):
        values, counts, rounds = reference_fixpoint(self.grounding, wv)
        return SimpleNamespace(values=values, counts=counts, rounds=rounds, evaluator=self)

    def check(self, rule_ids, labels: LabelSet):
        return check_solution(self.problem.rules.subset(rule_ids).rules,
                              self.problem.input, labels)


def padded(problem, rng: random.Random):
    """The problem with rules over a relation without facts spliced into its pool."""
    arity = max(d.arity for d in problem.relations.values())
    ghost = Atom("ghost", tuple(f"g{i}" for i in range(arity)))
    heads = sorted({r.head for r in problem.rules}, key=str)
    rules = list(problem.rules)
    for k in range(rng.randint(1, 4)):
        head = rng.choice(heads)
        body = (ghost,) + ((rng.choice(rules).body[0],) if rng.random() < 0.5 else ())
        renamed = Atom(head.relation, tuple(f"g{i}" for i in range(len(head.args))))
        rules.insert(rng.randint(0, len(rules)), Rule(f"pad{k}", renamed, body))
    relations = {**problem.relations, "ghost": RelationDecl("ghost", arity, "input")}
    return problem._replace(relations=relations, rules=CandidateRuleSet(rules))


def assert_same_evaluation(narrow: Evaluator, full: FullWidthEvaluator, w, labels) -> None:
    wv = clamp(w)
    got, want = narrow.evaluate(wv), full.evaluate(wv)
    assert bits(got.values) == bits(want.values)
    assert got.rounds == want.rounds
    assert np.array_equal(got.counts, want.counts[:, narrow.fired])
    assert not np.delete(want.counts, narrow.fired, axis=1).any()
    assert bits(loss_gradient(got, wv, labels)) == bits(loss_gradient(want, wv, labels))
    assert separation_check(got, labels) == separation_check(want, labels)


def assert_narrow_search_matches_full_width(problem, config: SearchConfig) -> None:
    traces = {"narrow": [], "full": []}

    def recorder(name):
        def emit(iteration, loss_value, event, temp):
            traces[name].append((iteration, loss_value.hex(), event, temp.hex()))
        return emit

    narrow_ev, full_ev = Evaluator(problem.rules, problem.input), FullWidthEvaluator(problem)
    narrow = SearchRunner(problem, config, narrow_ev, recorder("narrow"))
    full = SearchRunner(problem, config, full_ev, recorder("full"))
    while True:
        assert bits(narrow.w) == bits(full.w)
        assert bits(narrow.loss) == bits(full.loss)
        assert bits(narrow.grad) == bits(full.grad)
        assert_same_evaluation(narrow_ev, full_ev, narrow.w, problem.labels)
        a, b = narrow.step(), full.step()
        if a is not None or b is not None:
            break
    assert traces["narrow"] == traces["full"]
    assert replace(a, wall_time=0.0) == replace(b, wall_time=0.0)
    assert bits(narrow.w) == bits(full.w)


@settings(SETTINGS, max_examples=60)
@given(instances(), st.randoms(use_true_random=False))
def test_narrow_search_matches_full_width_on_padded_pools(problem, rng):
    problem = padded(problem, rng)
    assert len(Evaluator(problem.rules, problem.input).fired) < len(problem.rules)
    config = SearchConfig(max_iters=12, mcmc_period=3, rng_seed=rng.randrange(1000))
    assert_narrow_search_matches_full_width(problem, config)


def fixture_problem(name: str):
    if name == "cnf4":
        path = ROOT / "tests" / "data" / "synth" / "cnf4" / "formula.cnf"
        return encode_3cnf(parse_dimacs(path.read_text()))
    return parse_problem(ROOT / "problems" / name)


@pytest.mark.parametrize("name, seed", [("samegen", 0), ("samegen", 15), ("andersen", 3),
                                        ("cnf4", 1)])
def test_narrow_search_matches_full_width_on_fixture_problems(name, seed):
    problem = padded(fixture_problem(name), random.Random(seed))
    if name == "cnf4":
        # closed-world negatives: the full-label reference reads rows that the
        # evaluator's label index leaves out
        inside = set(ground(problem.rules, problem.input).facts)
        assert not problem.labels.negative <= inside
    config = SearchConfig(max_iters=30, mcmc_period=4, rng_seed=seed)
    assert_narrow_search_matches_full_width(problem, config)


def test_family_search_matches_full_width(family_problem):
    problem = padded(family_problem, random.Random(2))
    for seed in range(4):
        assert_narrow_search_matches_full_width(problem, SearchConfig(max_iters=60,
                                                                      mcmc_period=5,
                                                                      rng_seed=seed))


def label_sets(problem, rng: random.Random) -> list[LabelSet]:
    """The problem's labels, and labels drawn from the derivable facts, the
    input facts and facts over a constant outside the grounding."""
    inside = sorted(boolean_fixpoint(problem.rules, problem.input).facts())
    inside += rng.sample(sorted(problem.input.facts()), min(2, len(problem.input)))
    outputs = sorted({r.head for r in problem.rules}, key=str)
    outside = [Fact(h.relation, (f"absent{k}",) * len(h.args)) for k, h in enumerate(outputs)]
    drawn = [t for t in inside + outside if rng.random() < 0.6]
    split = rng.randint(0, len(drawn))
    rng.shuffle(drawn)
    return [problem.labels, LabelSet(frozenset(drawn[:split]), frozenset(drawn[split:]))]


@SETTINGS
@given(instances(), st.randoms(use_true_random=False))
def test_label_index_holds_the_positives_and_the_negatives_inside(problem, rng):
    """The sorted positives, then the negatives inside the grounding in row
    order, which is their sorted order; a negative outside has no row."""
    ev = Evaluator(problem.rules, problem.input)
    facts = ground(problem.rules, problem.input).facts
    row = {f: i for i, f in enumerate(facts)}
    for labels in label_sets(problem, rng):
        positive = sorted(labels.positive)
        inside = sorted(row[t] for t in labels.negative if t in row)
        ordered, rows, n_positive = ev._label_index(labels)
        assert ordered == positive + sorted(t for t in labels.negative if t in row)
        assert ordered[n_positive:] == [facts[i] for i in inside]
        assert rows.tolist() == [row.get(t, len(facts)) for t in positive] + inside
        assert n_positive == len(positive)
        got_rows, got_n = ev.label_rows(labels)
        assert got_rows.tolist() == rows.tolist() and got_n == n_positive


@SETTINGS
@given(instances(), st.randoms(use_true_random=False))
def test_check_matches_check_solution(problem, rng):
    ev = Evaluator(problem.rules, problem.input)
    ids = problem.rules.ids()
    subsets = [[], ids] + [[rid for rid in ids if rng.random() < 0.5] for _ in range(6)]
    for labels in label_sets(problem, rng):
        for subset in subsets:
            want = check_solution(problem.rules.subset(subset).rules, problem.input, labels)
            assert ev.check(subset, labels) == want


@pytest.mark.parametrize("name", ["samegen", "andersen"])
def test_check_accepts_the_committed_solutions(name):
    problem = fixture_problem(name)
    solution = (ROOT / "tests" / "data" / "synth" / name / "solution.dl").read_text()
    ids = [line.split(":")[0] for line in solution.splitlines() if not line.startswith("#")]
    check = Evaluator(problem.rules, problem.input).check(ids, problem.labels)
    assert check.accepted and not check.missing and not check.spurious


def test_check_rejects_unknown_rule_ids(family_problem):
    ev = Evaluator(family_problem.rules, family_problem.input)
    with pytest.raises(SemanticError, match="unknown rule ids"):
        ev.check(["r1", "r9"], family_problem.labels)
