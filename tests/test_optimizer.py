"""Loss, Newton step, annealing moves, separation, and the search loop."""

import math
import random
from pathlib import Path

import numpy as np
import pytest

from difflog.core import (Atom, CandidateRuleSet, Database, Fact, LabelSet,
                          Problem, RelationDecl, Rule, parse_problem)
from difflog.optimizer import (INIT_HIGH, INIT_LOW, SearchConfig, SearchRunner,
                               ZeroGradientError, clamp, loss, loss_gradient, mcmc_accept,
                               mcmc_propose, newton_step, search,
                               separation_check, temperature)
from difflog.viterbi import Evaluator


class StubRng:
    """random.Random stand-in feeding a fixed sequence of draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def make_single_rule_problem():
    decls = {"p": RelationDecl("p", 1, "input"), "q": RelationDecl("q", 1, "output")}
    rule = Rule("r1", Atom("q", ("x",)), (Atom("p", ("x",)),))
    labels = LabelSet(frozenset({Fact("q", ("A",))}), frozenset())
    return Problem(decls, Database([Fact("p", ("A",))]), labels,
                   CandidateRuleSet([rule]))


def test_loss_on_family(family_problem):
    result = Evaluator(family_problem.rules, family_problem.input).evaluate({"r1": 0.8, "r2": 0.6})
    # positive samegen(Ann,Jim) at 0.48; both negatives are underivable
    assert abs(loss(result, family_problem.labels) - (1.0 - 0.48) ** 2) < 1e-12


def test_loss_gradient_matches_manual(family_problem):
    w = np.array([0.8, 0.6])
    result = Evaluator(family_problem.rules, family_problem.input).evaluate(w)
    grad = loss_gradient(result, w, family_problem.labels)
    v = 0.48
    assert abs(grad[0] - (-2.0 * (1.0 - v) * v / 0.8)) < 1e-12
    assert abs(grad[1] - (-2.0 * (1.0 - v) * v / 0.6)) < 1e-12
    assert grad.base is None  # a runner keeps the gradient, not the running sums


def test_clamp_into_open_cube():
    w = np.array([0.0, 1.0, 0.3])
    assert clamp(w).tolist() == [1e-6, 1.0 - 1e-6, 0.3]
    assert w.tolist() == [0.0, 1.0, 0.3]  # original untouched


def test_newton_step_single_rule():
    # loss (1-w)^2 at w=0.5: L=0.25, dL/dw=-1, step w - L*g/|g|^2 = 0.75
    problem = make_single_rule_problem()
    w = np.array([0.5])
    result = Evaluator(problem.rules, problem.input).evaluate(w)
    L = loss(result, problem.labels)
    grad = loss_gradient(result, w, problem.labels)
    stepped = newton_step(w, L, grad)
    assert abs(stepped[0] - 0.75) < 1e-12


def test_newton_step_clamps_into_open_cube():
    w = np.array([0.9])
    stepped = newton_step(w, 10.0, np.array([-1.0]))
    assert stepped[0] == 1.0 - 1e-6
    stepped = newton_step(w, 10.0, np.array([1.0]))
    assert stepped[0] == 1e-6


def test_newton_step_zero_gradient():
    w = np.array([0.5])
    assert newton_step(w, 0.0, np.array([0.0])) is w
    with pytest.raises(ZeroGradientError):
        newton_step(w, 0.5, np.array([0.0]))


def test_mcmc_propose_branches():
    w = np.array([0.5])
    assert mcmc_propose(w, StubRng([0.0]))[0] == 0.0
    assert abs(mcmc_propose(w, StubRng([0.5]))[0] - 0.5) < 1e-12
    assert mcmc_propose(w, StubRng([1.0]))[0] == 1.0
    # below the branch point: w * sqrt(2X)
    assert abs(mcmc_propose(w, StubRng([0.32]))[0] - 0.4) < 1e-12


def test_mcmc_propose_componentwise_and_in_range():
    rng = random.Random(3)
    w = np.array([rng.random() for _ in range(20)])
    proposal = mcmc_propose(w, rng)
    assert proposal.shape == w.shape
    assert all(0.0 <= v <= 1.0 for v in proposal)


def test_mcmc_accept_downhill_is_certain():
    assert mcmc_accept(1.0, 0.5, 1e-9, StubRng([]))
    assert mcmc_accept(1.0, 1.0, 1.0, StubRng([]))


def test_mcmc_accept_uphill_threshold():
    # acceptance probability exp(-1)
    assert mcmc_accept(0.0, 1.0, 1.0, StubRng([math.exp(-1) - 1e-9]))
    assert not mcmc_accept(0.0, 1.0, 1.0, StubRng([math.exp(-1) + 1e-9]))
    with pytest.raises(ValueError):
        mcmc_accept(0.0, 1.0, 0.0, StubRng([]))


def test_temperature_schedule():
    assert temperature(0, 0.0001) == 1.0 / (0.0001 * math.log(5.0))
    assert temperature(25, 0.0001) == 1.0 / (0.0001 * math.log(30.0))
    assert temperature(1, 0.0001) < temperature(0, 0.0001)
    with pytest.raises(ValueError):
        temperature(-1, 0.0001)
    with pytest.raises(ValueError):
        temperature(0, 0.0)


def test_separation_check_family(family_problem):
    result = Evaluator(family_problem.rules, family_problem.input).evaluate({"r1": 0.8, "r2": 0.6})
    sep = separation_check(result, family_problem.labels)
    assert sep.separated
    assert sep.positive_rules == frozenset({"r1", "r2"})


def test_separation_fails_without_positive_derivation(family_problem):
    result = Evaluator(family_problem.rules, family_problem.input).evaluate({"r1": 0.8, "r2": 0.0})
    sep = separation_check(result, family_problem.labels)
    assert not sep.separated
    assert sep.positive_rules is None


def test_separation_fails_on_overlap(family_problem):
    bad = Rule("r3", Atom("samegen", ("x", "y")), (Atom("parent", ("x", "y")),))
    rules = CandidateRuleSet([*family_problem.rules, bad])
    result = Evaluator(rules, family_problem.input).evaluate({"r1": 0.0, "r2": 0.0, "r3": 0.9})
    labels = LabelSet(frozenset({Fact("samegen", ("Jim", "Emma"))}),
                      frozenset({Fact("samegen", ("Ava", "Emma"))}))
    sep = separation_check(result, labels)
    assert not sep.separated


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(mcmc_period=0)


def test_search_solves_single_rule_problem():
    problem = make_single_rule_problem()
    outcome = search(problem, SearchConfig(rng_seed=1, max_iters=50))
    assert outcome.status == "solved"
    assert outcome.rules == frozenset({"r1"})


def test_search_solves_family(family_problem):
    outcome = search(family_problem, SearchConfig(rng_seed=0, max_iters=500))
    assert outcome.status == "solved"
    from difflog.core import check_solution
    picked = family_problem.rules.subset(outcome.rules)
    assert check_solution(picked, family_problem.input,
                          family_problem.labels).accepted


def test_search_exhausts_on_unsolvable():
    problem = make_single_rule_problem()
    labels = LabelSet(frozenset({Fact("q", ("Z",))}), frozenset())
    unsolvable = Problem(problem.relations, problem.input, labels, problem.rules)
    outcome = search(unsolvable, SearchConfig(rng_seed=1, max_iters=40))
    assert outcome.status == "exhausted"
    assert outcome.iterations == 40
    assert outcome.rules is None


def test_search_timeout_zero():
    problem = make_single_rule_problem()
    labels = LabelSet(frozenset({Fact("q", ("Z",))}), frozenset())
    unsolvable = Problem(problem.relations, problem.input, labels, problem.rules)
    outcome = search(unsolvable, SearchConfig(rng_seed=1, timeout=0.0))
    assert outcome.status == "timeout"


def test_runner_mcmc_period_and_trace(family_problem):
    events = []

    def trace(iteration, loss_value, event, temp):
        events.append((iteration, event))

    config = SearchConfig(rng_seed=5, max_iters=12, mcmc_period=4)
    runner = SearchRunner(family_problem, config, trace=trace)
    while runner.outcome is None:
        runner.step()
    if runner.outcome.status != "solved":
        kinds = [e for _, e in events]
        assert all(k.startswith("mcmc") for i, k in enumerate(kinds, 1) if i % 4 == 0)


def test_runner_is_deterministic(family_problem):
    def run():
        config = SearchConfig(rng_seed=9, max_iters=100)
        runner = SearchRunner(family_problem, config)
        while runner.outcome is None:
            runner.step()
        return (runner.outcome.status, runner.outcome.rules,
                runner.outcome.iterations, runner.outcome.samplings)

    assert run() == run()


def test_cancel_before_finish(family_problem):
    runner = SearchRunner(family_problem, SearchConfig(rng_seed=123, max_iters=10))
    if runner.outcome is None:
        outcome = runner.cancel()
        assert outcome.status == "cancelled"
    assert runner.cancel() is runner.outcome


@pytest.mark.parametrize("seed", [0, 1, 11, 2024])
def test_initial_weights_are_bitwise_the_uniform_draws(family_problem, seed):
    samegen = parse_problem(Path(__file__).resolve().parents[1] / "problems" / "samegen")
    for problem in (make_single_rule_problem(), family_problem, samegen):
        evaluator = Evaluator(problem.rules, problem.input)
        # a zero budget stops the runner after it draws, before it evaluates
        runner = SearchRunner(problem, SearchConfig(rng_seed=seed, timeout=0.0), evaluator)
        rng = random.Random(seed)
        uniform = [rng.uniform(INIT_LOW, INIT_HIGH) for _ in evaluator.rule_ids]
        assert len(uniform) == len(problem.rules)
        assert runner.w.tobytes() == np.array(uniform).tobytes()
        assert runner.rng.getstate() == rng.getstate()
