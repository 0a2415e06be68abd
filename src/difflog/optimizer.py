"""Hybrid continuous search: Newton root-finding on the L2 loss with
periodic simulated-annealing proposals, separation-guided termination,
and discrete program recovery.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Mapping

from .core import LabelSet, Problem, check_solution
from .viterbi import EvaluationResult, Evaluator, WeightVector

CLAMP_EPS = 1e-6


class ZeroGradientError(Exception):
    """Newton step undefined: the loss gradient vanished at nonzero loss."""


@dataclass(frozen=True)
class SearchConfig:
    max_iters: int = 10_000
    mcmc_period: int = 30
    annealing_c: float = 0.0001
    init_low: float = 0.25
    init_high: float = 0.75
    rng_seed: int = 0
    timeout: float | None = None  # seconds of search compute time

    def __post_init__(self):
        if not 0.0 <= self.init_low < self.init_high <= 1.0:
            raise ValueError("require 0 <= init_low < init_high <= 1")
        if self.mcmc_period < 1:
            raise ValueError("mcmc_period must be >= 1")


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # solved | timeout | exhausted | cancelled
    rules: frozenset[str] | None
    iterations: int
    samplings: int
    wall_time: float


def loss(result: EvaluationResult, labels: LabelSet) -> float:
    """L2 loss: positives pulled to value 1, negatives to value 0."""
    total = 0.0
    for t in sorted(labels.positive):
        total += (1.0 - result.value_of(t)) ** 2
    for t in sorted(labels.negative):
        total += result.value_of(t) ** 2
    return total


def loss_gradient(result: EvaluationResult, w: Mapping[str, float],
                  labels: LabelSet) -> dict[str, float]:
    """Chain-rule assembly of the loss gradient from per-tuple provenance."""
    grad = {rid: 0.0 for rid in result.rule_ids}
    for t in sorted(labels.positive):
        prov = result.provenance_of(t)
        if not prov.defined:
            continue
        v = result.value_of(t)
        coeff = -2.0 * (1.0 - v)
        for rid, count in prov.counts.items():
            grad[rid] += coeff * count * v / w[rid]
    for t in sorted(labels.negative):
        prov = result.provenance_of(t)
        if not prov.defined:
            continue
        v = result.value_of(t)
        for rid, count in prov.counts.items():
            grad[rid] += 2.0 * v * count * v / w[rid]
    return grad


def newton_step(w: WeightVector, L: float, grad_L: Mapping[str, float]) -> WeightVector:
    """Root-finding update w - L * grad / ||grad||^2, clamped into (0, 1)."""
    norm_sq = sum(g * g for g in grad_L.values())
    if norm_sq == 0.0:
        if L == 0.0:
            return w
        raise ZeroGradientError("zero loss gradient at nonzero loss")
    scale = L / norm_sq
    return WeightVector({
        rid: min(max(wv - scale * grad_L[rid], CLAMP_EPS), 1.0 - CLAMP_EPS)
        for rid, wv in w.items()
    })


def mcmc_propose(w: WeightVector, rng: random.Random) -> WeightVector:
    """Independent per-rule proposal, symmetric around the current weight."""
    proposal = {}
    for rid, old in w.items():
        x = rng.random()
        if x < 0.5:
            proposal[rid] = old * math.sqrt(2.0 * x)
        else:
            proposal[rid] = 1.0 - (1.0 - old) * math.sqrt(2.0 * (1.0 - x))
    return WeightVector(proposal)


def mcmc_accept(loss_curr: float, loss_new: float, temperature: float,
                rng: random.Random) -> bool:
    """Metropolis acceptance for stationary density exp(-loss / T)."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    if loss_new <= loss_curr:
        return True
    return rng.random() < math.exp((loss_curr - loss_new) / temperature)


def temperature(iteration: int, c: float) -> float:
    """Logarithmic cooling schedule, natural log."""
    if iteration < 0 or c <= 0.0:
        raise ValueError("require iteration >= 0 and c > 0")
    return 1.0 / (c * math.log(5.0 + iteration))


@dataclass(frozen=True)
class SeparationResult:
    separated: bool
    positive_rules: frozenset[str] | None = None


def separation_check(result: EvaluationResult, labels: LabelSet) -> SeparationResult:
    """Check that rules backing positive tuples never back negative ones.

    Fails when any positive tuple has no derivation yet (the current
    position cannot lead to a solution), or when the rule sets overlap.
    """
    positive_rules: set[str] = set()
    for t in labels.positive:
        prov = result.provenance_of(t)
        if not prov.defined:
            return SeparationResult(False)
        positive_rules |= prov.rules()
    negative_rules: set[str] = set()
    for t in labels.negative:
        prov = result.provenance_of(t)
        if prov.defined:
            negative_rules |= prov.rules()
    if positive_rules & negative_rules:
        return SeparationResult(False)
    return SeparationResult(True, frozenset(positive_rules))


TraceFn = Callable[[int, float, str, float], None]


class SearchRunner:
    """One search instance, advanced one weight update at a time.

    Owns its RNG and state; instances sharing a problem may share one
    Evaluator since evaluation is pure.
    """

    def __init__(self, problem: Problem, config: SearchConfig,
                 evaluator: Evaluator | None = None, trace: TraceFn | None = None):
        self.problem = problem
        self.config = config
        self.trace = trace
        self.rng = random.Random(config.rng_seed)
        self.evaluator = evaluator if evaluator is not None else Evaluator(
            problem.rules, problem.input,
            output_relations=[d.name for d in problem.relations.values() if d.kind == "output"])
        self.iterations = 0
        self.samplings = 0
        self.elapsed = 0.0
        self.outcome: SearchOutcome | None = None

        self.w = WeightVector({
            rid: self.rng.uniform(config.init_low, config.init_high)
            for rid in self.evaluator.rule_ids})
        if config.timeout is not None and config.timeout <= 0.0:
            self._finish("timeout")
            return
        start = time.perf_counter()
        self.result = self.evaluator.evaluate(self.w.clamped(CLAMP_EPS))
        self.loss = loss(self.result, problem.labels)
        self._try_recover()
        self.elapsed += time.perf_counter() - start

    def _try_recover(self) -> bool:
        sep = separation_check(self.result, self.problem.labels)
        if not sep.separated:
            return False
        candidate = sep.positive_rules
        check = check_solution(self.problem.rules.subset(candidate).rules,
                               self.problem.input, self.problem.labels)
        if check.accepted:
            self.outcome = SearchOutcome("solved", candidate, self.iterations,
                                         self.samplings, self.elapsed)
            return True
        return False

    def _finish(self, status: str) -> SearchOutcome:
        self.outcome = SearchOutcome(status, None, self.iterations, self.samplings, self.elapsed)
        return self.outcome

    def step(self) -> SearchOutcome | None:
        """Perform one weight update; returns the outcome once finished."""
        if self.outcome is not None:
            return self.outcome
        if self.iterations >= self.config.max_iters:
            return self._finish("exhausted")
        if self.config.timeout is not None and self.elapsed >= self.config.timeout:
            return self._finish("timeout")

        start = time.perf_counter()
        is_mcmc = (self.iterations + 1) % self.config.mcmc_period == 0
        event = ""
        if not is_mcmc:
            grad = loss_gradient(self.result, self.w.clamped(CLAMP_EPS), self.problem.labels)
            try:
                self.w = newton_step(self.w, self.loss, grad)
                self.result = self.evaluator.evaluate(self.w.clamped(CLAMP_EPS))
                self.loss = loss(self.result, self.problem.labels)
                event = "newton"
            except ZeroGradientError:
                # plateau: Newton is undefined, fall through to an MCMC event
                is_mcmc = True
        if is_mcmc:
            temp = temperature(self.iterations, self.config.annealing_c)
            proposal = mcmc_propose(self.w, self.rng)
            result_new = self.evaluator.evaluate(proposal.clamped(CLAMP_EPS))
            loss_new = loss(result_new, self.problem.labels)
            self.samplings += 1
            if mcmc_accept(self.loss, loss_new, temp, self.rng):
                self.w, self.result, self.loss = proposal, result_new, loss_new
                event = "mcmc-accept"
            else:
                event = "mcmc-reject"
        self.iterations += 1
        if self.trace is not None:
            self.trace(self.iterations, self.loss, event,
                       temperature(self.iterations, self.config.annealing_c))
        self._try_recover()
        self.elapsed += time.perf_counter() - start
        return self.outcome

    def cancel(self) -> SearchOutcome:
        if self.outcome is None:
            self._finish("cancelled")
        return self.outcome


def search(problem: Problem, config: SearchConfig,
           evaluator: Evaluator | None = None, trace: TraceFn | None = None) -> SearchOutcome:
    """Run one search instance to completion."""
    runner = SearchRunner(problem, config, evaluator, trace)
    while runner.outcome is None:
        runner.step()
    return runner.outcome
