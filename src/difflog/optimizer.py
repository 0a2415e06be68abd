"""Hybrid continuous search: Newton root-finding on the L2 loss with
periodic simulated-annealing proposals, separation-guided termination,
and discrete program recovery.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# check_solution stays importable here: perfbench times candidate checks by this name
from .core import LabelSet, Problem, check_solution
from .viterbi import EvaluationResult, Evaluator

CLAMP_EPS = 1e-6
ANNEALING_C = 0.0001  # the cooling constant c of ``temperature``
INIT_LOW, INIT_HIGH = 0.25, 0.75  # initial weights are drawn uniformly from this range


class ZeroGradientError(Exception):
    """Newton step undefined: the loss gradient vanished at nonzero loss."""


@dataclass(frozen=True)
class SearchConfig:
    max_iters: int = 10_000
    mcmc_period: int = 30
    rng_seed: int = 0
    timeout: float | None = None  # seconds of search compute time

    def __post_init__(self):
        if self.mcmc_period < 1:
            raise ValueError("mcmc_period must be >= 1")


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # solved | timeout | exhausted | cancelled
    rules: frozenset[str] | None
    iterations: int
    samplings: int
    wall_time: float


def clamp(w: np.ndarray) -> np.ndarray:
    """Weights pushed into [eps, 1-eps] so w_r never divides to zero."""
    return np.clip(w, CLAMP_EPS, 1.0 - CLAMP_EPS)


def loss(result: EvaluationResult, labels: LabelSet) -> float:
    """L2 loss: positives pulled to value 1, negatives to value 0."""
    rows, n_positive = result.evaluator.label_rows(labels)
    gap = result.values[rows]
    gap[:n_positive] = 1.0 - gap[:n_positive]
    # a running sum in label order: numpy's pairwise sum and the compensated
    # sum() of newer Pythons round differently, and the trace prints this
    # value; zero terms change no sum
    total = 0.0
    for d in gap[gap != 0.0].tolist():
        total += d ** 2
    return total


def loss_gradient(result: EvaluationResult, w: np.ndarray, labels: LabelSet) -> np.ndarray:
    """Chain-rule assembly of the loss gradient from the labels' provenance.

    dL/dw_r sums a_t * count_r(t) * v_t / w_r over the labels t, where
    a_t = -2 (1 - v_t) for a positive and 2 v_t for a negative; ``w`` is the
    full weight vector the result was evaluated at.  The sums run over the
    result's count columns, the fired rules; the gradient is full-width,
    with exact zeros for the rules that never fire.
    """
    ev = result.evaluator
    rows, n_positive = ev.label_rows(labels)
    v = result.values[rows]
    a = 2.0 * v
    a[:n_positive] = -2.0 * (1.0 - v[:n_positive])
    live = v > 0.0  # a label without a derivation has an all-zero count row
    v, a, counts = v[live], a[live], result.counts[rows[live]]
    # the nonzero counts in label order; bincount adds each column's terms in
    # that order from 0.0, where a reduction may sum pairwise and round
    # differently, and a skipped zero term would change no sum
    label, col = np.nonzero(counts)
    terms = ((a[label] * counts[label, col]) * v[label]) / w[ev.fired[col]]
    grad = np.zeros(len(w))
    grad[ev.fired] = np.bincount(col, weights=terms, minlength=len(ev.fired))
    return grad


def newton_step(w: np.ndarray, L: float, grad_L: np.ndarray) -> np.ndarray:
    """Root-finding update w - L * grad / ||grad||^2, clamped into (0, 1)."""
    norm_sq = sum((grad_L * grad_L).tolist())  # rule order, not numpy's pairwise sum
    if norm_sq == 0.0:
        if L == 0.0:
            return w
        raise ZeroGradientError("zero loss gradient at nonzero loss")
    return clamp(w - (L / norm_sq) * grad_L)


def mcmc_propose(w: np.ndarray, rng: random.Random) -> np.ndarray:
    """Independent per-rule proposal, symmetric around the current weight.

    Draws one ``rng.random()`` per rule, in rule order.
    """
    x = np.array([rng.random() for _ in range(len(w))])
    return np.where(x < 0.5, w * np.sqrt(2.0 * x),
                    1.0 - (1.0 - w) * np.sqrt(2.0 * (1.0 - x)))


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
    rows, n_positive = result.evaluator.label_rows(labels)
    positive, negative = rows[:n_positive], rows[n_positive:]
    if not (result.values[positive] > 0.0).all():
        return SeparationResult(False)
    negative = negative[result.values[negative] > 0.0]
    positive_rules = (result.counts[positive] != 0).any(axis=0)
    if (positive_rules & (result.counts[negative] != 0).any(axis=0)).any():
        return SeparationResult(False)
    ev = result.evaluator
    return SeparationResult(True, frozenset(ev.rule_ids[r]
                                            for r in ev.fired[positive_rules].tolist()))


TraceFn = Callable[[int, float, str, float], None]


class SearchRunner:
    """One search instance, advanced one weight update at a time.

    Owns its RNG and state; instances sharing a problem may share one
    Evaluator since evaluation is pure.  Between steps it keeps the weight
    vector with its loss and loss gradient, not the evaluation they came from.
    """

    def __init__(self, problem: Problem, config: SearchConfig,
                 evaluator: Evaluator | None = None, trace: TraceFn | None = None):
        self.problem = problem
        self.config = config
        self.trace = trace
        self.rng = random.Random(config.rng_seed)
        if evaluator is None:
            evaluator = Evaluator(problem.rules, problem.input)
        self.evaluator = evaluator
        self.iterations = 0
        self.samplings = 0
        self.elapsed = 0.0
        self.outcome: SearchOutcome | None = None

        # random.uniform's arithmetic, a + (b - a) * random(), once over the array
        x = np.array([self.rng.random() for _ in self.evaluator.rule_ids])
        self.w = INIT_LOW + (INIT_HIGH - INIT_LOW) * x
        if config.timeout is not None and config.timeout <= 0.0:
            self._finish("timeout")
            return
        start = time.perf_counter()
        self._accept(self.w, *self._evaluate(self.w))
        self.elapsed += time.perf_counter() - start

    def _evaluate(self, w: np.ndarray) -> tuple[EvaluationResult, float]:
        result = self.evaluator.evaluate(clamp(w))
        return result, loss(result, self.problem.labels)

    def _accept(self, w: np.ndarray, result: EvaluationResult, loss_value: float) -> None:
        """Move to ``w``, then try to recover a program from its evaluation."""
        self.w, self.loss = w, loss_value
        self.grad = loss_gradient(result, clamp(w), self.problem.labels)
        sep = separation_check(result, self.problem.labels)
        if not sep.separated:
            return
        candidate = sep.positive_rules
        if self.evaluator.check(candidate, self.problem.labels).accepted:
            self.outcome = SearchOutcome("solved", candidate, self.iterations,
                                         self.samplings, self.elapsed)

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
        accepted = None
        if not is_mcmc:
            try:
                w = newton_step(self.w, self.loss, self.grad)
            except ZeroGradientError:
                # plateau: Newton is undefined, fall through to an MCMC event
                is_mcmc = True
            else:
                accepted = (w, *self._evaluate(w))
                event = "newton"
        if is_mcmc:
            temp = temperature(self.iterations, ANNEALING_C)
            w = mcmc_propose(self.w, self.rng)
            result, loss_new = self._evaluate(w)
            self.samplings += 1
            if mcmc_accept(self.loss, loss_new, temp, self.rng):
                accepted = (w, result, loss_new)
                event = "mcmc-accept"
            else:
                event = "mcmc-reject"
        self.iterations += 1
        # a rejected proposal leaves the state, and so the failed recovery, as it was
        if accepted is not None:
            self._accept(*accepted)
        if self.trace is not None:
            self.trace(self.iterations, self.loss, event,
                       temperature(self.iterations, ANNEALING_C))
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
