"""Spans around the calls into each ``difflog`` layer, recorded from outside.

The tracer rebinds the module and class attributes that callers resolve at
call time (``cli.run_portfolio``, ``viterbi.ground``, ``Evaluator.evaluate``
...), so nothing in ``src/`` changes.  Spans are kept in memory as
``[name, start, end, parent, tag]`` and written out when the run ends;
``tag`` identifies the pass and instance a span belongs to.

Spans are timed on CPU time of the one thread that runs the program, by
default ``time.thread_time``.  The program never waits, so on an idle
machine that is its wall time; on a shared host it leaves out the stretches
in which other tenants hold the processor.  It is the thread's clock, not
the process's, because the process clock only advances at scheduler ticks
while a CPU-time timer such as the probe's in ``calibrate`` is armed.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

# the attributes the untraced run wraps: parse plus Evaluator construction
SETUP_SPANS = ("core.parse_problem", "viterbi.build")


class Tracer:
    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (tag, counter name) -> count
        self.tag = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def span(self, name: str) -> int:
        """Open a span under the innermost open one; ``close`` takes its index."""
        index = len(self.spans)
        self.spans.append([name, self.clock(), None,
                           self._stack[-1] if self._stack else -1, self.tag])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.tag, name)] += n

    def wrap(self, owner, attr: str, name: str, on_result=None, on_error=None) -> None:
        """Rebind ``owner.attr`` to a wrapper that records a span per call."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            index = self.span(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                self.close(index)
            if on_result is not None:
                on_result(self, result, args)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def durations(self, tag_filter) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, tag in self.spans:
            if tag_filter(tag):
                out[name].append(end - start)
        return out

    def self_times(self, tag_filter) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, tag) in enumerate(self.spans):
            if tag_filter(tag):
                out[name] += end - start - child[i]
        return out

    def total(self, name: str, tag_filter) -> int:
        return sum(n for (tag, key), n in self.counts.items() if key == name and tag_filter(tag))

    def write(self, path) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            handle.write("index\tname\tstart_s\tend_s\tparent\ttag\n")
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                handle.write(f"{i}\t{name}\t{start - base:.9f}\t{end - base:.9f}"
                             f"\t{parent}\t{tag}\n")


def install_setup(tracer: Tracer) -> None:
    """Only the two set-up calls: what the untraced run times."""
    from difflog import cli, viterbi

    tracer.wrap(cli, "parse_problem", "core.parse_problem")
    tracer.wrap(viterbi.Evaluator, "__init__", "viterbi.build", on_result=_on_build)


def install_full(tracer: Tracer) -> None:
    """Every layer boundary the per-layer metrics need."""
    from difflog import cli, core, optimizer, viterbi

    install_setup(tracer)
    tracer.wrap(cli, "run_portfolio", "cli.run_portfolio")
    tracer.wrap(viterbi, "boolean_fixpoint", "core.boolean_fixpoint")
    tracer.wrap(core, "boolean_fixpoint", "core.boolean_fixpoint")
    tracer.wrap(viterbi, "ground", "core.ground",
                on_result=lambda t, r, a: t.count("core.ground.clauses", len(r)))
    tracer.wrap(viterbi.Evaluator, "evaluate", "viterbi.evaluate",
                on_result=lambda t, r, a: t.count("viterbi.evaluate.rounds", r.rounds))
    tracer.wrap(optimizer, "loss", "optimizer.loss")
    tracer.wrap(optimizer, "loss_gradient", "optimizer.loss_gradient")
    tracer.wrap(optimizer, "newton_step", "optimizer.newton_step",
                on_error=_on_newton_error)
    tracer.wrap(optimizer, "mcmc_propose", "optimizer.mcmc_propose")
    tracer.wrap(optimizer, "mcmc_accept", "optimizer.mcmc_accept",
                on_result=lambda t, r, a: t.count("optimizer.mcmc.accepted", int(r)))
    tracer.wrap(optimizer, "separation_check", "optimizer.separation_check",
                on_result=lambda t, r, a: t.count("optimizer.separation_check.passed",
                                                  int(r.separated)))
    tracer.wrap(optimizer, "check_solution", "core.check_solution",
                on_result=lambda t, r, a: t.count("core.check_solution.accepted",
                                                  int(r.accepted)))
    tracer.wrap(optimizer.SearchRunner, "step", "optimizer.step")


def _on_build(tracer: Tracer, result, args) -> None:
    evaluator = args[0]
    tracer.count("viterbi.build.facts", len(evaluator.input) + evaluator.derivable_count)


def _on_newton_error(tracer: Tracer, exc: Exception) -> None:
    from difflog.optimizer import ZeroGradientError

    if isinstance(exc, ZeroGradientError):
        tracer.count("optimizer.newton_step.failed")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, tag_filter) -> dict[str, float]:
    """Per-layer numbers over the spans whose tag passes ``tag_filter``."""
    d = tracer.durations(tag_filter)
    own = tracer.self_times(tag_filter)

    def s(name):
        return sum(d.get(name, ()))

    def calls(name):
        return len(d.get(name, ()))

    def pct_ms(name, q):
        return 1e3 * percentile(d[name], q) if d.get(name) else 0.0

    proposals = calls("optimizer.mcmc_propose")
    accepted = tracer.total("optimizer.mcmc.accepted", tag_filter)
    clauses = tracer.total("core.ground.clauses", tag_filter)
    return {
        "core.parse_problem.s": s("core.parse_problem"),
        "core.parse_problem.calls": calls("core.parse_problem"),
        "core.boolean_fixpoint.s": s("core.boolean_fixpoint"),
        "core.boolean_fixpoint.calls": calls("core.boolean_fixpoint"),
        "core.ground.s": s("core.ground"),
        "core.ground.calls": calls("core.ground"),
        "core.ground.clauses": clauses,
        "viterbi.build.s": s("viterbi.build"),
        "viterbi.build.self_s": own.get("viterbi.build", 0.0),
        "viterbi.build.facts": tracer.total("viterbi.build.facts", tag_filter),
        "viterbi.build.clauses": clauses,
        "viterbi.evaluate.s": s("viterbi.evaluate"),
        "viterbi.evaluate.calls": calls("viterbi.evaluate"),
        "viterbi.evaluate.p50_ms": pct_ms("viterbi.evaluate", 50),
        "viterbi.evaluate.p95_ms": pct_ms("viterbi.evaluate", 95),
        "viterbi.evaluate.rounds": tracer.total("viterbi.evaluate.rounds", tag_filter),
        "optimizer.loss.s": s("optimizer.loss"),
        "optimizer.loss.calls": calls("optimizer.loss"),
        "optimizer.loss_gradient.s": s("optimizer.loss_gradient"),
        "optimizer.loss_gradient.calls": calls("optimizer.loss_gradient"),
        "optimizer.loss_gradient.p50_ms": pct_ms("optimizer.loss_gradient", 50),
        "optimizer.step.s": s("optimizer.step"),
        "optimizer.step.self_s": own.get("optimizer.step", 0.0),
        "optimizer.newton_step.s": s("optimizer.newton_step"),
        "optimizer.newton_step.calls": calls("optimizer.newton_step"),
        "optimizer.newton_step.failed": tracer.total("optimizer.newton_step.failed", tag_filter),
        "cli.run_portfolio.s": s("cli.run_portfolio"),
        "cli.run_portfolio.self_s": own.get("cli.run_portfolio", 0.0),
        "optimizer.mcmc.proposals": proposals,
        "optimizer.mcmc.accepted": accepted,
        "optimizer.mcmc.accept_ratio": accepted / proposals if proposals else 0.0,
        "optimizer.separation_check.s": s("optimizer.separation_check"),
        "optimizer.separation_check.calls": calls("optimizer.separation_check"),
        "optimizer.separation_check.passed":
            tracer.total("optimizer.separation_check.passed", tag_filter),
        "core.check_solution.s": s("core.check_solution"),
        "core.check_solution.calls": calls("core.check_solution"),
        "core.check_solution.accepted": tracer.total("core.check_solution.accepted", tag_filter),
    }


def median_over(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
