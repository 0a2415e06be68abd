"""Differential tests: the array search core against Fact-keyed references.

``Evaluator.evaluate`` builds the provenance count matrix with array
operations, and ``loss``, ``loss_gradient``, ``separation_check``,
``newton_step`` and ``mcmc_propose`` are array expressions over it.  The
evaluation is compared with ``strategies.reference_fixpoint``, whose
values and counts ``strategies.provenance_view`` reads as Fact-keyed
dicts; the other references below are the dict implementations they
replaced, kept verbatim in their arithmetic.  Values, counts and verdicts
must be equal, and every float that can reach ``trace.tsv`` must be
bitwise equal.
"""

import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from difflog.core import (Atom, CandidateRuleSet, Database, Fact, LabelSet,
                          Problem, RelationDecl, Rule, ground, parse_problem)
from difflog.optimizer import (ZeroGradientError, clamp, loss, loss_gradient,
                               mcmc_propose, newton_step, separation_check)
from difflog.testkit import encode_3cnf, parse_dimacs, random_weights
from difflog.viterbi import Evaluator
from strategies import (SETTINGS, bits, instances, provenance_view,
                        reference_fixpoint)

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "synth"


def reference_loss(value, labels: LabelSet) -> float:
    total = 0.0
    for t in sorted(labels.positive):
        total += (1.0 - value.get(t, 0.0)) ** 2
    for t in sorted(labels.negative):
        total += value.get(t, 0.0) ** 2
    return total


def reference_loss_gradient(value, provenance, rule_ids, w, labels: LabelSet):
    grad = {rid: 0.0 for rid in rule_ids}
    for t in sorted(labels.positive):
        if t not in provenance:
            continue
        v = value[t]
        coeff = -2.0 * (1.0 - v)
        for rid, count in provenance[t].items():
            grad[rid] += coeff * count * v / w[rid]
    for t in sorted(labels.negative):
        if t not in provenance:
            continue
        v = value[t]
        for rid, count in provenance[t].items():
            grad[rid] += 2.0 * v * count * v / w[rid]
    return grad


def reference_separation(provenance, labels: LabelSet):
    positive_rules: set[str] = set()
    for t in labels.positive:
        if t not in provenance:
            return False, None
        positive_rules |= set(provenance[t])
    negative_rules: set[str] = set()
    for t in labels.negative:
        negative_rules |= set(provenance.get(t, ()))
    if positive_rules & negative_rules:
        return False, None
    return True, frozenset(positive_rules)


def reference_newton_step(w, L, grad):
    norm_sq = sum(g * g for g in grad.values())
    if norm_sq == 0.0:
        return None
    scale = L / norm_sq
    return {rid: min(max(wv - scale * grad[rid], 1e-6), 1.0 - 1e-6) for rid, wv in w.items()}


def reference_mcmc_propose(w, rng: random.Random):
    proposal = {}
    for rid, old in w.items():
        x = rng.random()
        if x < 0.5:
            proposal[rid] = old * math.sqrt(2.0 * x)
        else:
            proposal[rid] = 1.0 - (1.0 - old) * math.sqrt(2.0 * (1.0 - x))
    return proposal


def with_absent_labels(problem, rng: random.Random) -> LabelSet:
    """The problem's labels plus tuples over a constant no rule or fact mentions."""
    labels = problem.labels
    outputs = sorted({r.head.relation: None for r in problem.rules}) or ["out0"]
    arity = {d.name: d.arity for d in problem.relations.values()}
    positive, negative = set(labels.positive), set(labels.negative)
    for k, relation in enumerate(outputs):
        negative.add(Fact(relation, (f"absent{k}",) * arity[relation]))
        if rng.random() < 0.25:
            positive.add(Fact(relation, (f"missing{k}",) * arity[relation]))
    return LabelSet(frozenset(positive), frozenset(negative))


def weight_maps(rng: random.Random, rule_ids) -> list[dict[str, float]]:
    ids = list(rule_ids)
    return [
        {rid: rng.uniform(0.05, 0.95) for rid in ids},
        {rid: rng.choice((0.0, 1.0, rng.random())) for rid in ids},
        {rid: 1.0 for rid in ids},
        {rid: rng.choice((0.0, 0.5, 1.0)) for rid in ids},
    ]


@SETTINGS
@given(instances(), st.randoms(use_true_random=False))
def test_search_core_matches_counter_reference(problem, rng):
    ev = Evaluator(problem.rules, problem.input)
    grounding = ground(problem.rules, problem.input)
    labels = with_absent_labels(problem, rng)
    for w in weight_maps(rng, ev.rule_ids):
        wv = np.array([w[rid] for rid in ev.rule_ids])
        result = ev.evaluate(wv)
        values, counts, rounds = reference_fixpoint(grounding, wv)
        value, provenance = provenance_view(grounding, values, counts)

        assert result.rounds == rounds
        assert {t: v for t in grounding.facts if (v := result.value_of(t)) > 0.0} == value
        assert {t: p for t in grounding.facts
                if (p := result.provenance_of(t)) is not None} == provenance
        assert np.array_equal(result.counts, counts[:, ev.fired])
        assert not np.delete(counts, ev.fired, axis=1).any()
        assert not result.values[-1] and not result.counts[-1].any()

        assert bits(loss(result, labels)) == bits(reference_loss(value, labels))
        grad = loss_gradient(result, wv, labels)
        ref_grad = reference_loss_gradient(value, provenance, ev.rule_ids, w, labels)
        assert bits(grad) == bits([ref_grad[rid] for rid in ev.rule_ids])
        sep = separation_check(result, labels)
        assert (sep.separated, sep.positive_rules) == reference_separation(provenance, labels)

        L = loss(result, labels)
        ref_step = reference_newton_step(w, L, ref_grad)
        try:
            step = newton_step(wv, L, grad)
        except ZeroGradientError:
            step = None
        if ref_step is None:
            assert step is None or (L == 0.0 and step is wv)
        else:
            assert bits(step) == bits([ref_step[rid] for rid in ev.rule_ids])

        seed = rng.random()
        proposal = mcmc_propose(wv, random.Random(seed))
        ref_proposal = reference_mcmc_propose(w, random.Random(seed))
        assert bits(proposal) == bits([ref_proposal[rid] for rid in ev.rule_ids])


def assert_search_path_matches(problem, rng: random.Random) -> None:
    """The search's own path: weights clamped, labels as given."""
    ev = Evaluator(problem.rules, problem.input)
    w = random_weights(rng, problem.rules, 0.0, 1.0)
    wv = clamp(np.array([w[rid] for rid in ev.rule_ids]))
    w = dict(zip(ev.rule_ids, wv.tolist()))
    result = ev.evaluate(wv)
    grounding = ground(problem.rules, problem.input)
    value, provenance = provenance_view(grounding, *reference_fixpoint(grounding, wv)[:2])
    assert bits(loss(result, problem.labels)) == bits(reference_loss(value, problem.labels))
    ref_grad = reference_loss_gradient(value, provenance, ev.rule_ids, w, problem.labels)
    assert bits(loss_gradient(result, wv, problem.labels)) == \
        bits([ref_grad[rid] for rid in ev.rule_ids])


@SETTINGS
@given(instances(), st.randoms(use_true_random=False))
def test_search_core_matches_reference_at_clamped_weights(problem, rng):
    assert_search_path_matches(problem, rng)


@pytest.mark.parametrize("name", ["samegen", "andersen", "cnf4"])
def test_search_core_matches_reference_on_fixture_problems(name):
    """Hundreds of labels per sum, where a pairwise sum would round differently."""
    if name == "cnf4":
        problem = encode_3cnf(parse_dimacs((DATA / "cnf4" / "formula.cnf").read_text()))
    else:
        problem = parse_problem(ROOT / "problems" / name)
    rng = random.Random(name)
    for _ in range(5):
        assert_search_path_matches(problem, rng)


def test_gradient_adds_labels_in_order_for_one_rule():
    """With one rule, numpy's axis-0 sum of a (labels x 1) matrix is pairwise."""
    p, q = RelationDecl("p", 1, "input"), RelationDecl("q", 1, "output")
    names = [f"c{i:03d}" for i in range(300)]
    labels = LabelSet(frozenset(Fact("q", (c,)) for c in names[:170]),
                      frozenset(Fact("q", (c,)) for c in names[170:]))
    problem = Problem({"p": p, "q": q}, Database(Fact("p", (c,)) for c in names), labels,
                      CandidateRuleSet([Rule("r1", Atom("q", ("x",)), (Atom("p", ("x",)),))]))
    assert_search_path_matches(problem, random.Random(0))
