"""Weighted evaluation: values, provenance, gradients."""

import math
import random

import numpy as np
import pytest

from difflog.core import Database, Fact, SemanticError, boolean_fixpoint
from difflog.testkit import random_instance, random_weights
from difflog.viterbi import Evaluator, gradient


@pytest.mark.parametrize("bad", [1.5, -0.1, math.nan, math.inf])
def test_evaluate_validates_weights(family_rules, family_input, bad):
    ev = Evaluator(family_rules, family_input)
    with pytest.raises(ValueError, match="r2 is not in"):
        ev.evaluate({"r1": 0.5, "r2": bad})
    with pytest.raises(ValueError, match="r2 is not in"):
        ev.evaluate(np.array([0.5, bad]))
    with pytest.raises(ValueError, match="expected 2 weights"):
        ev.evaluate(np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError, match="expected 2 weights"):
        ev.evaluate(np.array([[0.5, 0.5]]))


def test_evaluate_accepts_vector_in_rule_order(family_rules, family_input):
    ev = Evaluator(family_rules, family_input)
    by_id = ev.evaluate({"r1": 0.8, "r2": 0.6})
    by_position = ev.evaluate(np.array([0.8, 0.6]))
    assert np.array_equal(by_id.values, by_position.values)
    assert np.array_equal(by_id.counts, by_position.counts)


def test_family_values_and_provenance(family_rules, family_input):
    result = Evaluator(family_rules, family_input).evaluate({"r1": 0.8, "r2": 0.6})
    will_ann = Fact("samegen", ("Will", "Ann"))
    ann_jim = Fact("samegen", ("Ann", "Jim"))
    assert result.value_of(will_ann) == 0.8
    assert result.provenance_of(will_ann) == {"r1": 1}
    assert abs(result.value_of(ann_jim) - 0.48) < 1e-12
    assert result.provenance_of(ann_jim) == {"r1": 1, "r2": 1}


def test_input_tuples_have_value_one(family_rules, family_input):
    result = Evaluator(family_rules, family_input).evaluate({"r1": 0.5, "r2": 0.5})
    t = Fact("parent", ("Will", "Noah"))
    assert result.value_of(t) == 1.0
    assert result.provenance_of(t) == {}


def test_underivable_tuple_has_zero_value(family_rules, family_input):
    result = Evaluator(family_rules, family_input).evaluate({"r1": 0.8, "r2": 0.6})
    t = Fact("samegen", ("Ava", "Liam"))
    assert result.value_of(t) == 0.0
    assert result.provenance_of(t) is None


def test_derived_set_equals_support_fixpoint(family_rules, family_input):
    result = Evaluator(family_rules, family_input).evaluate({"r1": 0.8, "r2": 0.0})
    expected = boolean_fixpoint([family_rules["r1"]], family_input)
    assert result.derived == expected


def test_rounds_bounded_by_derivable_plus_one(family_rules, family_input):
    ev = Evaluator(family_rules, family_input)
    result = ev.evaluate({"r1": 0.8, "r2": 0.6})
    assert result.rounds <= ev.derivable_count + 1


def test_missing_weight_rejected(family_rules, family_input):
    with pytest.raises(SemanticError, match="missing"):
        Evaluator(family_rules, family_input).evaluate({"r1": 0.8})


def test_evaluator_reusable_across_weights(family_rules, family_input):
    ev = Evaluator(family_rules, family_input)
    ann_jim = Fact("samegen", ("Ann", "Jim"))
    assert abs(ev.evaluate({"r1": 0.8, "r2": 0.6}).value_of(ann_jim) - 0.48) < 1e-12
    assert abs(ev.evaluate({"r1": 0.3, "r2": 0.9}).value_of(ann_jim) - 0.27) < 1e-12


def test_gradient_closed_form(family_rules, family_input):
    w = {"r1": 0.8, "r2": 0.6}
    result = Evaluator(family_rules, family_input).evaluate(w)
    ann_jim = Fact("samegen", ("Ann", "Jim"))
    grad = gradient(result, w, ann_jim)
    # v = w1 * w2 here, so dv/dw1 = w2 and dv/dw2 = w1
    assert abs(grad["r1"] - 0.6) < 1e-12
    assert abs(grad["r2"] - 0.8) < 1e-12


def test_gradient_zero_for_underivable(family_rules, family_input):
    w = {"r1": 0.8, "r2": 0.6}
    result = Evaluator(family_rules, family_input).evaluate(w)
    grad = gradient(result, w, Fact("samegen", ("Ava", "Liam")))
    assert grad == {"r1": 0.0, "r2": 0.0}


def test_gradient_at_zero_weight_of_a_rule_outside_the_tree(family_rules, family_input):
    w = {"r1": 0.5, "r2": 0.0}
    result = Evaluator(family_rules, family_input).evaluate(w)
    ann_ann = Fact("samegen", ("Ann", "Ann"))
    assert result.provenance_of(ann_ann) == {"r1": 1}
    assert gradient(result, w, ann_ann) == {"r1": 1.0, "r2": 0.0}


def test_gradient_rejects_non_output_tuple(family_rules, family_input):
    result = Evaluator(family_rules, family_input).evaluate({"r1": 0.8, "r2": 0.6})
    with pytest.raises(SemanticError):
        gradient(result, {"r1": 0.8, "r2": 0.6}, Fact("parent", ("Will", "Noah")))


def test_value_weakly_increases_in_weights_random():
    rng = random.Random(7)
    for _ in range(40):
        problem = random_instance(rng)
        w = random_weights(rng, problem.rules)
        bumped = {r: min(1.0, v + rng.uniform(0.0, 0.2)) for r, v in w.items()}
        ev = Evaluator(problem.rules, problem.input)
        before = ev.evaluate(w)
        after = ev.evaluate(bumped)
        for t in before.derived.facts():
            assert after.value_of(t) >= before.value_of(t) - 1e-12


def test_provenance_counts_consistent_with_value():
    rng = random.Random(13)
    for _ in range(40):
        problem = random_instance(rng)
        w = random_weights(rng, problem.rules)
        result = Evaluator(problem.rules, problem.input).evaluate(w)
        for t in result.derived.facts():
            counts = result.provenance_of(t)
            prod = 1.0
            for rid, c in counts.items():
                prod *= w[rid] ** c
            assert abs(prod - result.value_of(t)) < 1e-9


def test_empty_input_database(family_rules):
    result = Evaluator(family_rules, Database()).evaluate({"r1": 0.8, "r2": 0.6})
    assert len(result.derived) == 0
