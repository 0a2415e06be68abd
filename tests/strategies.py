"""Hypothesis strategies and array helpers shared by the property suites."""

import random

import numpy as np
from hypothesis import settings, strategies as st

from difflog.core import Atom, CandidateRuleSet, Const, Problem, Rule
from difflog.testkit import random_instance

SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)


def with_constants(problem: Problem, rng: random.Random) -> Problem:
    """Swap some rule variables for constants, one of which is not in the input."""
    constants = sorted({c for f in problem.input.facts() for c in f.args}) + ["zz"]
    rules = []
    for rule in problem.rules:
        body = tuple(Atom(a.relation, tuple(Const(rng.choice(constants)) if rng.random() < 0.3
                                            else t for t in a.args)) for a in rule.body)
        bound = {v for a in body for v in a.variables()}
        head = Atom(rule.head.relation,
                    tuple(Const(rng.choice(constants)) if t not in bound or rng.random() < 0.2
                          else t for t in rule.head.args))
        rules.append(Rule(rule.id, head, body))
    return problem._replace(rules=CandidateRuleSet(rules))


@st.composite
def instances(draw) -> Problem:
    """A random instance; the seed, not hypothesis, picks its sizes uniformly."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    body_len = rng.randint(1, 3)
    problem = random_instance(
        rng, n_constants=rng.randint(1, 5), n_input_relations=rng.randint(1, 3),
        n_output_relations=rng.randint(1, 2), n_facts=rng.randint(0, 16),
        n_rules=rng.randint(1, 8), max_body_len=body_len,
        max_arity=rng.randint(1, 3 if body_len < 3 else 2), n_labels=3)
    if draw(st.booleans()):
        problem = with_constants(problem, rng)
    return problem


def body_groups(cols: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per body length: the clauses, and their antecedents without the -1 pads."""
    lengths = (cols >= 0).sum(axis=0)
    return [(pos, cols[:k, pos].T) for k in range(1, len(cols) + 1)
            if len(pos := np.flatnonzero(lengths == k))]
