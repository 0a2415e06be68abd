"""Hypothesis strategies and array helpers shared by the property suites."""

import random

import numpy as np
from hypothesis import settings, strategies as st

from difflog.core import (INPUT, OUTPUT, Atom, CandidateRuleSet, Const, Database,
                          Fact, LabelSet, Problem, RelationDecl, Rule, validate_rule)
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


@st.composite
def shared_shapes(draw) -> Problem:
    """A pool of a few body shapes, each with several rules that differ in
    their relation names, body and head constants and head projection, with
    repeated head variables, over relations of arity 1-3.  Each rule draws
    its own head variables from its shape's variables, and the rules of one
    shape still ground as one join per delta literal."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    constants = [f"k{i}" for i in range(rng.randint(1, 3))]
    decls = {f"{kind[0]}{arity}{s}": RelationDecl(f"{kind[0]}{arity}{s}", arity, kind)
             for kind in (INPUT, OUTPUT) for arity in (1, 2, 3) for s in "ab"}
    inputs = [d for d in decls.values() if d.kind == INPUT]
    outputs = [d for d in decls.values() if d.kind == OUTPUT]
    facts = []
    for _ in range(rng.randint(0, 20)):
        decl = rng.choice(inputs)
        facts.append(Fact(decl.name, tuple(rng.choice(constants) for _ in range(decl.arity))))

    def constant() -> Const:
        return Const(rng.choice(constants + ["zz"]))  # "zz" is in no fact

    rules = []
    for shape in range(rng.randint(1, 3)):
        n_vars = rng.randint(1, 3)
        body = [[-1 if rng.random() < 0.2 else rng.randrange(n_vars)
                 for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 3))]
        used = sorted({v for literal in body for v in literal if v >= 0})
        for k in range(rng.randint(2, 5)):
            head = rng.sample(used, rng.randint(0, len(used)))
            # mostly input relations, so that several rules of a group find facts
            atoms = tuple(Atom(rng.choice([d for d in (inputs if rng.random() < 0.7 else outputs)
                                           if d.arity == len(literal)]).name,
                               tuple(constant() if v < 0 else f"x{v}" for v in literal))
                          for literal in body)
            # every head variable once, then repeats or constants, up to arity 1-3
            terms = [f"x{v}" for v in head]
            for _ in range(rng.randint(max(len(terms), 1), 3) - len(terms)):
                terms.append(rng.choice(terms) if terms and rng.random() < 0.7 else constant())
            rng.shuffle(terms)
            head_decl = rng.choice([d for d in outputs if d.arity == len(terms)])
            rules.append(Rule(f"s{shape}r{k}", Atom(head_decl.name, tuple(terms)), atoms))
    rng.shuffle(rules)
    for rule in rules:
        validate_rule(rule, decls)
    return Problem(decls, Database(facts), LabelSet(frozenset(), frozenset()),
                   CandidateRuleSet(rules))


def body_groups(cols: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per body length: the clauses, and their antecedents without the -1 pads."""
    lengths = (cols >= 0).sum(axis=0)
    return [(pos, cols[:k, pos].T) for k in range(1, len(cols) + 1)
            if len(pos := np.flatnonzero(lengths == k))]
