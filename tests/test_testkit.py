"""Oracles: tree enumeration, the SAT reduction, and random instances."""

import random

import pytest

from difflog.core import Fact, ProblemError, boolean_fixpoint, check_solution
from difflog.testkit import (EnumerationOverflow, brute_force_value,
                             encode_3cnf, exists_solution, parse_dimacs,
                             random_instance, random_weights, satisfiable)
from difflog.viterbi import Evaluator


def test_brute_force_family_values(family_rules, family_input):
    w = {"r1": 0.8, "r2": 0.6}
    will_ann = Fact("samegen", ("Will", "Ann"))
    ann_jim = Fact("samegen", ("Ann", "Jim"))
    assert brute_force_value(family_rules, w, family_input, will_ann, 5) == 0.8
    assert abs(brute_force_value(family_rules, w, family_input, ann_jim, 5) - 0.48) < 1e-12
    ava_liam = Fact("samegen", ("Ava", "Liam"))
    assert brute_force_value(family_rules, w, family_input, ava_liam, 5) == 0.0


def test_brute_force_respects_depth(family_rules, family_input):
    w = {"r1": 0.8, "r2": 0.6}
    ann_jim = Fact("samegen", ("Ann", "Jim"))
    # the only tree for samegen(Ann,Jim) has height 2 (r2 over an r1 leaf)
    assert brute_force_value(family_rules, w, family_input, ann_jim, 1) == 0.0
    assert abs(brute_force_value(family_rules, w, family_input, ann_jim, 2) - 0.48) < 1e-12


def test_brute_force_matches_evaluate(family_rules, family_input):
    rng = random.Random(21)
    for _ in range(10):
        w = random_weights(rng, family_rules)
        result = Evaluator(family_rules, family_input).evaluate(w)
        depth = len(boolean_fixpoint(family_rules, family_input))
        for t in result.derived.facts():
            oracle = brute_force_value(family_rules, w, family_input, t, depth)
            assert abs(oracle - result.value_of(t)) < 1e-12


def test_parse_dimacs():
    clauses = parse_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    assert clauses == [(1, -2, 3), (-1, 2, -3)]
    # SATLIB's uf-series trailer: a "%" line ends the formula
    assert parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n%\n0\n\n") == clauses
    with pytest.raises(ProblemError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(ProblemError):
        parse_dimacs("p cnf 1 0\n")


def test_encode_3cnf_structure():
    formula = [(1, 2, 3), (-1, -2, 3)]
    problem = encode_3cnf(formula)
    # two rules per variable plus the three fixed rules
    assert len(problem.rules) == 2 * 3 + 3
    assert "r_x1_true" in problem.rules and "r_x1_false" in problem.rules
    assert Fact("conflict", ("a", "a", "a")) in problem.input
    assert Fact("conflict", ("c1", "c2", "x1")) in problem.input
    assert Fact("error", ("a", "a", "a")) in problem.labels.positive
    assert Fact("C1", ("c1",)) in problem.labels.positive
    assert Fact("error", ("c1", "c2", "x1")) in problem.labels.negative


def test_encode_3cnf_rejects_bad_clauses():
    with pytest.raises(ProblemError):
        encode_3cnf([(1, 2)])
    with pytest.raises(ProblemError):
        encode_3cnf([(1, -1, 2)])
    with pytest.raises(ProblemError):
        encode_3cnf([(1, 0, 2)])


def test_encoding_satisfiable_formula_has_solution():
    formula = [(1, 2, 3)]
    problem = encode_3cnf(formula)
    assert satisfiable(formula)
    assert exists_solution(problem)
    # the assignment x1=True induces an accepted selection
    chosen = problem.rules.subset(["r_x1_true", "r_x2_false", "r_x3_false",
                                   "r_e", "r_a", "r_c"])
    assert check_solution(chosen, problem.input, problem.labels).accepted


def test_encoding_unsatisfiable_formula_has_no_solution():
    # x1 forced true and false through single-variable padding clauses
    formula = [(1, 1, 1), (-1, -1, -1)]
    problem = encode_3cnf(formula)
    assert not satisfiable(formula)
    assert not exists_solution(problem)


def test_exists_solution_guard():
    problem = encode_3cnf([(1, 2, 3), (4, 5, 6), (7, 1, 2)])
    with pytest.raises(ValueError):
        exists_solution(problem, max_rules=10)


def test_satisfiable_basics():
    assert satisfiable([(1, 2, 3)])
    assert satisfiable([(1, 1, 2), (-1, -1, -2)])
    assert not satisfiable([(1, 1, 1), (-1, -1, -1)])


def test_random_instance_deterministic():
    p1 = random_instance(random.Random(42), n_labels=2)
    p2 = random_instance(random.Random(42), n_labels=2)
    assert p1.input == p2.input
    assert [str(r) for r in p1.rules] == [str(r) for r in p2.rules]
    assert p1.labels == p2.labels
    assert p1.relations == p2.relations


def test_random_instance_is_valid():
    from difflog.core import validate_rule
    rng = random.Random(8)
    for _ in range(30):
        problem = random_instance(rng)
        for rule in problem.rules:
            validate_rule(rule, problem.relations)
        for fact in problem.input.facts():
            assert problem.relations[fact.relation].kind == "input"


def test_enumeration_overflow_guard():
    # q(a) :- q(a), q(a) makes the tree count grow doubly exponentially
    from difflog.core import Atom, Database, Rule
    rules = [Rule("r1", Atom("q", ("x",)), (Atom("p", ("x",)),)),
             Rule("r2", Atom("q", ("x",)), (Atom("q", ("x",)), Atom("q", ("x",))))]
    input_db = Database([Fact("p", ("a",))])
    w = {"r1": 0.9, "r2": 0.9}
    with pytest.raises(EnumerationOverflow):
        brute_force_value(rules, w, input_db, Fact("q", ("a",)), 12)
