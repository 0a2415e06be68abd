"""Differential tests: the grounding kernel against the naive oracle in testkit.

The kernel derives the least fixpoint and every ground clause in one
semi-naive, indexed pass, and drops the self-loops: the clauses whose
conclusion is also an antecedent.  ``naive_fixpoint`` / ``naive_ground``
re-ground every rule with nested loops each round; both must agree on the
fixpoint, on ``check_solution``, and on the clause set and order less the
self-loops.  Values, provenance and rounds must equal those of a reference
fixpoint over every naive clause, self-loops included.  The arrays of the
golden problems and of the samegen pool over a 14-fact tree are pinned by
hash, and a clause budget stops a grounding that grows past it.
"""

import hashlib
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from difflog import core
from difflog.core import (Atom, CandidateRuleSet, Const, Database, Fact, Grounding,
                          GroundingBudgetError, LabelSet, ProblemError,
                          RelationDecl, Rule, SemanticError, boolean_fixpoint,
                          check_solution, ground, parse_problem, validate_rule)
from difflog.testkit import (ground_clauses, naive_fixpoint, naive_ground,
                             random_weights)
from difflog.viterbi import Evaluator
from strategies import (GRID, SETTINGS, instances, provenance_view, reference_fixpoint,
                        shared_shapes)

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def triples(clauses) -> list[tuple]:
    return [(c.rule_id, c.antecedents, c.conclusion) for c in clauses]


def is_self_loop(clause) -> bool:
    return clause.conclusion in clause.antecedents


def oracle_clauses(rules, input: Database):
    """Sorted facts and every clause over them, sorted the way ``ground`` numbers them."""
    facts = sorted({*input.facts(), *naive_fixpoint(rules, input).facts()})
    universe = Database(facts)
    clauses = sorted((c for rule in rules for c in naive_ground(rule, universe)),
                     key=lambda c: (c.conclusion, c.rule_id, c.antecedents))
    return facts, clauses


def clause_grounding(facts, input: Database, rule_ids, clauses) -> Grounding:
    """``clauses``, in their order, as a ``Grounding`` over the sorted ``facts``."""
    fact_pos = {f: i for i, f in enumerate(facts)}
    rule_pos = {rid: i for i, rid in enumerate(rule_ids)}
    cols = np.full((max((len(c.antecedents) for c in clauses), default=0), len(clauses)), -1,
                   dtype=np.intp)
    for i, c in enumerate(clauses):
        cols[:len(c.antecedents), i] = [fact_pos[a] for a in c.antecedents]
    return Grounding(
        facts, np.array(sorted(fact_pos[f] for f in input.facts()), dtype=np.int64),
        tuple(rule_ids),
        concl=np.array([fact_pos[c.conclusion] for c in clauses], dtype=np.int64),
        rule=np.array([rule_pos[c.rule_id] for c in clauses], dtype=np.int64),
        cols=cols)


def oracle_arrays(rules: CandidateRuleSet, input: Database):
    """The ``Grounding`` of every naive clause, and the clauses and ``Grounding``
    that ``ground`` keeps."""
    facts, clauses = oracle_clauses(rules, input)
    kept = [c for c in clauses if not is_self_loop(c)]
    return {"naive": clause_grounding(facts, input, rules.ids(), clauses),
            "kept": kept,
            "ground": clause_grounding(facts, input, rules.ids(), kept)}


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_oracle(rules: CandidateRuleSet, input: Database, oracle, weights) -> None:
    """The kernel arrays equal ``oracle``'s less the self-loops, and Evaluator values,
    provenance and rounds equal the reference's over every naive clause."""
    grounding, expected = ground(rules, input), oracle["ground"]
    assert (grounding.facts, grounding.rule_ids) == (expected.facts, expected.rule_ids)
    for name in ("input_idx", "concl", "rule", "cols"):
        assert same_array(getattr(grounding, name), getattr(expected, name))
    assert grounding.cols.flags.c_contiguous
    naive = oracle["naive"]
    ev = Evaluator(rules, input)
    for w in weights:
        result = ev.evaluate(w)
        values, counts, rounds = reference_fixpoint(
            naive, np.array([w[rid] for rid in naive.rule_ids], dtype=np.float64))
        value, provenance = provenance_view(naive, values, counts)
        # bitwise, and the zero row of facts outside the grounding stays 0
        assert result.values.tobytes() == values.tobytes()
        assert {f: v for f in naive.facts if (v := result.value_of(f)) > 0.0} == value
        assert {t: p for t in naive.facts
                if (p := result.provenance_of(t)) is not None} == provenance
        assert not result.counts[result.values == 0.0].any()
        assert result.rounds == rounds


@SETTINGS
@given(instances())
def test_kernel_clause_set_matches_naive_ground(problem):
    grounding = ground(problem.rules, problem.input)
    got = triples(ground_clauses(grounding))
    assert len(got) == len(grounding) == len(set(got))
    _, expected = oracle_clauses(problem.rules, problem.input)
    assert set(got) == set(triples(c for c in expected if not is_self_loop(c)))


@SETTINGS
@given(instances())
def test_kernel_fixpoint_matches_naive_fixpoint(problem):
    expected = naive_fixpoint(problem.rules, problem.input)
    assert boolean_fixpoint(problem.rules, problem.input) == expected
    # sorted and distinct: ``Evaluator`` orders the negative labels by their
    # grounding row and relies on the rows being in sorted ``Fact`` order
    assert ground(problem.rules, problem.input).facts == \
        sorted({*problem.input.facts(), *expected.facts()})


@SETTINGS
@given(instances(), st.randoms(use_true_random=False))
def test_check_solution_matches_naive_on_rule_subsets(problem, rng):
    for _ in range(3):
        subset = [r for r in problem.rules if rng.random() < 0.5]
        fixpoint = naive_fixpoint(subset, problem.input)
        check = check_solution(subset, problem.input, problem.labels)
        assert check.missing == {t for t in problem.labels.positive if t not in fixpoint}
        assert check.spurious == {t for t in problem.labels.negative if t in fixpoint}
        assert check.accepted == (not check.missing and not check.spurious)


@SETTINGS
@given(instances(), st.randoms(use_true_random=False))
def test_evaluator_matches_build_from_naive_clauses(problem, rng):
    """Random weights, all 1 and the 3-point grid against the naive clauses."""
    ids = problem.rules.ids()
    weights = [random_weights(rng, problem.rules) for _ in range(2)]
    weights += [dict.fromkeys(ids, 1.0),
                {rid: rng.choice(GRID[::2]) for rid in ids}]
    assert_matches_oracle(problem.rules, problem.input,
                          oracle_arrays(problem.rules, problem.input), weights)


@SETTINGS
@given(instances(), st.randoms(use_true_random=False))
def test_pruned_evaluator_matches_unpruned_reference(problem, rng):
    """Neither the self-loop prune nor the input-only first round changes a bit:
    uniform and tie-forcing grid weights, all 0 and all 1."""
    ids = problem.rules.ids()
    weights = [{rid: rng.random() for rid in ids},
               {rid: rng.choice(GRID) for rid in ids},
               dict.fromkeys(ids, 0.0),
               dict.fromkeys(ids, 1.0)]
    assert_matches_oracle(problem.rules, problem.input,
                          oracle_arrays(problem.rules, problem.input), weights)


@SETTINGS
@given(shared_shapes(), st.randoms(use_true_random=False))
def test_rules_of_one_body_shape_ground_like_the_naive_oracle(problem, rng):
    """The kernel fires the rules of one body shape as one join; the arrays,
    values, provenance and rounds still equal the naive oracle's."""
    ids = problem.rules.ids()
    assert boolean_fixpoint(problem.rules, problem.input) == \
        naive_fixpoint(problem.rules, problem.input)
    weights = [random_weights(rng, problem.rules),
               {rid: rng.choice((0.0, 0.5, 1.0)) for rid in ids},
               dict.fromkeys(ids, 1.0)]
    assert_matches_oracle(problem.rules, problem.input,
                          oracle_arrays(problem.rules, problem.input), weights)


@pytest.mark.parametrize("name, counts", [("samegen", (93, 62, 83)),
                                          ("andersen", (81, 81, 185))])
def test_kernel_groups_pairs_by_body_shape_and_delta_literal(name, counts, monkeypatch):
    """The groups, those built, and the firings of the golden pools.  Rules
    of one body shape share a group even where their heads read different
    variables, as on samegen."""
    problem = parse_problem(PROBLEMS / name)
    firings = []
    fire = core._Kernel._fire
    monkeypatch.setattr(core._Kernel, "_fire",
                        lambda self, group, live: (firings.append(group), fire(self, group, live)))
    kernel = core._Kernel(problem.rules, problem.input)
    assert (len(kernel.groups), sum(bool(g.steps) for g in kernel.groups), len(firings)) == counts
    mixed = [g for g in kernel.groups
             if len({frozenset(kernel.heads[r][1]) for r in g.members.tolist()}) > 1]
    assert bool(mixed) == (name == "samegen")


_E = Database([Fact("e", ("a", "b")), Fact("e", ("b", "c"))])


def _rule(rule_id: str, head: tuple, *body: tuple) -> Rule:
    return Rule(rule_id, Atom(head[0], head[1:]), tuple(Atom(a[0], a[1:]) for a in body))


@pytest.mark.parametrize("rules, input, message", [
    ([_rule("r1", ("p", "x"), ("e", "x"))], _E, "rule r1: e expects 2 args, got 1"),
    ([_rule("r2", ("q", "x", "y", "z"), ("e", "x", "y", "z"))], _E,
     "rule r2: e expects 2 args, got 3"),
    ([_rule("r3", ("p", "x", "y"), ("e", "x", "y")), _rule("r4", ("q", "x"), ("p", "x"))], _E,
     "rule r4: p expects 2 args, got 1"),
    ([_rule("r5", ("p", "x"), ("e", "x", "y"))],
     Database([Fact("e", ("a", "b")), Fact("e", ("c",))]),
     "input relation e has facts of arities [1, 2]"),
], ids=["narrow_body_atom", "wide_body_atom", "two_atoms_of_p", "input_at_two_arities"])
@pytest.mark.parametrize("entry", [
    ground, boolean_fixpoint, Evaluator,
    lambda rules, input: check_solution(rules, input, LabelSet(frozenset(), frozenset()))],
    ids=["ground", "boolean_fixpoint", "Evaluator", "check_solution"])
def test_kernel_rejects_a_relation_used_at_two_arities(entry, rules, input, message):
    with pytest.raises(SemanticError, match=re.escape(message)):
        entry(rules, input)


def test_head_constant_absent_from_input():
    decls = {"p": RelationDecl("p", 1, "input"), "q": RelationDecl("q", 2, "output")}
    input_db = Database([Fact("p", ("a",)), Fact("p", ("b",))])
    rules = CandidateRuleSet([
        Rule("h1", Atom("q", ("x", Const("new"))), (Atom("p", ("x",)),)),
        Rule("h2", Atom("q", (Const("new"), "y")), (Atom("q", ("y", Const("new"))),)),
        Rule("h3", Atom("q", ("x", "x")), (Atom("q", (Const("new"), "x")), Atom("p", ("x",)))),
    ])
    for rule in rules:
        validate_rule(rule, decls)
    fixpoint = boolean_fixpoint(rules, input_db)
    assert fixpoint == naive_fixpoint(rules, input_db)
    assert Fact("q", ("a", "new")) in fixpoint and Fact("q", ("new", "b")) in fixpoint
    assert Fact("q", ("new", "new")) not in fixpoint
    oracle = oracle_arrays(rules, input_db)
    assert triples(ground_clauses(ground(rules, input_db))) == triples(oracle["kept"])
    assert_matches_oracle(rules, input_db, oracle, [{"h1": 0.9, "h2": 0.5, "h3": 0.7},
                                                    {"h1": 1.0, "h2": 1.0, "h3": 1.0}])


@pytest.mark.parametrize("name", ["samegen", "andersen"])
def test_golden_problem_matches_naive(name):
    problem = parse_problem(PROBLEMS / name)
    oracle = oracle_arrays(problem.rules, problem.input)
    assert triples(ground_clauses(ground(problem.rules, problem.input))) == \
        triples(oracle["kept"])
    assert len(oracle["kept"]) < len(oracle["naive"])
    rng = random.Random(name)
    assert_matches_oracle(problem.rules, problem.input, oracle,
                          [random_weights(rng, problem.rules, 0.25, 0.75)])


def tree_input(n: int) -> Database:
    """``parent`` facts of a binary tree: node i's parent is node (i - 1) // 2."""
    return Database(Fact("parent", (f"n{i}", f"n{(i - 1) // 2}")) for i in range(1, n + 1))


def grounding_digests(grounding) -> dict:
    """The clause count and the sha256 of each ``Grounding`` field, dtype and shape included."""
    out = {"clauses": len(grounding),
           "facts": hashlib.sha256(repr(grounding.facts).encode()).hexdigest()}
    for name in ("input_idx", "concl", "rule", "cols"):
        a = getattr(grounding, name)
        out[name] = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()
    return out


# recorded from the tuple-at-a-time kernel that the column kernel replaced
PINNED = {
    "samegen": {
        "clauses": 33752,
        "facts": "ba37ad22584c787c8c19b0376397b0746953dd5875e2d49bbff4cb011ac9dd69",
        "input_idx": "70bcd51f176e1e5a9ca43b3dadd32da51335d3cb3b32f9f5b5e44a14f4debf0c",
        "concl": "5c00ad8d4b52d57ebbe84ae8d546672882f17c1e5b984f75a99d8d94bb68163b",
        "rule": "7ad702f04013dd057f58e2b374e7355005ab70b1c5bf7aaf0dd275d3385c3f81",
        "cols": "7473587a08c4dc6d114872ba85af4c26771cda08b6d63f5e02389420c2ccce44"},
    "andersen": {
        "clauses": 21461,
        "facts": "21e24ab92b89a4bc70adc0238f22cbf210636f61f1a3e165a35c97a8a4d19794",
        "input_idx": "c4b6d774816d7d50366acc2d44c191b88c0c93580fd4fd704e6ba926913b1630",
        "concl": "920c2eec8e4b38564454a966509ce0612de262c2b2453ebab419750f6c36f014",
        "rule": "49f02d5b961203747e8ed8eaa4f96bf6523422f881603ebbbd64e122b574f9a0",
        "cols": "bac5c238d43f88a804427c726c37ac93f7bc763c848f4b1887824cc4b1bafe2c"},
    "tree14": {
        "clauses": 609488,
        "facts": "6ce67416657d1297e950b837cd82860423f0dca3ebaf6e78acf99b7ec9e41aa4",
        "input_idx": "c94d993214252fa5d4cb9f4535ef72df2906fee5297aff9466e24f5474a0dce6",
        "concl": "2ec15f6c2804a87c6bf3f721eb08c788b50d267ee31ddfd91f4d8a5c93f705b8",
        "rule": "e35776bf7686bb2171df1f9b799d60a9bafb91a9ccfe6e88b1e2f8ed6e983531",
        "cols": "ea53af416eeca617ed0d90a95b0605aed1bfa6efbfffd8a67a1073ebf081b24b"},
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_grounding_arrays_match_pinned_hashes(name):
    if name == "tree14":
        problem = parse_problem(PROBLEMS / "samegen")._replace(input=tree_input(14))
    else:
        problem = parse_problem(PROBLEMS / name)
    grounding = ground(problem.rules, problem.input)
    assert grounding.cols.flags.c_contiguous
    assert grounding_digests(grounding) == PINNED[name]


def test_keys_past_int64_stay_exact():
    """Arity 8 over 300 constants: packed keys reach 300**8 > 2**63.  Two input
    tuples whose keys differ by exactly 2**64 would collide if keys wrapped."""
    width, radix = 8, 300
    assert radix ** width > 2 ** 63

    def digits(key: int) -> tuple[int, ...]:
        return tuple(key // radix ** (width - 1 - p) % radix for p in range(width))

    low = (0, 0, 0, 0, 0, 0, 1, 2)
    high = digits(2 ** 64 + sum(d * radix ** (width - 1 - p) for p, d in enumerate(low)))
    # every constant occurs, so the kernel's radix is 300
    rows = [low, high] + [tuple((8 * i + p) % radix for p in range(width)) for i in range(38)]
    input_db = Database(Fact("e8", tuple(f"c{d:03d}" for d in row)) for row in rows)
    decls = {"e8": RelationDecl("e8", width, "input"), "o8": RelationDecl("o8", width, "output")}
    v = ("a", "b", "c", "d", "e", "f", "g", "h")
    rules = CandidateRuleSet([
        Rule("w1", Atom("o8", v), (Atom("e8", v),)),
        Rule("w2", Atom("o8", v[::-1]), (Atom("o8", v),)),
        Rule("w3", Atom("o8", v[1:] + v[:1]), (Atom("o8", v), Atom("e8", v))),
        Rule("w4", Atom("o8", (*v[:7], "y")), (Atom("o8", v), Atom("e8", (*v[:7], "y")))),
    ])
    for rule in rules:
        validate_rule(rule, decls)
    # a copy keeps both colliding tuples; this fails fast where keys wrap
    assert boolean_fixpoint([rules["w1"]], input_db) == \
        Database(Fact("o8", f.args) for f in input_db.facts())
    fixpoint = boolean_fixpoint(rules, input_db)
    assert fixpoint == naive_fixpoint(rules, input_db)
    assert Fact("o8", tuple(f"c{d:03d}" for d in high[::-1])) in fixpoint
    oracle = oracle_arrays(rules, input_db)
    assert_matches_oracle(rules, input_db, oracle, [dict.fromkeys(rules.ids(), 0.5)])


def test_relation_column_keeps_keys_exact_past_int64():
    """234 constants: a key of an arity-8 fact fits in int64 (234**8 < 2**63),
    but with the relation id in front it does not (234**9 > 2**63), and the
    keys of relations ``o3`` and ``o8`` (ids 2 and 3) pass 2**63.  An ``o8``
    fact whose key is exactly 2**64 past an ``e8`` fact's would collide with
    it if keys wrapped, and the ternary ``o3`` facts would sort before the
    input facts."""
    width, radix = 8, 234
    assert radix ** width < 2 ** 63 < radix ** (width + 1)

    def key(digits) -> int:
        return sum(d * radix ** (width - p) for p, d in enumerate(digits))

    def digits(k: int) -> tuple[int, ...]:
        return tuple(k // radix ** (width - p) % radix for p in range(width + 1))

    def names(row) -> tuple[str, ...]:
        return tuple(f"c{d:03d}" for d in row)

    # relation ids in sorted name order: e3 0, e8 1, o3 2, o8 3
    low = (1, 0, 0, 0, 0, 0, 0, 1, 2)             # e8(c000, ..., c001, c002)
    high = digits(key(low) + 2 ** 64)
    assert high[0] == 3                          # the key of o8(high[1:])
    e8 = [low[1:], high[1:]] + [tuple((8 * i + p) % radix for p in range(width))
                                for i in range(30)]
    e3 = [(0, 1, 2), (2, 1, 0), (233, 232, 231), (1, 2, 233)]
    input_db = Database([*(Fact("e8", names(row)) for row in e8),
                         *(Fact("e3", names(row)) for row in e3)])
    assert len({c for f in input_db.facts() for c in f.args}) == radix
    decls = {"e3": RelationDecl("e3", 3, "input"), "e8": RelationDecl("e8", width, "input"),
             "o3": RelationDecl("o3", 3, "output"), "o8": RelationDecl("o8", width, "output")}
    v = ("a", "b", "c", "d", "e", "f", "g", "h")
    rules = CandidateRuleSet([
        Rule("k1", Atom("o8", v), (Atom("e8", v),)),
        Rule("k2", Atom("o3", v[:3]), (Atom("e3", v[:3]),)),
        Rule("k3", Atom("o3", (v[2], v[0], v[1])), (Atom("o3", v[:3]),)),
        Rule("k4", Atom("o3", v[5:]), (Atom("o8", v), Atom("e3", v[:3]))),
        Rule("k5", Atom("o3", (v[1], v[1], v[2])), (Atom("o3", v[:3]), Atom("e3", v[:3]))),
    ])
    for rule in rules:
        validate_rule(rule, decls)
    fixpoint = boolean_fixpoint(rules, input_db)
    assert fixpoint == naive_fixpoint(rules, input_db)
    assert Fact("o8", names(high[1:])) in fixpoint
    oracle = oracle_arrays(rules, input_db)
    assert_matches_oracle(rules, input_db, oracle, [dict.fromkeys(rules.ids(), 0.5)])


def test_clause_order_past_one_int64_word():
    """Over 4,096 facts a position takes 13 bits, so a conclusion, five
    antecedents and a rule rank take more than 63: the clause sort spans words."""
    chain = [Fact("e", (f"k{i}", f"k{i + 1}")) for i in range(7)] + [Fact("e", ("k2", "k0"))]
    input_db = Database([*chain, *(Fact("pad", (f"p{i:04d}",)) for i in range(4100))])
    v = [f"x{i}" for i in range(6)]
    rules = CandidateRuleSet([
        Rule("c1", Atom("p", ("x", "y")), (Atom("e", ("x", "y")),)),
        Rule("c2", Atom("p", ("x", "z")), (Atom("p", ("x", "y")), Atom("e", ("y", "z")))),
        Rule("c5", Atom("p", (v[0], v[5])), tuple(Atom("e", (a, b)) for a, b in zip(v, v[1:]))),
    ])
    grounding = ground(rules, input_db)
    assert len(grounding.facts).bit_length() * 6 > 63
    oracle = oracle_arrays(rules, input_db)
    assert triples(ground_clauses(grounding)) == triples(oracle["kept"])
    assert_matches_oracle(rules, input_db, oracle, [{"c1": 0.9, "c2": 0.8, "c5": 0.7}])


def test_recursive_rule_whose_left_literal_is_derived_later():
    """``b`` gets its first facts in round 2, so in round 3 the plan of ``t`` with
    its delta at ``t(z, y)`` has a left literal without old facts and is skipped:
    the plan with its delta at ``b`` finds those clauses."""
    input_db = Database(Fact("e", (f"k{i}", f"k{i + 1}")) for i in range(5))
    x, y, z = "x", "y", "z"
    rules = CandidateRuleSet([
        Rule("t1", Atom("t", (x, y)), (Atom("b", (x, z)), Atom("t", (z, y)))),
        Rule("t2", Atom("t", (x, y)), (Atom("a", (x, y)),)),
        Rule("t3", Atom("b", (x, y)), (Atom("a", (x, y)),)),
        Rule("t4", Atom("a", (x, y)), (Atom("e", (x, y)),)),
    ])
    fixpoint = boolean_fixpoint(rules, input_db)
    assert fixpoint == naive_fixpoint(rules, input_db)
    assert Fact("t", ("k0", "k5")) in fixpoint
    oracle = oracle_arrays(rules, input_db)
    assert triples(ground_clauses(ground(rules, input_db))) == triples(oracle["kept"])
    assert_matches_oracle(rules, input_db, oracle, [dict.fromkeys(rules.ids(), 0.5)])


def test_ground_stops_at_the_clause_budget(monkeypatch):
    problem = parse_problem(PROBLEMS / "samegen")
    monkeypatch.setattr(core, "CLAUSE_BUDGET", 1000)
    with pytest.raises(GroundingBudgetError) as info:
        ground(problem.rules, problem.input)
    assert isinstance(info.value, ProblemError)
    assert info.value.count > 1000
    assert f"{info.value.count:,}" in str(info.value) and "1,000" in str(info.value)
    with pytest.raises(GroundingBudgetError):
        boolean_fixpoint(problem.rules, problem.input)



def test_budget_counts_the_rows_of_a_group_step_together(monkeypatch):
    """Four rules of one body shape join as one step of 4 x 300 rows, which a
    last literal then cuts to 4 x 10 clauses.  Over a budget of 1,000 the
    group stops before that step's rows exist, at their total, while each
    rule alone grounds under the same budget."""
    input_db = Database([*(Fact("e", (f"a{i}", "m")) for i in range(10)),
                         *(Fact("f", ("m", f"b{j:02d}")) for j in range(30)),
                         Fact("g", ("b00",))])
    rules = CandidateRuleSet(
        Rule(f"g{k}", Atom(f"o{k}", ("x", "z")),
             (Atom("e", ("x", "y")), Atom("f", ("y", "z")), Atom("g", ("z",))))
        for k in range(4))
    monkeypatch.setattr(core, "CLAUSE_BUDGET", 1000)
    with pytest.raises(GroundingBudgetError) as info:
        ground(rules, input_db)
    assert info.value.count == 4 * 300
    for rule in rules:
        grounding = ground([rule], input_db)
        assert len(grounding) == 10
        assert triples(ground_clauses(grounding)) == \
            triples(oracle_arrays(CandidateRuleSet([rule]), input_db)["kept"])
    assert len(ground(list(rules)[:3], input_db)) == 30
