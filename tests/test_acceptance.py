"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Every expected value is checked against an independent oracle: brute-force
derivation-tree enumeration, finite differences, exhaustive subset search,
or exhaustive SAT.
"""

import itertools
import math
import random
import time
from pathlib import Path

import numpy as np

from difflog.core import (Database, Fact, boolean_fixpoint, check_solution,
                          parse_problem, parse_relations, parse_rule_line,
                          parse_rules)
from difflog.optimizer import mcmc_accept, mcmc_propose, temperature
from difflog.rulegen import canonicalize
from difflog.testkit import (EnumerationOverflow, brute_force_value,
                             encode_3cnf, exists_solution, random_instance,
                             random_weights, satisfiable)
from difflog.viterbi import Evaluator, gradient
from conftest import ACCEPTANCE_LINES, PARENT_PAIRS, make_family_rules

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"


def verdict(name: str, ok: bool) -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, name


def family_setup():
    rules = make_family_rules()
    input_db = Database(Fact("parent", p) for p in PARENT_PAIRS)
    return rules, input_db


def sample_instance(rng, **kwargs):
    """A random instance that has at least one derivable tuple."""
    while True:
        problem = random_instance(rng, **kwargs)
        if len(boolean_fixpoint(problem.rules, problem.input)) > 0:
            return problem


def test_criterion_1_worked_example_fidelity():
    started = time.perf_counter()
    rules, input_db = family_setup()
    w = {"r1": 0.8, "r2": 0.6}
    result = Evaluator(rules, input_db).evaluate(w)
    ok = result.value_of(Fact("samegen", ("Will", "Ann"))) == 0.8
    oracle = brute_force_value(rules, w, input_db, Fact("samegen", ("Ann", "Jim")), 5)
    ok = ok and abs(oracle - 0.48) < 1e-12
    ok = ok and abs(result.value_of(Fact("samegen", ("Ann", "Jim"))) - 0.48) < 1e-12
    ok = ok and (time.perf_counter() - started) < 1.0
    verdict("criterion 1: worked-example values 0.8 / 0.48 at tolerance 1e-12", ok)


def test_criterion_2_positive_support_equals_boolean_fixpoint():
    rng = random.Random(2)
    violations = 0
    for _ in range(200):
        problem = random_instance(rng, n_constants=rng.randint(2, 6),
                                  n_rules=rng.randint(1, 5))
        w = random_weights(rng, problem.rules)
        for rid in problem.rules.ids():
            if rng.random() < 0.4:
                w[rid] = 0.0
        result = Evaluator(problem.rules, problem.input).evaluate(w)
        live = [r for r in problem.rules if w[r.id] > 0.0]
        expected = boolean_fixpoint(live, problem.input)
        if set(result.derived.facts()) != set(expected.facts()):
            violations += 1
    verdict("criterion 2: positive-value set equals Boolean fixpoint of the "
            "support on 200 random instances", violations == 0)


def test_criterion_3_monotonicity_and_continuity():
    rng = random.Random(3)
    violations = 0
    for _ in range(200):
        problem = sample_instance(rng)
        evaluator = Evaluator(problem.rules, problem.input)
        w = random_weights(rng, problem.rules)
        bumped = {r: min(1.0, v + rng.uniform(0.0, 0.3)) for r, v in w.items()}
        before = evaluator.evaluate(w)
        after = evaluator.evaluate(bumped)
        if np.any(after.values < before.values - 1e-12):
            violations += 1

    problem = sample_instance(random.Random(33))
    evaluator = Evaluator(problem.rules, problem.input)
    w = {rid: 0.5 for rid in problem.rules.ids()}
    base = evaluator.evaluate(w)
    for _ in range(20):
        direction = {rid: rng.uniform(-1.0, 1.0) for rid in w}
        last = math.inf
        for delta in (1e-3, 1e-5, 1e-7):
            moved = {rid: w[rid] + delta * direction[rid] for rid in w}
            result = evaluator.evaluate(moved)
            diff = float(np.abs(result.values - base.values)[base.values > 0.0].max(initial=0.0))
            if diff > 1e3 * delta or diff > last + 1e-12:
                violations += 1
            last = diff
    verdict("criterion 3: monotone weight bumps never lower values; "
            "perturbation effect vanishes with step size", violations == 0)


def test_criterion_4_oracle_equivalence_and_round_bound():
    rng = random.Random(4)
    checked = 0
    violations = 0
    while checked < 200:
        problem = sample_instance(rng)
        w = random_weights(rng, problem.rules)
        evaluator = Evaluator(problem.rules, problem.input)
        result = evaluator.evaluate(w)
        depth = evaluator.derivable_count
        try:
            for t in result.derived.facts():
                oracle = brute_force_value(problem.rules, w, problem.input, t, depth)
                if abs(oracle - result.value_of(t)) > 1e-12:
                    violations += 1
        except EnumerationOverflow:
            continue
        if result.rounds > evaluator.derivable_count + 1:
            violations += 1
        checked += 1
    verdict("criterion 4: evaluate matches tree enumeration at 1e-12 on 200 "
            "instances; fixpoint rounds <= derivable tuples + 1", violations == 0)


def test_criterion_5_gradient_matches_finite_differences():
    rng = random.Random(5)
    h = 1e-6
    checked = 0
    violations = 0
    while checked < 100:
        problem = sample_instance(rng)
        evaluator = Evaluator(problem.rules, problem.input)
        w = {rid: rng.uniform(0.1, 0.9) for rid in problem.rules.ids()}
        result = evaluator.evaluate(w)
        derived = list(result.derived.facts())
        if not derived:
            continue
        t = derived[rng.randrange(len(derived))]
        base_counts = result.provenance_of(t)
        analytic = gradient(result, w, t)
        tie_free = True
        fd = {}
        for rid in w:
            up = evaluator.evaluate({**w, rid: w[rid] + h})
            down = evaluator.evaluate({**w, rid: w[rid] - h})
            if (up.provenance_of(t) != base_counts
                    or down.provenance_of(t) != base_counts):
                tie_free = False
                break
            fd[rid] = (up.value_of(t) - down.value_of(t)) / (2.0 * h)
        if not tie_free:
            continue
        for rid in w:
            scale = max(abs(fd[rid]), abs(analytic[rid]), 1e-9)
            if abs(fd[rid] - analytic[rid]) / scale > 1e-5:
                violations += 1
        checked += 1
    verdict("criterion 5: provenance gradients match central differences "
            "(h=1e-6, rel err < 1e-5) at 100 tie-free points", violations == 0)


class _FixedDraws:
    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_criterion_6_annealing_constants_bit_exact():
    ok = temperature(0, 0.0001) == 1.0 / (0.0001 * math.log(5.0))
    w = np.array([0.7])
    ok = ok and mcmc_propose(w, _FixedDraws([0.0]))[0] == 0.0
    ok = ok and abs(mcmc_propose(w, _FixedDraws([0.5]))[0] - 0.7) < 1e-15
    ok = ok and mcmc_propose(w, _FixedDraws([1.0]))[0] == 1.0
    # branch continuity: both formulas meet at X = 0.5
    ok = ok and abs(0.7 * math.sqrt(2 * 0.5) - (1 - (1 - 0.7) * math.sqrt(2 * 0.5))) < 1e-15

    rng = random.Random(6)
    draws = 100_000
    accepts = sum(mcmc_accept(0.0, 2.0, 1.0, rng) for _ in range(draws))
    freq = accepts / draws
    ok = ok and abs(freq - math.exp(-2.0)) <= 0.01
    verdict("criterion 6: cooling schedule and proposal pinned; uphill "
            f"acceptance frequency {freq:.4f} within 0.01 of exp(-2)", ok)


def run_golden(name: str, budget: float, targets: list, tmp_path: Path,
               min_rules: int = 0) -> bool:
    from difflog.cli import main

    directory = PROBLEMS / name
    problem = parse_problem(directory)
    target_keys = {str(canonicalize(t)) for t in targets}
    candidate_keys = {str(canonicalize(r)) for r in problem.rules}
    ok = len(problem.rules) >= min_rules and target_keys <= candidate_keys

    out = tmp_path / name
    started = time.perf_counter()
    code = main(["synth", str(directory), "--seeds", "16",
                 "--timeout", str(budget), "--base-seed", "0", "--out", str(out)])
    elapsed = time.perf_counter() - started
    ok = ok and code == 0 and elapsed < budget

    solution = parse_rules((out / "solution.dl").read_text())
    ok = ok and check_solution(solution, problem.input, problem.labels).accepted

    heldout_dir = directory / "heldout"
    decls = parse_relations((heldout_dir / "relations.txt").read_text())
    heldout_facts = []
    for decl in decls.values():
        path = heldout_dir / f"{decl.name}.facts"
        if path.is_file():
            for line in path.read_text().splitlines():
                if line.strip():
                    heldout_facts.append(Fact(decl.name, tuple(line.split("\t"))))
    heldout = Database(heldout_facts)
    ok = ok and boolean_fixpoint(solution, heldout) == boolean_fixpoint(targets, heldout)
    return ok


def test_criterion_7_end_to_end_synthesis(tmp_path):
    samegen_targets = [
        parse_rule_line("samegen(x,y) :- parent(x,z), parent(y,z).", "t1"),
        parse_rule_line("samegen(x,u) :- parent(x,y), parent(u,v), samegen(y,v).", "t2"),
    ]
    andersen_targets = [
        parse_rule_line("pt(p,q) :- addr(p,q).", "t1"),
        parse_rule_line("pt(p,r) :- copy(p,q), pt(q,r).", "t2"),
        parse_rule_line("pt(p,s) :- load(p,q), pt(q,r), pt(r,s).", "t3"),
        parse_rule_line("pt(r,s) :- store(p,q), pt(p,r), pt(q,s).", "t4"),
    ]
    ok = run_golden("samegen", 120.0, samegen_targets, tmp_path, min_rules=80)
    ok = ok and run_golden("andersen", 300.0, andersen_targets, tmp_path)
    verdict("criterion 7: golden problems solve within budget; solutions pass "
            "the label check and match the target fixpoint on heldout data", ok)


def random_3cnf(rng: random.Random, n_vars: int, n_clauses: int):
    formula = []
    for _ in range(n_clauses):
        while True:
            clause = tuple(rng.choice([1, -1]) * rng.randint(1, n_vars)
                           for _ in range(3))
            if not any(-lit in clause for lit in clause):
                formula.append(clause)
                break
    return formula


def test_criterion_8_sat_encoder_soundness():
    started = time.perf_counter()
    literals = [1, -1, 2, -2]
    clauses = [c for c in itertools.combinations_with_replacement(literals, 3)
               if not any(-lit in c for lit in c)]
    formulas = [[c] for c in clauses]
    formulas += [[a, b] for a, b in itertools.combinations_with_replacement(clauses, 2)]

    rng = random.Random(8)
    for _ in range(100):
        formulas.append(random_3cnf(rng, rng.randint(1, 4), rng.randint(1, 4)))

    violations = 0
    for formula in formulas:
        if satisfiable(formula) != exists_solution(encode_3cnf(formula)):
            violations += 1
    elapsed = time.perf_counter() - started
    verdict(f"criterion 8: SAT agrees with encoded solvability on "
            f"{len(formulas)} formulas in {elapsed:.0f}s", violations == 0 and elapsed < 300.0)


def test_criterion_9_deterministic_reports(tmp_path):
    from difflog.cli import main

    directory = PROBLEMS / "samegen"
    reports = []
    for run in ("one", "two"):
        out = tmp_path / run
        main(["synth", str(directory), "--seeds", "8", "--timeout", "60",
              "--base-seed", "7", "--out", str(out)])
        reports.append((out / "report.tsv").read_bytes())
    verdict("criterion 9: report.tsv is byte-identical across reruns at a "
            "fixed base seed", reports[0] == reports[1])
