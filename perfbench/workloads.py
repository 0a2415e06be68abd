"""Deterministic benchmark inputs.

Every generator takes the workload seed and writes problem directories in
the README layout itself (not through ``difflog.core.write_problem``), so a
change to the program's writers cannot change the inputs.

Shares below are from a traced run at seed 0 on a 2-core x86-64 VM.

- ``golden``: the committed ``problems/samegen`` and ``problems/andersen``
  with 16 seeds; large rule pools over tiny fact sets.  Grounding (Boolean
  fixpoint plus ``ground``) is 73% of synth time and search stops by iteration 4.
- ``family``: the 191-rule golden samegen pool over four parent forests,
  with complete labels from the two target rules.  Search runs for real
  and solves three of four; grounding is 43% of synth time and
  ``Evaluator.evaluate`` is 78% of search.
- ``sat3``: ``encode_3cnf`` of satisfiable random 3-CNF near clause/variable
  ratio 4.26.  Label-heavy, so loss plus gradient is 74% of search and
  grounding 12% of synth time.  It never solves: the sentinel ``error(a,a,a)`` and
  every derivable negative ``error`` tuple share rule ``r_e``, so the
  separation check never passes and the workload is fixed-work throughput.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from oracle import SAMEGEN_TARGET, fixpoint, parse_program

GOLDEN_DIRS = ("problems/samegen", "problems/andersen")
PROBLEM_FILES = ("relations.txt", "labels.pos", "labels.neg", "rules.dl")

SAT3_INSTANCES = 3
SAT3_VARIABLES = 5
SAT3_CLAUSES = 21


@dataclass(frozen=True)
class Instance:
    """One synth operation: a problem directory and the pinned search flags."""

    name: str
    directory: Path
    seeds: int
    base_seed: int
    max_iters: int

    def argv(self, out: Path) -> list[str]:
        return ["synth", str(self.directory), "--seeds", str(self.seeds),
                "--base-seed", str(self.base_seed), "--max-iters", str(self.max_iters),
                "--timeout", "3600", "--mcmc-period", "30", "--out", str(out)]


def _write_problem(directory: Path, relations: list[tuple[str, str, int]],
                   facts: set, pos: set, neg: set, rules_text: str) -> None:
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    (directory / "relations.txt").write_text(
        "".join(f"{kind} {name} {arity}\n" for kind, name, arity in relations))
    for kind, name, _ in relations:
        if kind == "input":
            rows = sorted(args for rel, args in facts if rel == name)
            (directory / f"{name}.facts").write_text("".join("\t".join(r) + "\n" for r in rows))
    for filename, tuples in (("labels.pos", pos), ("labels.neg", neg)):
        (directory / filename).write_text(
            "".join("\t".join((rel, *args)) + "\n" for rel, args in sorted(tuples)))
    (directory / "rules.dl").write_text(rules_text)


# Forest shapes, as the parent index of nodes 1..n.  The shapes are fixed
# and the seed draws only the constant names, in increasing order along the
# node numbering, so every seed sorts its facts alike and asks for exactly
# the same search.  With random shapes, or names in random order (which
# changes the evaluator's tie-breaks), the winning iteration swings between
# seeds by more than any bound a run-to-run comparison could use.  For the
# same reason every portfolio starts at base seed 0.
FAMILY_SHAPES = (
    (0, 0, 1, 1, 2),                 # solves at iteration 30
    (0, 1, 2, 2, 2),                 # solves at iteration 90
    (0, 1, 1, 2, 2),                 # solves at iteration 123
    (0, 0, 1, 2, 3),                 # does not solve within the budget
)


def forest(rng: random.Random, shape: tuple) -> list[tuple[str, str]]:
    """``parent(child, parent)`` pairs of ``shape`` over seed-drawn names."""
    names = sorted(rng.sample(range(100, 1000), len(shape) + 1))
    return [(f"p{names[i]}", f"p{names[p]}") for i, p in enumerate(shape, start=1)]


def complete_labels(rules_text: str, facts: set, relation: str,
                    arity: int) -> tuple[set, set]:
    """Positives are the target fixpoint; every other tuple is negative."""
    derived = fixpoint(parse_program(rules_text), facts)
    constants = sorted({c for _, args in facts for c in args})
    pos = {f for f in derived if f[0] == relation}
    neg = {(relation, args) for args in itertools.product(constants, repeat=arity)} - pos
    return pos, neg


def family(root: Path, work: Path, seed: int) -> list[Instance]:
    rng = random.Random(f"family:{seed}")
    pool = (root / "problems/samegen/rules.dl").read_text()
    instances = []
    for k, shape in enumerate(FAMILY_SHAPES):
        facts = {("parent", e) for e in forest(rng, shape)}
        pos, neg = complete_labels(SAMEGEN_TARGET, facts, "samegen", 2)
        directory = work / "inputs" / f"family{k}"
        _write_problem(directory, [("input", "parent", 2), ("output", "samegen", 2)],
                       facts, pos, neg, pool)
        instances.append(Instance(f"family{k}", directory, 2, 0, 200))
    return instances


def random_3cnf(rng: random.Random, n_vars: int, n_clauses: int) -> list[tuple[int, int, int]]:
    """A satisfiable random 3-CNF (three distinct variables per clause)."""
    while True:
        formula = [tuple(v if rng.random() < 0.5 else -v
                         for v in rng.sample(range(1, n_vars + 1), 3))
                   for _ in range(n_clauses)]
        for bits in itertools.product((False, True), repeat=n_vars):
            if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in formula):
                return formula


def isomorphic_copy(rng: random.Random, formula: list[tuple[int, ...]],
                    n_vars: int) -> list[tuple[int, ...]]:
    """The formula with variables permuted, signs flipped and clauses shuffled."""
    image = dict(zip(range(1, n_vars + 1), rng.sample(range(1, n_vars + 1), n_vars)))
    flip = {v: rng.choice((1, -1)) for v in image}
    copy = [tuple(flip[abs(l)] * (image[abs(l)] if l > 0 else -image[abs(l)]) for l in c)
            for c in formula]
    rng.shuffle(copy)
    return copy


def _format_atom(atom) -> str:
    args = ",".join(a if isinstance(a, str) else f'"{a.value}"' for a in atom.args)
    return f"{atom.relation}({args})"


def sat3(root: Path, work: Path, seed: int) -> list[Instance]:
    from difflog.testkit import encode_3cnf

    # The formulas are drawn once, from a fixed generator seed; the workload
    # seed draws an isomorphic copy of each.  Every seed then grounds the same
    # number of clauses and does the same work per iteration, where fresh
    # random formulas move the per-iteration cost by several percent.
    base = random.Random("sat3")
    rng = random.Random(f"sat3:{seed}")
    instances = []
    for k in range(SAT3_INSTANCES):
        formula = isomorphic_copy(rng, random_3cnf(base, SAT3_VARIABLES, SAT3_CLAUSES),
                                  SAT3_VARIABLES)
        problem = encode_3cnf(formula)
        relations = [(d.kind, d.name, d.arity) for d in problem.relations.values()]
        facts = {(f.relation, f.args) for f in problem.input.facts()}
        pos = {(f.relation, f.args) for f in problem.labels.positive}
        neg = {(f.relation, f.args) for f in problem.labels.negative}
        rules_text = "".join(
            f"{r.id}: {_format_atom(r.head)} :- {', '.join(map(_format_atom, r.body))}.\n"
            for r in problem.rules)
        directory = work / "inputs" / f"sat3_{k}"
        _write_problem(directory, relations, facts, pos, neg, rules_text)
        instances.append(Instance(f"sat3_{k}", directory, 2, 0, 40))
    return instances


def golden(root: Path, work: Path, seed: int) -> list[Instance]:
    return [Instance(Path(d).name, root / d, 16, 0, 1000) for d in GOLDEN_DIRS]


# workload name -> generator(root, work dir, seed) of its instances
GENERATORS = {"golden": golden, "family": family, "sat3": sat3}


def digest(instances: list[Instance]) -> str:
    """SHA-256 over every file ``synth`` reads, in a fixed order."""
    h = hashlib.sha256()
    for inst in instances:
        files = sorted({*PROBLEM_FILES, *(p.name for p in inst.directory.glob("*.facts"))})
        for name in files:
            path = inst.directory / name
            h.update(f"{inst.name}/{name}\0".encode())
            h.update(path.read_bytes() if path.is_file() else b"\1missing")
        h.update(" ".join(inst.argv(Path("-"))[2:]).encode())
    return h.hexdigest()
