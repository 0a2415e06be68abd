#!/usr/bin/env python3
"""Regenerate the golden problem directories under problems/.

Each problem ships a committed candidate rule set produced by chain seeding
plus 2-step augmentation, filtered to connected join patterns so that
grounding stays desk-sized.  Labels are the complete target fixpoint:
every derivable output tuple is positive and every other output tuple over
the problem's constants is negative.  A heldout/ subdirectory carries a
second input database for semantic-equivalence checks.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from difflog.core import (Database, Fact, LabelSet, Rule, boolean_fixpoint, format_rule,
                          parse_relations, parse_rule_line, write_problem)
from difflog.rulegen import augment, canonicalize, chain_seeds

ROOT = Path(__file__).resolve().parents[1]


def connected(rule: Rule) -> bool:
    """Every body literal is join-linked to the head through shared variables."""
    groups = [set(a.variables()) for a in (rule.head, *rule.body)]
    linked, rest = groups[0].copy(), groups[1:]
    changed = True
    while changed and rest:
        changed = False
        for g in list(rest):
            if g & linked:
                linked |= g
                rest.remove(g)
                changed = True
    return not rest


def each_variable_twice(rule: Rule) -> bool:
    counts = Counter(v for a in (rule.head, *rule.body) for v in a.variables())
    return all(n == 2 for n in counts.values())


def candidate_rules(decls, keep) -> list[Rule]:
    seeds = chain_seeds(decls, 3)
    rules = augment(seeds, 2, decls, max_body_len=3, cap=200_000)
    kept = [r for r in rules if connected(r) and keep(r)]
    return [Rule(f"r{i}", r.head, r.body) for i, r in enumerate(kept, start=1)]


def write_problem_dir(name: str, relations_text: str, facts: list[Fact],
                      targets: list[Rule], rules: list[Rule],
                      heldout_facts: list[Fact]) -> None:
    keys = {(c.head, c.body) for c in map(canonicalize, rules)}
    missing = [format_rule(t) for t, c in zip(targets, map(canonicalize, targets))
               if (c.head, c.body) not in keys]
    if missing:
        raise SystemExit(f"{name}: target rules missing from candidates: {missing}")

    # Complete labeling: target fixpoint is positive, everything else negative.
    decls = parse_relations(relations_text)
    input_db = Database(facts)
    positives = frozenset(boolean_fixpoint(targets, input_db).facts())
    constants = sorted({c for f in facts for c in f.args})
    negatives = frozenset(Fact(decl.name, args) for decl in decls.values()
                          if decl.kind == "output"
                          for args in itertools.product(constants, repeat=decl.arity)) - positives
    directory = ROOT / "problems" / name
    write_problem(directory, decls, input_db, LabelSet(positives, negatives), rules)

    heldout = directory / "heldout"
    heldout.mkdir(exist_ok=True)
    (heldout / "relations.txt").write_text(relations_text)
    heldout_db = Database(heldout_facts)
    for rel in sorted({f.relation for f in heldout_facts}):
        lines = ["\t".join(f.args) for f in heldout_db.relation(rel)]
        (heldout / f"{rel}.facts").write_text("\n".join(lines) + "\n")

    print(f"{name}: {len(rules)} candidate rules, {len(positives)} positive / "
          f"{len(negatives)} negative labels, {len(facts)} input tuples")


def samegen() -> None:
    relations_text = "input parent 2\noutput samegen 2\n"
    decls = parse_relations(relations_text)
    targets = [
        parse_rule_line("r1: samegen(x,y) :- parent(x,z), parent(y,z).", 1),
        parse_rule_line("r2: samegen(x,u) :- parent(x,y), parent(u,v), samegen(y,v).", 2),
    ]
    rules = candidate_rules(
        decls, lambda r: each_variable_twice(r) or len(r.body) <= 2)
    facts = [Fact("parent", p) for p in [
        ("Will", "Noah"), ("Ann", "Noah"), ("Jim", "Emma"),
        ("Ava", "Emma"), ("Noah", "Liam"), ("Emma", "Liam")]]
    heldout_facts = [Fact("parent", p) for p in [
        ("a1", "b1"), ("a2", "b1"), ("a2", "b2"), ("a3", "b2"),
        ("b1", "c1"), ("b2", "c2"), ("c1", "d1"), ("c2", "d1")]]
    write_problem_dir("samegen", relations_text, facts, targets, rules, heldout_facts)


def andersen() -> None:
    relations_text = ("input addr 2\ninput copy 2\ninput load 2\n"
                      "input store 2\noutput pt 2\n")
    decls = parse_relations(relations_text)
    targets = [
        parse_rule_line("R1: pt(p,q) :- addr(p,q).", 1),
        parse_rule_line("R2: pt(p,r) :- copy(p,q), pt(q,r).", 2),
        parse_rule_line("R3: pt(p,s) :- load(p,q), pt(q,r), pt(r,s).", 3),
        parse_rule_line("R4: pt(r,s) :- store(p,q), pt(p,r), pt(q,s).", 4),
    ]
    rules = candidate_rules(decls, each_variable_twice)
    facts = [
        Fact("addr", ("p1", "h1")), Fact("addr", ("p2", "h2")),
        Fact("copy", ("p3", "p1")), Fact("copy", ("p5", "p3")),
        Fact("store", ("p2", "p1")), Fact("load", ("p4", "p2")),
    ]
    heldout_facts = [
        Fact("addr", ("a1", "o1")), Fact("addr", ("a2", "o2")),
        Fact("copy", ("c1", "a1")), Fact("store", ("a1", "a2")),
        Fact("load", ("l1", "a1")),
    ]
    write_problem_dir("andersen", relations_text, facts, targets, rules, heldout_facts)


if __name__ == "__main__":
    samegen()
    andersen()
