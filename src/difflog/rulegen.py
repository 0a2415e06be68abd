"""Candidate-rule generation: chain-pattern seeds plus k-augmentation.

Seeds follow the chain shape r0(x,y) :- r1(x,t1), ..., rn(t_{n-1},y) over
binary relations.  Augmentation closes the seed set under up to k
single-step edits (relation swap, variable-occurrence rewrite, literal
insert, literal delete), keeping only well-formed rules and deduplicating
up to variable renaming.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import (OUTPUT, Atom, CandidateRuleSet, ProblemError, RelationDecl, Rule,
                   SemanticError, validate_rule)

DEFAULT_CAP = 50_000


class GenerationOverflow(ProblemError):
    """Candidate-set size exceeded the cap; retry with a smaller budget."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"candidate rules exceeded cap: {count} > {cap}")
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class GenConfig:
    max_body_len: int
    k: int
    allow_recursion: bool = True
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        if self.max_body_len < 1:
            raise ValueError("max_body_len must be >= 1")
        if self.k < 0:
            raise ValueError("k must be >= 0")


def _rename_by_first_occurrence(head: Atom, body: tuple[Atom, ...]) -> tuple[Atom, tuple[Atom, ...]]:
    seen: dict[str, str] = {}
    for atom in (head, *body):
        for v in atom.variables():
            seen.setdefault(v, f"x{len(seen)}")

    def rename(atom: Atom) -> Atom:
        return Atom(atom.relation,
                    tuple(seen[a] if isinstance(a, str) else a for a in atom.args))

    return rename(head), tuple(rename(a) for a in body)


def canonicalize(rule: Rule) -> Rule:
    """Canonical form up to variable renaming and body-literal reordering.

    Variables are renamed to x0, x1, ... by first occurrence, over the
    body permutation that minimizes the rule's structural key.
    """
    best = None
    for perm in itertools.permutations(rule.body):
        head, body = _rename_by_first_occurrence(rule.head, perm)
        key = _key(head, body)
        if best is None or key < best[0]:
            best = (key, head, body)
    return Rule(rule.id, best[1], best[2])


def _key(head: Atom, body: tuple[Atom, ...]):
    """A rule's structural key; on a canonical rule, its canonical key."""
    return (head.relation, head.args, tuple((a.relation, a.args) for a in body))


def _canonical_key(rule: Rule):
    c = canonicalize(rule)
    return _key(c.head, c.body)


def _is_well_formed(rule: Rule, decls: Mapping[str, RelationDecl]) -> bool:
    try:
        validate_rule(rule, decls)
    except SemanticError:
        return False
    return True


def chain_seeds(decls: Mapping[str, RelationDecl], max_body_len: int,
                allow_recursion: bool = True, cap: int = DEFAULT_CAP) -> list[Rule]:
    """All chain rules with binary heads and bodies up to the given length;
    GenerationOverflow as soon as there are more than ``cap`` of them."""
    if max_body_len < 1:
        return []
    heads = [d for d in decls.values() if d.kind == OUTPUT and d.arity == 2]
    links = [d.name for d in decls.values()
             if d.arity == 2 and (allow_recursion or d.kind != OUTPUT)]
    seen: dict[tuple, Rule] = {}
    for head in heads:
        for n in range(1, max_body_len + 1):
            for rels in itertools.product(links, repeat=n):
                vars_ = ["x"] + [f"t{i}" for i in range(1, n)] + ["y"]
                body = tuple(Atom(rel, (vars_[i], vars_[i + 1])) for i, rel in enumerate(rels))
                rule = canonicalize(Rule("seed", Atom(head.name, ("x", "y")), body))
                seen.setdefault(_key(rule.head, rule.body), rule)
                if len(seen) > cap:
                    raise GenerationOverflow(len(seen), cap)
    return [seen[k] for k in sorted(seen)]


def _single_edits(rule: Rule, decls: Mapping[str, RelationDecl],
                  max_body_len: int | None, allow_recursion: bool) -> Iterable[Rule]:
    atoms = (rule.head, *rule.body)
    variables = rule.variables()
    fresh_names = (f"f{i}" for i in itertools.count() if f"f{i}" not in variables)
    fresh = next(fresh_names)

    def rebuild(idx: int, new_atom: Atom) -> Rule:
        if idx == 0:
            return Rule(rule.id, new_atom, rule.body)
        body = list(rule.body)
        body[idx - 1] = new_atom
        return Rule(rule.id, rule.head, tuple(body))

    # (a) relation swap, same arity
    for idx, atom in enumerate(atoms):
        for decl in decls.values():
            if decl.name == atom.relation or decl.arity != len(atom.args):
                continue
            if idx == 0 and decl.kind != OUTPUT:
                continue
            if idx > 0 and not allow_recursion and decl.kind == OUTPUT:
                continue
            yield rebuild(idx, Atom(decl.name, atom.args))

    # (b) replace one variable occurrence with another variable or one fresh one
    for idx, atom in enumerate(atoms):
        for pos, term in enumerate(atom.args):
            if not isinstance(term, str):
                continue
            for replacement in (*variables, fresh):
                if replacement == term:
                    continue
                args = list(atom.args)
                args[pos] = replacement
                yield rebuild(idx, Atom(atom.relation, tuple(args)))

    # (c) insert a body literal with all-fresh variables
    if max_body_len is None or len(rule.body) < max_body_len:
        for decl in decls.values():
            if not allow_recursion and decl.kind == OUTPUT:
                continue
            fresh_args = tuple(itertools.islice(fresh_names, decl.arity))
            yield Rule(rule.id, rule.head, (*rule.body, Atom(decl.name, fresh_args)))

    # (d) delete a body literal
    if len(rule.body) > 1:
        for i in range(len(rule.body)):
            yield Rule(rule.id, rule.head, rule.body[:i] + rule.body[i + 1:])


def augment(seeds: Iterable[Rule], k: int, decls: Mapping[str, RelationDecl],
            max_body_len: int | None = None, allow_recursion: bool = True,
            cap: int = DEFAULT_CAP) -> list[Rule]:
    """Close the seed set under up to k single edits; well-formed rules only.
    GenerationOverflow as soon as there are more than ``cap`` rules, seeds
    included."""
    seen: dict[tuple, Rule] = {}
    frontier: list[Rule] = []
    for seed in seeds:
        c = canonicalize(seed)
        key = _key(c.head, c.body)
        if key not in seen and _is_well_formed(c, decls):
            seen[key] = c
            frontier.append(c)
            if len(seen) > cap:
                raise GenerationOverflow(len(seen), cap)
    for _ in range(k):
        next_frontier: list[Rule] = []
        for rule in frontier:
            for edited in _single_edits(rule, decls, max_body_len, allow_recursion):
                if not _is_well_formed(edited, decls):
                    continue
                c = canonicalize(edited)
                key = _key(c.head, c.body)
                if key in seen:
                    continue
                seen[key] = c
                next_frontier.append(c)
                if len(seen) > cap:
                    raise GenerationOverflow(len(seen), cap)
        if not next_frontier:
            break
        frontier = next_frontier
    return [seen[key] for key in sorted(seen)]


def generate(decls: Mapping[str, RelationDecl], config: GenConfig) -> CandidateRuleSet:
    """Chain seeds plus k-augmentation, with stable ids r1..rN in canonical order;
    ProblemError naming every output relation that no candidate rule derives."""
    seeds = chain_seeds(decls, config.max_body_len, config.allow_recursion, config.cap)
    rules = augment(seeds, config.k, decls, max_body_len=config.max_body_len,
                    allow_recursion=config.allow_recursion, cap=config.cap)
    heads = {r.head.relation for r in rules}
    underived = [d.name for d in decls.values() if d.kind == OUTPUT and d.name not in heads]
    if underived:
        raise ProblemError(f"no candidate rule derives output relation(s) {', '.join(underived)}")
    return CandidateRuleSet(
        Rule(f"r{i}", r.head, r.body) for i, r in enumerate(rules, start=1))
