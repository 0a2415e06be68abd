"""Candidate generation: chain seeds, edits, canonicalization, caps."""

import pytest

from difflog import rulegen
from difflog.core import (Atom, Rule, parse_relations, parse_rule_line,
                          parse_rules, validate_rule, write_rules)
from difflog.rulegen import (GenConfig, GenerationOverflow, augment,
                             canonicalize, chain_seeds, generate)

FAMILY = "input parent 2\noutput samegen 2\n"
ANDERSEN = "input addr 2\ninput copy 2\ninput load 2\ninput store 2\noutput pt 2\n"


def key(rule: Rule):
    c = canonicalize(rule)
    return (c.head.relation, c.head.args,
            tuple((a.relation, a.args) for a in c.body))


def test_canonicalize_renames_by_first_occurrence():
    rule = parse_rule_line("samegen(a,b) :- parent(a,c), parent(b,c).", "r")
    c = canonicalize(rule)
    assert c.head == Atom("samegen", ("x0", "x1"))
    assert all(v.startswith("x") for v in c.variables())


def test_canonicalize_invariant_under_renaming_and_reordering():
    r1 = parse_rule_line("samegen(x,u) :- parent(x,y), parent(u,v), samegen(y,v).", "a")
    r2 = parse_rule_line("samegen(p,q) :- samegen(s,t), parent(q,t), parent(p,s).", "b")
    assert key(r1) == key(r2)
    different = parse_rule_line("samegen(x,u) :- parent(x,y), parent(v,u), samegen(y,v).", "c")
    assert key(r1) != key(different)


def test_chain_seeds_shapes():
    decls = parse_relations(ANDERSEN)
    seeds = chain_seeds(decls, 1)
    keys = {key(r) for r in seeds}
    assert key(parse_rule_line("pt(p,q) :- addr(p,q).", "t")) in keys
    assert all(len(r.body) == 1 for r in seeds)
    longer = chain_seeds(decls, 3)
    assert key(parse_rule_line("pt(p,r) :- copy(p,q), pt(q,r).", "t")) in {key(r) for r in longer}
    assert all(len(r.body) <= 3 for r in longer)


def test_chain_seeds_recursion_flag():
    decls = parse_relations(FAMILY)
    with_rec = chain_seeds(decls, 2)
    without = chain_seeds(decls, 2, allow_recursion=False)
    assert key(parse_rule_line("samegen(x,y) :- samegen(x,t), samegen(t,y).", "t")) \
        in {key(r) for r in with_rec}
    assert all(a.relation != "samegen" for r in without for a in r.body)


def test_augment_includes_edit_kinds():
    decls = parse_relations(FAMILY)
    seeds = chain_seeds(decls, 2)
    once = augment(seeds, 1, decls, max_body_len=3)
    keys = {key(r) for r in once}
    # relation swap
    assert key(parse_rule_line("samegen(x,y) :- parent(x,t), samegen(t,y).", "t")) in keys
    # variable rewrite (head y replaced by x)
    assert key(parse_rule_line("samegen(x,x) :- parent(x,t), parent(t,y).", "t")) in keys
    # literal insert (fresh variables)
    assert key(parse_rule_line("samegen(x,y) :- parent(x,y), parent(f0,f1).", "t")) in keys
    # literal delete happens on longer bodies
    two = augment(chain_seeds(decls, 3), 1, decls, max_body_len=3)
    assert key(parse_rule_line("samegen(x,y) :- parent(x,y).", "t")) in {key(r) for r in two}


def test_augment_reaches_recursive_target_at_k2():
    decls = parse_relations(FAMILY)
    rules = augment(chain_seeds(decls, 3), 2, decls, max_body_len=3)
    target = parse_rule_line(
        "samegen(x,u) :- parent(x,y), parent(u,v), samegen(y,v).", "t")
    assert key(target) in {key(r) for r in rules}


def test_augment_only_well_formed(family_decls):
    rules = augment(chain_seeds(family_decls, 2), 1, family_decls, max_body_len=2)
    for rule in rules:
        validate_rule(rule, family_decls)


def test_augment_cap_raises():
    decls = parse_relations(ANDERSEN)
    with pytest.raises(GenerationOverflow) as err:
        augment(chain_seeds(decls, 3), 2, decls, max_body_len=3, cap=100)
    assert err.value.count > err.value.cap == 100


def test_generate_assigns_stable_ids():
    decls = parse_relations(FAMILY)
    config = GenConfig(max_body_len=2, k=1)
    first = generate(decls, config)
    second = generate(decls, config)
    assert first.ids() == second.ids() == [f"r{i}" for i in range(1, len(first) + 1)]
    assert [str(r) for r in first] == [str(r) for r in second]


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(max_body_len=0, k=1)
    with pytest.raises(ValueError):
        GenConfig(max_body_len=2, k=-1)


def test_emit_rules_round_trip(tmp_path):
    decls = parse_relations(FAMILY)
    rules = generate(decls, GenConfig(max_body_len=2, k=0))
    path = tmp_path / "rules.dl"
    write_rules(rules, path)
    parsed = parse_rules(path.read_text(), path)
    assert [r.id for r in parsed] == rules.ids()
    assert [str(r) for r in parsed] == [str(r) for r in rules]


def test_no_duplicates_modulo_renaming():
    decls = parse_relations(FAMILY)
    rules = augment(chain_seeds(decls, 2), 1, decls, max_body_len=3)
    keys = [key(r) for r in rules]
    assert len(keys) == len(set(keys))


def test_augment_returns_canonical_rules():
    # augment dedupes by the structural key of canonicalize's output, which is
    # the canonical key only because canonicalize is idempotent
    decls = parse_relations(ANDERSEN)
    rules = augment(chain_seeds(decls, 2), 1, decls, max_body_len=3)
    assert rules and all(canonicalize(r) == r for r in rules)


def test_augment_keeps_a_validation_bug(monkeypatch):
    def broken(rule, decls):
        raise TypeError("bug in validate_rule")

    monkeypatch.setattr(rulegen, "validate_rule", broken)
    decls = parse_relations(FAMILY)
    with pytest.raises(TypeError, match="bug in validate_rule"):
        augment(chain_seeds(decls, 2), 1, decls)
