"""Independent output check for the benchmark.

A small naive Datalog reader and bottom-up evaluator that shares no code
with ``difflog``: it re-derives what a recovered ``solution.dl`` computes
over a problem's input facts and compares it with the labels.  It must stay
independent of ``difflog.core`` grounding, which is the code a faster
grounding kernel would replace.
"""

from __future__ import annotations

import re
from pathlib import Path

# (relation, args); an argument is ("v", name) for a variable or ("c", value)
Atom = tuple
Rule = tuple  # (rule_id, head_atom, body_atoms)
Fact = tuple  # (relation, constants)

_ATOM_RE = re.compile(r'\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)\s*')
_RULE_RE = re.compile(r'\s*(?:([A-Za-z_][A-Za-z0-9_]*)\s*:(?!-))?(.*):-(.*)\.\s*\Z')
_IDENT_RE = re.compile(r'[A-Za-z_][A-Za-z0-9_]*\Z')


class OracleError(Exception):
    """A file the oracle reads is malformed."""


def _parse_atom(text: str) -> Atom:
    m = _ATOM_RE.fullmatch(text)
    if m is None:
        raise OracleError(f"malformed atom {text!r}")
    args = []
    for raw in m.group(2).split(","):
        term = raw.strip()
        if len(term) >= 2 and term[0] == term[-1] == '"':
            args.append(("c", term[1:-1]))
        elif _IDENT_RE.match(term):
            kind = "v" if term[0].islower() or term[0] == "_" else "c"
            args.append((kind, term))
        else:
            raise OracleError(f"malformed argument {term!r} in {text!r}")
    return m.group(1), tuple(args)


def _split_atoms(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_program(text: str) -> list[Rule]:
    """Rules in the ``rules.dl`` / ``solution.dl`` syntax, one per line."""
    rules = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _RULE_RE.match(line)
        if m is None:
            raise OracleError(f"line {lineno}: malformed rule {line!r}")
        head = _parse_atom(m.group(2))
        body = tuple(_parse_atom(a) for a in _split_atoms(m.group(3)))
        body_vars = {t[1] for _, args in body for t in args if t[0] == "v"}
        if any(t[0] == "v" and t[1] not in body_vars for t in head[1]):
            raise OracleError(f"line {lineno}: head variable not bound in body")
        rules.append((m.group(1) or f"r{lineno}", head, body))
    return rules


def _rows(path: Path) -> list[list[str]]:
    if not path.is_file():
        return []
    return [[f.strip() for f in line.split("\t")]
            for line in path.read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def read_problem(directory: Path) -> tuple[set[Fact], set[Fact], set[Fact], list[Rule]]:
    """(input facts, positive labels, negative labels, candidate rules)."""
    facts: set[Fact] = set()
    for line in (directory / "relations.txt").read_text().splitlines():
        fields = line.split("#", 1)[0].split()
        if len(fields) == 3 and fields[0] == "input":
            for row in _rows(directory / f"{fields[1]}.facts"):
                facts.add((fields[1], tuple(row)))
    pos = {(row[0], tuple(row[1:])) for row in _rows(directory / "labels.pos")}
    neg = {(row[0], tuple(row[1:])) for row in _rows(directory / "labels.neg")}
    rules = parse_program((directory / "rules.dl").read_text())
    return facts, pos, neg, rules


def _matches(body: tuple, index: dict[str, list[tuple]], binding: dict):
    if not body:
        yield binding
        return
    relation, args = body[0]
    for row in index.get(relation, ()):
        if len(row) != len(args):
            continue
        new = dict(binding)
        for (kind, name), const in zip(args, row):
            if kind == "c":
                if name != const:
                    break
            elif new.setdefault(name, const) != const:
                break
        else:
            yield from _matches(body[1:], index, new)


def fixpoint(rules: list[Rule], facts: set[Fact]) -> set[Fact]:
    """All facts derivable from ``facts`` by ``rules`` (input facts included)."""
    known = set(facts)
    while True:
        index: dict[str, list[tuple]] = {}
        for relation, row in known:
            index.setdefault(relation, []).append(row)
        new = set()
        for _, (head_rel, head_args), body in rules:
            for b in _matches(body, index, {}):
                fact = (head_rel, tuple(b[n] if k == "v" else n for k, n in head_args))
                if fact not in known:
                    new.add(fact)
        if not new:
            return known
        known |= new


def label_errors(rules: list[Rule], facts: set[Fact], pos: set[Fact],
                 neg: set[Fact]) -> tuple[set[Fact], set[Fact]]:
    """(positive labels not derived, negative labels derived)."""
    derived = fixpoint(rules, facts)
    return pos - derived, neg & derived


SAMEGEN_TARGET = """\
base: samegen(x,y) :- parent(x,z), parent(y,z).
step: samegen(x,u) :- parent(x,y), parent(u,v), samegen(y,v).
"""


def self_test(samegen_dir: Path) -> list[str]:
    """Failures of the checker on programs whose verdict is known."""
    facts, pos, neg, _ = read_problem(samegen_dir)
    target = parse_program(SAMEGEN_TARGET)
    failures = []
    if label_errors(target, facts, pos, neg) != (set(), set()):
        failures.append("oracle rejects the golden samegen target program")
    missing, _ = label_errors(target[:1], facts, pos, neg)
    if not missing:
        failures.append("oracle accepts samegen without its recursive rule")
    spurious_rule = parse_program("bad: samegen(x,y) :- parent(x,y).")
    _, spurious = label_errors(target + spurious_rule, facts, pos, neg)
    if not spurious:
        failures.append("oracle accepts a program that derives a negative label")
    return failures
