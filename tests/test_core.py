"""Data model, parsing, grounding, and Boolean fixpoint tests."""

import functools
import re
import tempfile
from dataclasses import make_dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from difflog import core
from difflog.core import (Atom, CandidateRuleSet, Const, Database, Fact,
                          LabelSet, ParseError, ProblemError, RelationDecl, Rule,
                          SemanticError, boolean_fixpoint, check_solution, format_rule,
                          ground, parse_fact_lines, parse_label_lines, parse_problem,
                          parse_relations, parse_rule_line, parse_rules,
                          validate_rule, write_problem, write_rules)
from difflog.testkit import encode_3cnf, ground_clauses, parse_dimacs
from conftest import PARENT_PAIRS, make_family_rules
from strategies import SETTINGS, instances


def test_fact_ordering_and_str():
    a = Fact("edge", ("a", "b"))
    b = Fact("edge", ("a", "c"))
    assert a < b
    assert str(a) == "edge(a, b)"


# ``Fact`` as it was before it became a named tuple
ReferenceFact = make_dataclass(
    "Fact", [("relation", str), ("args", tuple)], frozen=True, order=True,
    namespace={"__str__": lambda self: f"{self.relation}({', '.join(self.args)})"})


@SETTINGS
@given(st.lists(st.tuples(st.sampled_from(["p", "q", "edge", "p_1"]),
                          st.lists(st.text(max_size=3), min_size=1, max_size=3).map(tuple)),
                max_size=20))
def test_fact_hashes_sorts_and_prints_like_the_dataclass_it_replaced(fields):
    facts = [Fact(*f) for f in fields]
    refs = [ReferenceFact(*f) for f in fields]
    assert [hash(f) for f in facts] == [hash(r) for r in refs]
    assert [str(f) for f in facts] == [str(r) for r in refs]
    assert [repr(f) for f in facts] == [repr(r) for r in refs]
    order = sorted(range(len(facts)), key=facts.__getitem__)
    assert order == sorted(range(len(refs)), key=refs.__getitem__)
    assert [tuple(f) for f in set(facts)] == [(r.relation, r.args) for r in set(refs)]
    assert all(f == tuple(f) == (f.relation, f.args) for f in facts)


def test_database_dedups_and_indexes():
    f = Fact("edge", ("a", "b"))
    db = Database([f, f, Fact("node", ("a",))])
    assert len(db) == 2
    assert db.relation("edge") == (f,)
    assert f in db
    assert Fact("edge", ("b", "a")) not in db


fact_lists = st.lists(st.builds(Fact, st.sampled_from(["p", "q", "r"]),
                                st.tuples(st.sampled_from("abc"), st.sampled_from("abc"))),
                      max_size=12)


@SETTINGS
@given(fact_lists, fact_lists)
def test_database_membership_matches_its_facts(facts, probes):
    """Probes include facts of relations the database does not hold."""
    db = Database(facts)
    held = set(db.facts())
    for f in [*facts, *probes]:
        assert (f in db) == (f in held)
    assert list(db.facts()) == sorted(held)
    assert db == Database(reversed(facts)) and hash(db) == hash(Database(reversed(facts)))


def test_database_union_and_equality():
    d1 = Database([Fact("p", ("a",))])
    d2 = Database([Fact("p", ("b",))])
    merged = d1.union(d2)
    assert len(merged) == 2
    assert merged == Database([Fact("p", ("b",)), Fact("p", ("a",))])
    assert hash(merged) == hash(Database([Fact("p", ("a",)), Fact("p", ("b",))]))


def test_labelset_rejects_overlap():
    t = Fact("out", ("a",))
    with pytest.raises(SemanticError):
        LabelSet(frozenset({t}), frozenset({t}))


def test_candidate_rule_set_unique_ids():
    r = Rule("r1", Atom("q", ("x",)), (Atom("p", ("x",)),))
    with pytest.raises(SemanticError):
        CandidateRuleSet([r, r])


def test_candidate_rule_set_subset():
    rules = make_family_rules()
    sub = rules.subset(["r2"])
    assert sub.ids() == ["r2"]
    with pytest.raises(SemanticError):
        rules.subset(["r9"])


def test_rule_variables_first_occurrence_order():
    rules = make_family_rules()
    assert rules["r2"].variables() == ["x", "u", "y", "v"]


def test_validate_rule_errors(family_decls):
    head = Atom("samegen", ("x", "y"))
    with pytest.raises(SemanticError, match="empty body"):
        validate_rule(Rule("r", head, ()), family_decls)
    with pytest.raises(SemanticError, match="undeclared"):
        validate_rule(Rule("r", head, (Atom("friend", ("x", "y")),)), family_decls)
    with pytest.raises(SemanticError, match="expects 2 args"):
        validate_rule(Rule("r", head, (Atom("parent", ("x",)),)), family_decls)
    with pytest.raises(SemanticError, match="not an output relation"):
        validate_rule(Rule("r", Atom("parent", ("x", "y")),
                           (Atom("parent", ("x", "y")),)), family_decls)
    with pytest.raises(SemanticError, match="head variable y not bound"):
        validate_rule(Rule("r", head, (Atom("parent", ("x", "z")),)), family_decls)


def test_ground_joins_on_shared_variables(family_input, family_rules):
    clauses = ground_clauses(ground([family_rules["r1"]], family_input))
    conclusions = {c.conclusion for c in clauses}
    assert Fact("samegen", ("Will", "Ann")) in conclusions
    assert Fact("samegen", ("Ann", "Will")) in conclusions
    assert Fact("samegen", ("Will", "Jim")) not in conclusions
    # reflexive instantiations are real clauses too
    assert Fact("samegen", ("Will", "Will")) in conclusions


def test_ground_handles_constants_in_rules(family_input, family_decls):
    rule = Rule("r", Atom("samegen", ("x", "x")),
                (Atom("parent", (Const("Will"), "x")),))
    validate_rule(rule, family_decls)
    clauses = ground_clauses(ground([rule], family_input))
    assert {c.conclusion for c in clauses} == {Fact("samegen", ("Noah", "Noah"))}


def test_boolean_fixpoint_family(family_input, family_rules):
    fixpoint = boolean_fixpoint(family_rules, family_input)
    derived = set(fixpoint.facts())
    assert len(derived) == 20
    assert Fact("samegen", ("Ann", "Jim")) in derived
    assert Fact("samegen", ("Noah", "Emma")) in derived
    assert Fact("samegen", ("Ava", "Liam")) not in derived
    assert Fact("samegen", ("Jim", "Emma")) not in derived
    # derived-only: input tuples are not repeated in the result
    assert Fact("parent", ("Will", "Noah")) not in derived


def test_check_solution_accepts_target(family_input, family_labels, family_rules):
    check = check_solution(family_rules, family_input, family_labels)
    assert check.accepted
    assert not check.missing and not check.spurious


def test_check_solution_reports_spurious(family_input, family_labels, family_rules):
    bad = Rule("r3", Atom("samegen", ("x", "y")), (Atom("parent", ("x", "y")),))
    check = check_solution([*family_rules, bad], family_input, family_labels)
    assert not check.accepted
    assert check.spurious == frozenset({Fact("samegen", ("Jim", "Emma"))})


def test_check_solution_reports_missing(family_input, family_labels, family_rules):
    check = check_solution([family_rules["r1"]], family_input, family_labels)
    assert not check.accepted
    assert check.missing == frozenset({Fact("samegen", ("Ann", "Jim"))})


def test_parse_rule_line_with_and_without_name():
    rule = parse_rule_line("t1: samegen(x,y) :- parent(x,z), parent(y,z).", "r1")
    assert rule.id == "t1"
    assert rule.head == Atom("samegen", ("x", "y"))
    assert len(rule.body) == 2
    anon = parse_rule_line("samegen(x,y) :- parent(x,y).", "r7")
    assert anon.id == "r7"


def test_parse_rule_capitalized_and_quoted_constants():
    rule = parse_rule_line('q(x) :- p(x, Will), p(x, "lower case").', "r1")
    assert rule.body[0].args == ("x", Const("Will"))
    assert rule.body[1].args == ("x", Const("lower case"))


def test_parse_rule_syntax_errors():
    with pytest.raises(ParseError):
        parse_rule_line("samegen(x,y)", "r1")
    with pytest.raises(ParseError):
        parse_rule_line("samegen(x,y) :- parent(x y).", "r1")
    with pytest.raises(ParseError):
        parse_rule_line("samegen(x,y) :- parent(x,y). extra", "r1")


_CHAR_TOKEN_RE = re.compile(r"""[ \t]*(?:(?P<id>[A-Za-z_][A-Za-z0-9_]*)
                                       |(?P<str>"[^"]*")
                                       |(?P<sym>:-|[(),.:]))""", re.VERBOSE)


def char_scan_tokens(text: str, path, lineno: int) -> list[tuple[str, str, int]]:
    """A per-character tokenizer: the reference of ``reference_tokens``."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos] in " \t":
            pos += 1
            continue
        if text[pos] == "#":
            break
        m = _CHAR_TOKEN_RE.match(text, pos)
        if m is None or m.start(m.lastgroup) != pos:
            raise ParseError(f"unexpected character {text[pos]!r}", path, lineno, pos + 1)
        tokens.append((m.lastgroup, m.group(m.lastgroup), pos + 1))
        pos = m.end()
    return tokens


_TOKEN_RE = re.compile(r"""(?P<id>[A-Za-z_][A-Za-z0-9_]*)
                           |(?P<sym>:-|[(),.:])
                           |(?P<str>"[^"]*")
                           |(?P<space>[ \t]+)
                           |(?P<comment>\#.*)
                           |(?P<bad>.)""", re.VERBOSE | re.DOTALL)


def reference_tokens(text: str, path, lineno: int) -> list[tuple[str, str, int]]:
    """The tokens of one line, by one scan; a ``#`` outside a quoted constant
    starts a comment."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "comment":
            break
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", path, lineno, m.start() + 1)
        tokens.append((kind, m.group(), m.start() + 1))
    return tokens


class ReferenceParser:
    """A token-at-a-time parser of one rule line: the reference of
    ``parse_rule_line``, which reads each atom with one pattern."""

    def __init__(self, tokens, path, lineno):
        self.tokens = tokens
        self.path = path
        self.lineno = lineno
        self.i = 0
        # a line that ends too early is reported just past its last token
        self.end = tokens[-1][2] + len(tokens[-1][1]) if tokens else 1

    def unexpected_end(self) -> ParseError:
        return ParseError("unexpected end of rule", self.path, self.lineno, self.end)

    def peek(self, offset=0):
        j = self.i + offset
        return self.tokens[j] if j < len(self.tokens) else (None, None, None)

    def take(self, kind=None, value=None):
        k, v, col = self.peek()
        if k is None:
            raise self.unexpected_end()
        if (kind is not None and k != kind) or (value is not None and v != value):
            raise ParseError(f"unexpected token {v!r}", self.path, self.lineno, col)
        self.i += 1
        return v

    def atom(self) -> Atom:
        name = self.take("id")
        self.take("sym", "(")
        args: list = []
        while True:
            k, v, col = self.peek()
            if k == "id":
                self.take()
                args.append(v if v[0].islower() or v[0] == "_" else Const(v))
            elif k == "str":
                self.take()
                args.append(Const(v[1:-1]))
            elif k is None:
                raise self.unexpected_end()
            else:
                raise ParseError(f"expected argument, got {v!r}", self.path, self.lineno, col)
            if self.peek()[1] == ",":
                self.take()
            else:
                break
        self.take("sym", ")")
        return Atom(name, tuple(args))

    def rule(self, default_id: str) -> Rule:
        rule_id = default_id
        if self.peek()[0] == "id" and self.peek(1)[1] == ":":
            rule_id = self.take("id")
            self.take("sym", ":")
        head = self.atom()
        self.take("sym", ":-")
        body = [self.atom()]
        while self.peek()[1] == ",":
            self.take()
            body.append(self.atom())
        self.take("sym", ".")
        if self.peek()[0] is not None:
            raise ParseError("trailing tokens after rule", self.path, self.lineno, self.peek()[2])
        return Rule(rule_id, head, tuple(body))


def outcome(parse, text: str):
    """The rule, or the error's message, line and column."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


def reference_outcomes(text: str) -> list:
    """The reference parser's outcome over each reference tokenizer."""
    return [outcome(lambda t: ReferenceParser(tokenize(t, "rules.dl", 7), "rules.dl", 7)
                    .rule("r7"), text)
            for tokenize in (reference_tokens, char_scan_tokens)]


def assert_parses_like_the_reference(text: str) -> None:
    got = outcome(lambda t: parse_rule_line(t, "r7", "rules.dl", 7), text)
    assert reference_outcomes(text) == [got, got]


@pytest.mark.parametrize("name", ["samegen", "andersen"])
def test_tokenizer_matches_per_character_scan_on_golden_rules(name):
    """Named for the tokenizer it first compared; it now compares the parser."""
    path = Path(__file__).resolve().parents[1] / "problems" / name / "rules.dl"
    lines = path.read_text().splitlines()
    assert len(lines) > 100
    rules = []
    for lineno, line in enumerate(lines, start=1):
        tokens = reference_tokens(line, path, lineno)
        assert tokens == char_scan_tokens(line, path, lineno)
        if tokens:
            rules.append(ReferenceParser(tokens, path, lineno).rule(f"r{lineno}"))
    assert parse_rules(path.read_text(), path) == rules


@pytest.mark.parametrize("text", [
    "", "   \t ", "# only a comment", 'q(x) :- p(x, "a # b"). # tail',
    "\tr1:\tq(x)  :-p(x),p(y).", 'q(x) :- p(x, "open', "q(x) :- p(x) ; p(y).",
    "q(x) :- p(x\u00a0y).", "q(x) :- p(x).\nq(y)", "q(x) :- p(x). #\n!", "  !", "q-1",
    "p(x,)", "p(,x)", "q()", "r1: r2: q(x) :- p(x).", "q(x) :- p(x) p(y).", "p(x)).",
    "p(x)..", "q(x) :- p(x)..", "r1 :- p(x).", 'q(x) :- p("ab', "q(x) :- p(", "q(x) :- p(x",
    "q(x) :-", "r1:", "q(x) : - p(x).", 'q(x) :- p(x) "a#b" !', 'q(x) :- p(x) "a" # !',
    "q(x) :- p(x y).", "q(x) :- p(x), .", 'q(X, _y) :- p(X, _y, "", "a,b").',
    "q(x) :- p(x1, 1).", 'q(x) :- p("a"b).', "q (x) :- p (x , y) .\t# c",
    "q(x) :- p(x, # c", 'q(x) :- p("a ",\t', "q(x) :- p(x) ,  ",
])
def test_tokenizer_matches_per_character_scan_on_edge_lines(text):
    """Named for the tokenizer it first compared; it now compares the parser."""
    assert_parses_like_the_reference(text)


_args = st.lists(st.one_of(st.sampled_from(["x", "y", "_z", Const("Will")]),
                           st.text(alphabet=list("ab ,#():-.\t"), max_size=6).map(Const)),
                 min_size=1, max_size=3)


@SETTINGS
@given(_args, _args)
def test_quoted_constants_with_separators_round_trip(head_args, body_args):
    rule = Rule("r1", Atom("q", tuple(head_args)), (Atom("p", tuple(body_args)), Atom("p", ("x",))))
    line = format_rule(rule)
    assert parse_rule_line(line, "fallback") == rule
    assert_parses_like_the_reference(line)


@pytest.mark.parametrize("text, column", [
    ("q(x) :- p(", 11), ("q(x) :- p(x", 12), ("q(x) :- p(x,  ", 13), ("q(x) :- p( # c", 11),
    ("q(x) :-\t", 8), ("r1:", 4), ("", 1),
])
def test_a_line_that_ends_early_names_the_column_past_its_end(text, column):
    with pytest.raises(ParseError) as info:
        parse_rule_line(text, "r1", "rules.dl", 3)
    assert str(info.value) == f"rules.dl:3:{column}: unexpected end of rule"
    assert (info.value.line, info.value.column) == (3, column)


def test_parse_error_names_the_bad_character_and_its_column():
    with pytest.raises(ParseError) as info:
        parse_rules("r1: q(x) :- p(x).\n  q(x) :- p(x) ; p(y).\n", "rules.dl")
    assert str(info.value) == "rules.dl:2:16: unexpected character ';'"
    assert (info.value.line, info.value.column) == (2, 16)


def per_line_outcome(text: str):
    """``parse_rules``' result by ``parse_rule_line`` on each line alone, or
    the error's message, line and column."""
    rules = {}
    try:
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.strip(" \t") and not line.lstrip(" \t").startswith("#"):
                rule = parse_rule_line(line, f"r{lineno}", "rules.dl", lineno)
                if rule.id in rules:
                    raise ParseError(f"duplicate rule id {rule.id}", "rules.dl", lineno)
                rules[rule.id] = rule
    except ParseError as exc:
        return str(exc), exc.line, exc.column
    return list(rules.values())


def test_parse_rules_reads_a_repeated_atom_like_each_line_alone():
    """``parse_rules`` reads each distinct atom text once per file: an atom
    written with other spacing, and ``p(A)`` next to ``p("A")``, read as the
    lines do alone, and a bad line after them keeps its message and column."""
    text = ("q(x) :- p(x,y), e(y).\n"
            "q(x) :- p( x ,\ty ) ,e(y).\n"
            "q(x) :- p(A), e(x).\n"
            'q(x) :- p("A"), e(x).\n')
    rules = parse_rules(text, "rules.dl")
    assert rules == per_line_outcome(text)
    assert rules[0].body == rules[1].body
    assert rules[2].body[0] == rules[3].body[0] == Atom("p", (Const("A"),))
    for bad in ("q(x) :- p(x,y)), e(y).", "q(x) :- p(A), e(x) p(A).", 'q(x) :- p("A",), e(x).'):
        assert outcome(lambda t: parse_rules(t, "rules.dl"), text + bad) == \
            per_line_outcome(text + bad) == \
            outcome(lambda t: parse_rule_line(t, "r5", "rules.dl", 5), bad)


@functools.cache
def golden_rule_lines() -> list[str]:
    problems = Path(__file__).resolve().parents[1] / "problems"
    return [line for name in ("samegen", "andersen")
            for line in (problems / name / "rules.dl").read_text().splitlines()]


@st.composite
def mutated_rule_files(draw) -> str:
    """Lines of the golden pools, some unnamed, some with a character put in
    or taken out, with blanks and comments between them."""
    golden = golden_rule_lines()
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        line = draw(st.sampled_from(golden + ["", "  # note"]))
        if draw(st.booleans()):
            line = line.split(": ", 1)[-1]
        for _ in range(draw(st.sampled_from((0,) * 8 + (1, 2)))):
            at = draw(st.integers(0, len(line)))
            if draw(st.booleans()):
                line = line[:at] + draw(st.sampled_from(list(' \t,()":-.#xA_!'))) + line[at:]
            else:
                line = line[:at] + line[at + 1:]
        lines.append(line)
    return "\n".join(lines)


@SETTINGS
@given(mutated_rule_files())
def test_parse_rules_matches_each_line_alone_on_mutated_golden_files(text):
    assert outcome(lambda t: parse_rules(t, "rules.dl"), text) == per_line_outcome(text)


def test_parse_rules_skips_comments_and_blanks():
    text = "# header\n\nr1: q(x) :- p(x).\nq(x) :- p(x), p(x).  # inline\n"
    rules = parse_rules(text)
    assert [r.id for r in rules] == ["r1", "r4"]


def test_format_rule_round_trip(family_rules):
    for rule in family_rules:
        again = parse_rule_line(format_rule(rule), "fallback")
        assert again == rule


@SETTINGS
@given(instances())
def test_format_rule_round_trip_random(problem):
    for rule in problem.rules:
        assert parse_rule_line(format_rule(rule), "fallback") == rule
        assert parse_rule_line(str(rule), rule.id) == rule


def test_parse_relations_and_errors():
    decls = parse_relations("# comment\ninput parent 2\noutput samegen 2\n")
    assert decls["parent"].kind == "input"
    assert decls["samegen"].arity == 2
    for bad in ("parent 2", "input parent two", "inout parent 2",
                "input parent 0", "input parent 2\ninput parent 2"):
        with pytest.raises(ParseError):
            parse_relations(bad)


def test_parse_fact_lines_arity_check(family_decls):
    facts = parse_fact_lines("Will\tNoah\n# c\n\nAnn\tNoah\n", family_decls["parent"])
    assert len(facts) == 2
    with pytest.raises(ParseError):
        parse_fact_lines("Will\n", family_decls["parent"])


def reference_fields(text: str):
    """Each line's stripped tab-separated fields, a line at a time, skipping
    blanks and comments: the readers' result on any text."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, [f.strip() for f in line.split("\t")]


def reference_fact(decl: RelationDecl, fields: list[str], lineno: int) -> Fact:
    if len(fields) != decl.arity:
        raise ParseError(f"{decl.name} has arity {decl.arity}, got {len(fields)} fields",
                         "f.txt", lineno)
    return Fact(decl.name, tuple(fields))


def reference_fact_lines(text: str, decl: RelationDecl) -> list[Fact]:
    return [reference_fact(decl, fields, lineno) for lineno, fields in reference_fields(text)]


def reference_label_lines(text: str, decls) -> list[Fact]:
    facts = []
    for lineno, (name, *fields) in reference_fields(text):
        decl = decls.get(name)
        if decl is None:
            raise ParseError(f"undeclared relation {name}", "f.txt", lineno)
        if decl.kind != "output":
            raise ParseError(f"labeled relation {name} is not an output relation", "f.txt", lineno)
        facts.append(reference_fact(decl, fields, lineno))
    return facts


LABEL_DECLS = parse_relations("input parent 2\noutput samegen 2\noutput tri 3\noutput one 1\n")
_NOISE = "ab\t\n #\r\x0b\x1c\x85é"


@st.composite
def tuple_files(draw, names: list[str], slips: bool) -> str:
    """Lines of tab-separated fields, led by one of ``names`` if there are
    any, and a final newline or not.  With ``slips``, a line has a field too
    many or too few now and then, and blank, tab-only and noisy lines stand
    between them."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "noise"])) if slips else "row"
        if kind == "row":
            name = draw(st.sampled_from(names)) if names else None
            arity = LABEL_DECLS[name].arity if name in LABEL_DECLS else 2
            if slips:
                arity += draw(st.sampled_from([0] * 8 + [-1, 1]))
            fields = draw(st.lists(st.text(alphabet="ab", min_size=1, max_size=3),
                                   min_size=max(arity, 0), max_size=max(arity, 0)))
            line = "\t".join(([name] if name else []) + fields)
        elif kind == "blank":
            line = draw(st.text(alphabet="\t", max_size=2))
        else:
            line = draw(st.text(alphabet=_NOISE, max_size=8))
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _texts(names: list[str], good: list[str]):
    """Fact or label files: led by ``names`` with slips, by ``good`` without,
    or any text over letters, tabs and newlines, or over noise too."""
    return st.one_of(tuple_files(names, True), tuple_files(good, False),
                     st.text(alphabet="ab\t\n", max_size=20), st.text(alphabet=_NOISE, max_size=20))


def assert_reads_like_the_reference(read, reference, text: str) -> None:
    """The same facts, each a ``Fact`` that shares its declaration's name, or
    the same error."""
    got = outcome(read, text)
    assert got == outcome(reference, text)
    if isinstance(got, list):
        assert all(type(f) is Fact and f.relation is LABEL_DECLS[f.relation].name for f in got)


@SETTINGS
@given(_texts([], []))
@example("a\tb\n\t\nc\td\n")
@example("\t\na\tb")
@example("a\tb\n\n")
@example("a\tb\n\x1fc\td\n")
@example("a\tb\n#c\td")
@example("\xe9\tb\n")
def test_fact_reader_matches_the_per_line_reference(text):
    decl = LABEL_DECLS["parent"]
    assert_reads_like_the_reference(lambda t: parse_fact_lines(t, decl, "f.txt"),
                                    lambda t: reference_fact_lines(t, decl), text)


@SETTINGS
@given(_texts(["samegen"] * 3 + ["tri", "one"] * 2 + ["parent", "zz"], ["samegen", "tri", "one"]))
@example("one\ta\n\t\t\none\tb")
@example("one\ta\nsamegen\ta\tb\none\tb\ntri\ta\tb\tc\n")
def test_label_reader_matches_the_per_line_reference(text):
    assert_reads_like_the_reference(lambda t: parse_label_lines(t, LABEL_DECLS, "f.txt"),
                                    lambda t: reference_label_lines(t, LABEL_DECLS), text)


@pytest.mark.parametrize("bad, error", [
    ("samegen\ta", "f.txt:3: samegen has arity 2, got 1 fields"),
    ("samegen\ta\tb\tc", "f.txt:3: samegen has arity 2, got 3 fields"),
    ("tri\ta\tb", "f.txt:3: tri has arity 3, got 2 fields"),
    ("zz\ta\tb", "f.txt:3: undeclared relation zz"),
    ("parent\ta\tb", "f.txt:3: labeled relation parent is not an output relation"),
])
def test_a_bad_line_in_the_middle_of_a_clean_file_is_named(bad, error):
    good = ["samegen\ta\tb", "samegen\tb\tc", "samegen\tc\td", "samegen\td\te"]
    text = "\n".join([*good[:2], bad, *good[2:]]) + "\n"
    with pytest.raises(ParseError) as info:
        parse_label_lines(text, LABEL_DECLS, "f.txt")
    assert str(info.value) == error
    facts = "".join(line.split("\t", 1)[1] + "\n" for line in [*good[:2], bad, *good[2:]])
    assert outcome(lambda t: parse_fact_lines(t, LABEL_DECLS["parent"], "f.txt"), facts) == \
        outcome(lambda t: reference_fact_lines(t, LABEL_DECLS["parent"]), facts)


def refuse_per_line_scan(text):
    raise AssertionError("read a line at a time")


@pytest.mark.parametrize("name", ["samegen", "andersen"])
def test_golden_problems_are_read_a_file_at_a_time(name, monkeypatch):
    directory = Path(__file__).resolve().parents[1] / "problems" / name
    problem = parse_problem(directory)
    monkeypatch.setattr(core, "_rows", refuse_per_line_scan)
    again = parse_problem(directory)
    assert (again.input, again.labels) == (problem.input, problem.labels)
    assert len(again.input) and again.labels.positive and again.labels.negative


def test_encoded_3cnf_is_read_a_file_at_a_time(tmp_path, monkeypatch):
    """Its labels.pos holds labels of arity 1 and 3."""
    path = Path(__file__).resolve().parent / "data" / "synth" / "cnf4" / "formula.cnf"
    problem = encode_3cnf(parse_dimacs(path.read_text()))
    write_problem(tmp_path, problem.relations, problem.input, problem.labels, problem.rules)
    monkeypatch.setattr(core, "_rows", refuse_per_line_scan)
    again = parse_problem(tmp_path)
    assert (again.input, again.labels) == (problem.input, problem.labels)


def test_a_byte_order_mark_is_not_read_as_data(tmp_path, family_problem):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    write_problem(plain, family_problem.relations, family_problem.input,
                  family_problem.labels, family_problem.rules)
    marked.mkdir()
    for path in plain.iterdir():
        (marked / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert sorted(p.name for p in marked.iterdir()) == [
        "labels.neg", "labels.pos", "parent.facts", "relations.txt", "rules.dl"]
    got, want = parse_problem(marked), parse_problem(plain)
    assert got.relations == want.relations
    assert got.input == want.input == family_problem.input
    assert got.labels == want.labels
    assert got.rules.rules == want.rules.rules


def test_problem_round_trip(tmp_path, family_problem):
    write_problem(tmp_path, family_problem.relations, family_problem.input,
                  family_problem.labels, family_problem.rules)
    loaded = parse_problem(tmp_path)
    assert loaded.input == family_problem.input
    assert loaded.labels == family_problem.labels
    assert loaded.rules.ids() == family_problem.rules.ids()
    assert loaded.relations == family_problem.relations


@SETTINGS
@given(instances())
def test_problem_round_trip_random(problem):
    with tempfile.TemporaryDirectory() as directory:
        write_problem(directory, problem.relations, problem.input, problem.labels,
                      problem.rules)
        loaded = parse_problem(directory)
    assert loaded.relations == problem.relations
    assert loaded.input == problem.input
    assert loaded.labels == problem.labels
    assert loaded.rules.rules == problem.rules.rules


def test_rules_with_hash_in_constants_round_trip(tmp_path, family_problem):
    rules = [Rule("c1", Atom("samegen", ("x", Const("a#b"))),
                  (Atom("parent", ("x", Const("#"))),)),
             Rule("c2", Atom("samegen", ("x", "y")),
                  (Atom("parent", ("x", Const("# not a comment"))), Atom("parent", ("y", "x"))))]
    write_problem(tmp_path, family_problem.relations, family_problem.input,
                  family_problem.labels, rules)
    assert parse_problem(tmp_path).rules.rules == tuple(rules)
    # a # after the rule still starts a comment, also when it holds a quote
    (tmp_path / "rules.dl").write_text(
        '# candidate rules\nc3: samegen(x,y) :- parent(x,"#z"), parent(y,"#z").  # "#z" holds\n')
    assert parse_problem(tmp_path).rules.rules == (
        Rule("c3", Atom("samegen", ("x", "y")),
             (Atom("parent", ("x", Const("#z"))), Atom("parent", ("y", Const("#z"))))),)


@pytest.mark.parametrize("fact", [
    Fact("parent", ("#a", "b")), Fact("parent", (" a", "b")), Fact("parent", ("a", "b\t")),
    Fact("parent", ("a\tb", "c")), Fact("parent", ("a\nb", "c")), Fact("parent", ("a\x85b", "c")),
    Fact("parent", ("", "#b")), Fact("parent", ("", "")),
    Fact("samegen", (" a", "b")), Fact("samegen", ("a", "b\n")), Fact("samegen", ("a\tb", "c")),
])
def test_write_problem_refuses_a_tuple_that_reads_back_differently(tmp_path, family_decls, fact):
    facts, labels = ([fact], ()) if fact.relation == "parent" else ((), [fact])
    with pytest.raises(ProblemError, match=re.escape(f"cannot write {fact!r}")):
        write_problem(tmp_path / "p", family_decls, Database(facts),
                      LabelSet(frozenset(labels), frozenset()), make_family_rules())
    assert not (tmp_path / "p").exists()


def test_write_problem_refuses_an_input_fact_of_a_relation_not_declared_as_input(tmp_path):
    decls = parse_relations("input p 1\noutput q 1\n")
    facts = Database([Fact("p", ("a",)), Fact("q", ("b",)), Fact("z", ("c",))])
    rules = [Rule("r1", Atom("q", ("x",)), (Atom("p", ("x",)),))]
    with pytest.raises(ProblemError, match=re.escape(
            "cannot write Fact(relation='q', args=('b',)): q is not declared as an input")):
        write_problem(tmp_path / "p", decls, facts, LabelSet(frozenset(), frozenset()), rules)
    with pytest.raises(ProblemError, match=re.escape("z is not declared as an input")):
        write_problem(tmp_path / "p", decls, Database([Fact("p", ("a",)), Fact("z", ("c",))]),
                      LabelSet(frozenset(), frozenset()), rules)
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("rule", [
    Rule("r1", Atom("samegen", ("X", "y")), (Atom("parent", ("X", "y")),)),
    Rule("r1", Atom("samegen", ("x", Const('a"b'))), (Atom("parent", ("x", "x")),)),
    Rule("r 1", Atom("samegen", ("x", "x")), (Atom("parent", ("x", "x")),)),
])
def test_writers_refuse_a_rule_that_reads_back_differently(tmp_path, family_problem, rule):
    with pytest.raises(ProblemError, match=re.escape(f"cannot write {rule!r}")):
        write_rules([rule], tmp_path / "rules.dl")
    with pytest.raises(ProblemError, match=re.escape(f"cannot write {rule!r}")):
        write_problem(tmp_path / "p", family_problem.relations, family_problem.input,
                      family_problem.labels, [rule])
    assert not (tmp_path / "rules.dl").exists() and not (tmp_path / "p").exists()


def reference_lines(items, to_line, read) -> list[str]:
    """The writers' check, one line at a time."""
    lines = []
    for item in items:
        line = to_line(item)
        try:
            same = read(line) == [item]
        except ParseError:
            same = False
        if not same:
            raise ProblemError(f"cannot write {item!r}: its line {line!r} reads back differently")
        lines.append(line)
    return lines


def write_outcome(check, items, to_line, read):
    try:
        return check(items, to_line, read)
    except ProblemError as exc:
        return str(exc)


@st.composite
def written_tuples(draw) -> list[tuple[str, list[str]]]:
    """(relation, fields) pairs.  A pair has as many fields as its relation's
    arity (2 if undeclared), now and then one more or less.  In about half
    the lists a field is now and then noisy."""
    noisy = draw(st.booleans())
    tuples = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(["samegen", "tri", "one"] * 2 + ["parent", "zz"]))
        arity = LABEL_DECLS[name].arity if name in LABEL_DECLS else 2
        arity = max(1, arity + draw(st.sampled_from([0] * 8 + [-1, 1])))
        field = st.text(alphabet="ab", min_size=1, max_size=3)
        if noisy:
            field = st.one_of(*[field] * 4, st.text(alphabet=_NOISE + '#"', max_size=3))
        tuples.append((name, draw(st.lists(field, min_size=arity, max_size=arity))))
    return tuples


@SETTINGS
@given(written_tuples(), st.lists(st.tuples(st.sampled_from(["r1", "r2", "r 3"]), _args), max_size=4))
def test_writers_check_lines_together_like_one_at_a_time(tuples, rules):
    """The writers read their lines back as one text first; they refuse the
    same item, or accept the same lines, as a check of each line alone."""
    facts = [Fact("parent", tuple(args)) for _, args in tuples]
    labels = [Fact(name, tuple(args)) for name, args in tuples]
    rule_list = [Rule(i, Atom("q", tuple(args)), (Atom("p", ("x",)),)) for i, args in rules]
    for items, to_line, read in (
            (facts, lambda f: "\t".join(f.args),
             lambda t: parse_fact_lines(t, LABEL_DECLS["parent"])),
            (labels, lambda f: "\t".join((f.relation, *f.args)),
             lambda t: parse_label_lines(t, LABEL_DECLS)),
            (rule_list, format_rule, parse_rules)):
        assert write_outcome(core._lines, items, to_line, read) == \
            write_outcome(reference_lines, items, to_line, read)


def test_duplicate_rule_id_names_its_line(tmp_path, family_problem):
    write_problem(tmp_path, family_problem.relations, family_problem.input,
                  family_problem.labels, ())
    (tmp_path / "rules.dl").write_text(
        "r3: samegen(x,y) :- parent(x,y).\n\nsamegen(x,x) :- parent(x,x).\n")
    with pytest.raises(ParseError) as info:
        parse_problem(tmp_path)
    assert str(info.value) == f"{tmp_path / 'rules.dl'}:3: duplicate rule id r3"


def test_parse_problem_rejects_stray_facts(tmp_path, family_problem):
    write_problem(tmp_path, family_problem.relations, family_problem.input,
                  family_problem.labels, family_problem.rules)
    (tmp_path / "mystery.facts").write_text("a\tb\n")
    with pytest.raises(SemanticError, match="undeclared relation mystery"):
        parse_problem(tmp_path)


def test_parse_problem_missing_pieces(tmp_path):
    with pytest.raises(Exception, match="relations.txt"):
        parse_problem(tmp_path)
    (tmp_path / "relations.txt").write_text("input p 1\noutput q 1\n")
    with pytest.raises(Exception, match="rules.dl"):
        parse_problem(tmp_path)


def test_parse_problem_rejects_labels_on_input_relations(tmp_path):
    (tmp_path / "relations.txt").write_text("input p 1\noutput q 1\n")
    (tmp_path / "rules.dl").write_text("q(x) :- p(x).\n")
    (tmp_path / "labels.pos").write_text("p\ta\n")
    with pytest.raises(ParseError, match="not an output relation"):
        parse_problem(tmp_path)


def test_fixpoint_matches_on_parsed_problem(tmp_path, family_problem):
    write_problem(tmp_path, family_problem.relations, family_problem.input,
                  family_problem.labels, family_problem.rules)
    loaded = parse_problem(tmp_path)
    assert boolean_fixpoint(loaded.rules, loaded.input) == \
        boolean_fixpoint(family_problem.rules, family_problem.input)


def test_parent_fixture_shape():
    assert len(PARENT_PAIRS) == 6
