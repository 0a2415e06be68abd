"""End-to-end command-line behavior over temporary problem directories."""

from pathlib import Path

import pytest

from difflog import cli, core
from difflog.cli import (EXIT_BAD_INPUT, EXIT_NO_SOLUTION, EXIT_OK, main,
                         run_portfolio)
from difflog.core import (GroundingBudgetError, ground, parse_problem,
                          parse_rules, write_problem)
from difflog.optimizer import SearchConfig
from difflog.rulegen import DEFAULT_CAP

SAMEGEN = Path(__file__).resolve().parents[1] / "problems" / "samegen"


@pytest.fixture
def family_dir(tmp_path, family_problem):
    d = tmp_path / "family"
    write_problem(d, family_problem.relations, family_problem.input,
                  family_problem.labels, family_problem.rules)
    return d


def test_synth_solves_family(family_dir, capsys):
    code = main(["synth", str(family_dir), "--seeds", "4", "--timeout", "30"])
    assert code == EXIT_OK
    assert "solved" in capsys.readouterr().out
    report = (family_dir / "report.tsv").read_text().splitlines()
    assert report[0] == "seed\tstatus\titerations\tsamplings\twall_ms"
    assert len(report) == 5
    solution = parse_rules((family_dir / "solution.dl").read_text())
    assert {r.id for r in solution} <= {"r1", "r2"}


def test_synth_out_directory(family_dir, tmp_path):
    out = tmp_path / "results"
    code = main(["synth", str(family_dir), "--seeds", "2", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "report.tsv").is_file()
    assert (out / "solution.dl").is_file()
    assert not (family_dir / "report.tsv").exists()


def test_synth_trace(family_dir):
    code = main(["synth", str(family_dir), "--seeds", "1", "--trace"])
    assert code == EXIT_OK
    trace = (family_dir / "trace.tsv").read_text().splitlines()
    assert trace[0] == "seed\titer\tloss\tevent\ttemperature"


def test_synth_timeout_zero(family_dir, capsys):
    code = main(["synth", str(family_dir), "--seeds", "2", "--timeout", "0"])
    assert code == EXIT_NO_SOLUTION
    report = (family_dir / "report.tsv").read_text()
    assert report.count("timeout") == 2


def test_synth_bad_directory(tmp_path, capsys):
    code = main(["synth", str(tmp_path / "nope"), "--seeds", "1"])
    assert code == EXIT_BAD_INPUT
    assert "error" in capsys.readouterr().err


def test_synth_missing_rules_file(family_dir, tmp_path, capsys):
    missing = tmp_path / "nope.dl"
    code = main(["synth", str(family_dir), "--seeds", "1", "--rules", str(missing)])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err and "Traceback" not in err


@pytest.mark.parametrize("rules_dl", [None, "q(x) :- p(x\n"])
def test_rules_flag_replaces_a_missing_or_malformed_rules_dl(family_dir, tmp_path, capsys,
                                                             rules_dl):
    rules = tmp_path / "pool.dl"
    (family_dir / "rules.dl").rename(rules)
    if rules_dl is not None:
        (family_dir / "rules.dl").write_text(rules_dl)
    assert main(["eval", str(family_dir), "--rules", str(rules)]) == EXIT_OK
    assert len(capsys.readouterr().out.strip().splitlines()) == 20
    code = main(["synth", str(family_dir), "--seeds", "1", "--rules", str(rules)])
    assert code == EXIT_OK
    assert {r.id for r in parse_rules((family_dir / "solution.dl").read_text())} <= {"r1", "r2"}


def test_eval_missing_weights_file(family_dir, tmp_path, capsys):
    missing = tmp_path / "nope.tsv"
    code = main(["eval", str(family_dir), "--weights", str(missing)])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_eval_boolean_dump(family_dir, capsys):
    code = main(["eval", str(family_dir)])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 20
    assert all(line.split("\t")[3] == "1" for line in lines)


def test_eval_with_weights(family_dir, tmp_path, capsys):
    weights = tmp_path / "w.tsv"
    weights.write_text("r1\t0.8\nr2\t0.6\n")
    code = main(["eval", str(family_dir), "--weights", str(weights)])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert "samegen\tWill\tAnn\t0.8\tr1:1" in lines
    assert "samegen\tAnn\tJim\t0.48\tr1:1,r2:1" in lines


def test_eval_unknown_rule_id(family_dir, tmp_path, capsys):
    weights = tmp_path / "w.tsv"
    weights.write_text("r99\t0.5\n")
    code = main(["eval", str(family_dir), "--weights", str(weights)])
    assert code == EXIT_BAD_INPUT
    assert "r99" in capsys.readouterr().err


def test_eval_rejects_a_repeated_rule_id(family_dir, tmp_path, capsys):
    weights = tmp_path / "w.tsv"
    weights.write_text("r1\t0.5\nr1\t0.9\n")
    code = main(["eval", str(family_dir), "--weights", str(weights)])
    assert code == EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: {weights}:2: duplicate weight for rule r1\n"


def test_gen_rules_writes_candidates(family_dir, capsys):
    code = main(["gen-rules", "--problem", str(family_dir),
                 "--max-body-len", "2", "--k", "1"])
    assert code == EXIT_OK
    problem = parse_problem(family_dir)
    assert len(problem.rules) > 10


def test_gen_rules_cap(family_dir, capsys):
    code = main(["gen-rules", "--problem", str(family_dir),
                 "--max-body-len", "3", "--k", "2", "--cap", "50"])
    assert code == EXIT_BAD_INPUT
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("cap, code", [(5, EXIT_BAD_INPUT), (83, EXIT_BAD_INPUT), (84, EXIT_OK)])
def test_gen_rules_cap_bounds_the_seeds(tmp_path, capsys, cap, code):
    # --k 0 makes no edit, so only the 84 seeds can pass the cap
    (tmp_path / "relations.txt").write_text("input a 2\ninput b 2\ninput c 2\noutput p 2\n")
    assert main(["gen-rules", "--problem", str(tmp_path), "--max-body-len", "3",
                 "--k", "0", "--cap", str(cap)]) == code
    captured = capsys.readouterr()
    if code == EXIT_OK:
        assert "wrote 84 rules" in captured.out
    else:
        assert no_traceback_error(captured.err) and f"> {cap}" in captured.err
        assert not (tmp_path / "rules.dl").exists()


@pytest.mark.parametrize("output", ["src 1", "tri 3"])
def test_gen_rules_rejects_an_output_no_rule_derives(tmp_path, capsys, output):
    # chain seeds have binary heads, so a unary or ternary output gets no rule
    (tmp_path / "relations.txt").write_text(
        f"input edge 2\ninput node 1\noutput {output}\noutput path 2\n")
    code = main(["gen-rules", "--problem", str(tmp_path), "--max-body-len", "2", "--k", "1"])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert no_traceback_error(err) and output.split()[0] in err and "path" not in err
    assert not (tmp_path / "rules.dl").exists()


def test_encode_3cnf_command(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    out = tmp_path / "encoded"
    code = main(["encode-3cnf", str(cnf), "--out", str(out)])
    assert code == EXIT_OK
    problem = parse_problem(out)
    assert len(problem.rules) == 9
    assert len(problem.labels.positive) == 3


def test_encode_3cnf_reads_a_satlib_trailer(tmp_path, capsys):
    cnf = tmp_path / "uf3.cnf"
    cnf.write_text("c uf-series\np cnf 3 2\n 1 2 3 0\n-1 -2 3 0\n%\n0\n\n")
    out = tmp_path / "encoded"
    assert main(["encode-3cnf", str(cnf), "--out", str(out)]) == EXIT_OK
    assert len(parse_problem(out).rules) == 9


@pytest.mark.parametrize("flags, status", [
    (["--max-iters", "1", "--timeout", "3600"], "exhausted"),
    (["--max-iters", "1000", "--timeout", "0"], "timeout")])
def test_bench_reports_why_a_problem_is_unsolved(tmp_path, capsys, flags, status):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{SAMEGEN}\n")
    assert main(["bench", str(manifest), "--seeds", "2", *flags]) == EXIT_OK
    row = capsys.readouterr().out.strip().splitlines()[1].split("\t")
    assert row[0] == "samegen" and row[6:] == ["-", "-", status]


def test_bench_table(family_dir, tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"# golden\n{family_dir}\n")
    code = main(["bench", str(manifest), "--seeds", "2", "--timeout", "30"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("Benchmark\t")
    assert lines[1].startswith("family\t")


def test_bench_skips_indented_comments(family_dir, tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"  # indented comment\n\t# tab-indented\n{family_dir}\n")
    code = main(["bench", str(manifest), "--seeds", "2", "--timeout", "30"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("family\t")


def test_bench_missing_manifest(tmp_path, capsys):
    code = main(["bench", str(tmp_path / "nope.txt"), "--seeds", "1"])
    assert code == EXIT_BAD_INPUT


def test_run_portfolio_first_success_cancels(family_problem):
    report = run_portfolio(family_problem, seeds=4, base_seed=0,
                           config=SearchConfig(max_iters=200))
    statuses = [o.status for o in report.outcomes]
    assert "solved" in statuses
    assert all(s in ("solved", "cancelled") for s in statuses)
    assert report.winner is not None
    assert report.timeouts == 0
    assert report.best_time is not None


@pytest.mark.parametrize("flag, value", [
    ("--seeds", "0"), ("--timeout", "-1"), ("--timeout", "nan"),
    ("--max-iters", "-1"), ("--mcmc-period", "0")])
def test_synth_rejects_bad_search_flag(family_dir, monkeypatch, capsys, flag, value):
    def never_parsed(directory):
        raise AssertionError(f"{directory} parsed despite a bad flag")

    monkeypatch.setattr(cli, "parse_problem", never_parsed)
    code = main(["synth", str(family_dir), "--seeds", "1", flag, value])
    assert code == EXIT_BAD_INPUT
    assert flag in capsys.readouterr().err
    assert not (family_dir / "report.tsv").exists()


def test_bench_rejects_bad_search_flag(tmp_path, capsys):
    code = main(["bench", str(tmp_path / "never-read.txt"), "--mcmc-period", "0"])
    assert code == EXIT_BAD_INPUT
    assert "--mcmc-period" in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    ("abc", "not a number"), ("nan", "not in [0, 1]"),
    ("1.5", "not in [0, 1]"), ("-0.1", "not in [0, 1]")])
def test_eval_rejects_bad_weight(family_dir, tmp_path, capsys, value, message):
    weights = tmp_path / "w.tsv"
    weights.write_text(f"# weights\nr1\t0.5\nr2\t{value}\n")
    code = main(["eval", str(family_dir), "--weights", str(weights)])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"{weights}:3:" in err and message in err


def test_parser_defaults_are_the_config_defaults():
    parser = cli.build_parser()
    for argv in (["synth", "p"], ["bench", "m"]):
        args = parser.parse_args(argv)
        assert (args.max_iters, args.mcmc_period) == \
            (SearchConfig.max_iters, SearchConfig.mcmc_period)
    args = parser.parse_args(["gen-rules", "--problem", "p", "--max-body-len", "1", "--k", "0"])
    assert args.cap == DEFAULT_CAP


def no_traceback_error(err: str) -> bool:
    return err.startswith("error: ") and "Traceback" not in err


@pytest.fixture
def small_budget(monkeypatch):
    """A clause budget that samegen passes, and the count its error reports."""
    monkeypatch.setattr(core, "CLAUSE_BUDGET", 1000)
    problem = parse_problem(SAMEGEN)
    with pytest.raises(GroundingBudgetError) as info:
        ground(problem.rules, problem.input)
    return f"{info.value.count:,}"


def test_synth_over_the_clause_budget_exits_1_with_the_count(small_budget, tmp_path, capsys):
    code = main(["synth", str(SAMEGEN), "--seeds", "1", "--out", str(tmp_path / "out")])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert no_traceback_error(err) and small_budget in err
    assert not (tmp_path / "out" / "report.tsv").exists()


def test_eval_over_the_clause_budget_exits_1_with_the_count(small_budget, capsys):
    code = main(["eval", str(SAMEGEN)])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert no_traceback_error(err) and small_budget in err


def test_bench_over_the_clause_budget_prints_an_error_row(small_budget, family_dir, tmp_path,
                                                         capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{SAMEGEN}\n{family_dir}\n")
    code = main(["bench", str(manifest), "--seeds", "1", "--timeout", "30"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].startswith("samegen\terror: ") and small_budget in lines[1]
    assert lines[2].startswith("family\t")


def test_bench_manifest_that_is_a_directory(tmp_path, capsys):
    code = main(["bench", str(tmp_path), "--seeds", "1"])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert no_traceback_error(err) and str(tmp_path) in err


def test_encode_3cnf_input_that_is_a_directory(tmp_path, capsys):
    code = main(["encode-3cnf", str(tmp_path), "--out", str(tmp_path / "encoded")])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert no_traceback_error(err) and str(tmp_path) in err


def test_gen_rules_relations_file_that_is_a_directory(tmp_path, capsys):
    (tmp_path / "relations.txt").mkdir()
    code = main(["gen-rules", "--problem", str(tmp_path), "--max-body-len", "2", "--k", "1"])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert no_traceback_error(err) and "relations.txt" in err


def test_synth_out_that_is_an_existing_file(family_dir, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    code = main(["synth", str(family_dir), "--seeds", "1", "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert no_traceback_error(err) and str(out) in err
    assert out.read_text() == "not a directory\n"


def test_encode_3cnf_out_that_is_an_existing_file(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    code = main(["encode-3cnf", str(cnf), "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert no_traceback_error(err) and str(out) in err


def non_utf8_problem_file(problem, tmp_path):
    (problem / "labels.pos").write_bytes(b"samegen\tWill\t\xc9mma\n")
    return ["synth", str(problem), "--seeds", "1"], problem / "labels.pos"


def non_utf8_weights_file(problem, tmp_path):
    weights = tmp_path / "w.tsv"
    weights.write_bytes(b"r1\t0.5\n# \xff\n")
    return ["eval", str(problem), "--weights", str(weights)], weights


def labels_that_is_a_directory(problem, tmp_path):
    (problem / "labels.pos").unlink()
    (problem / "labels.pos").mkdir()
    return ["synth", str(problem), "--seeds", "1"], problem / "labels.pos"


def report_that_is_a_directory(problem, tmp_path):
    (tmp_path / "out" / "report.tsv").mkdir(parents=True)
    return (["synth", str(problem), "--seeds", "1", "--out", str(tmp_path / "out")],
            tmp_path / "out" / "report.tsv")


def trace_that_is_a_directory(problem, tmp_path):
    (tmp_path / "out" / "trace.tsv").mkdir(parents=True)
    return (["synth", str(problem), "--seeds", "1", "--trace", "--out", str(tmp_path / "out")],
            tmp_path / "out" / "trace.tsv")


def rules_file_that_is_a_directory(problem, tmp_path):
    (problem / "rules.dl").unlink()
    (problem / "rules.dl").mkdir()
    return (["gen-rules", "--problem", str(problem), "--max-body-len", "2", "--k", "1"],
            problem / "rules.dl")


@pytest.mark.parametrize("make_case", [
    non_utf8_problem_file, non_utf8_weights_file, labels_that_is_a_directory,
    report_that_is_a_directory, trace_that_is_a_directory, rules_file_that_is_a_directory])
def test_unreadable_input_or_unwritable_output_exits_1(family_dir, tmp_path, capsys, make_case):
    argv, path = make_case(family_dir, tmp_path)
    code = main(argv)
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert no_traceback_error(err) and str(path) in err


@pytest.mark.parametrize("flag, value", [("--max-body-len", "0"), ("--k", "-1")])
def test_gen_rules_rejects_bad_flag(family_dir, monkeypatch, capsys, flag, value):
    def never_read(path):
        raise AssertionError(f"{path} read despite a bad flag")

    monkeypatch.setattr(cli, "read_text", never_read)
    rules = (family_dir / "rules.dl").read_text()
    valid_other = {"--max-body-len": ["--k", "1"], "--k": ["--max-body-len", "2"]}[flag]
    code = main(["gen-rules", "--problem", str(family_dir), flag, value, *valid_other])
    assert code == EXIT_BAD_INPUT
    assert flag in capsys.readouterr().err
    assert (family_dir / "rules.dl").read_text() == rules


def test_synth_without_positive_labels_writes_the_empty_program(family_dir):
    (family_dir / "labels.pos").unlink()
    code = main(["synth", str(family_dir), "--seeds", "1"])
    assert code == EXIT_OK
    assert (family_dir / "solution.dl").read_text() == "# recovered program\n"


def test_unsolved_synth_removes_an_earlier_solution(family_dir, capsys):
    assert main(["synth", str(family_dir), "--seeds", "2"]) == EXIT_OK
    assert (family_dir / "solution.dl").is_file()
    code = main(["synth", str(family_dir), "--seeds", "2", "--timeout", "0"])
    assert code == EXIT_NO_SOLUTION
    assert (family_dir / "report.tsv").read_text().count("timeout") == 2
    assert not (family_dir / "solution.dl").exists()


@pytest.mark.parametrize("output", ["report.tsv", "solution.dl"])
def test_unwritable_output_fails_before_the_search(family_dir, tmp_path, monkeypatch, capsys,
                                                   output):
    def never_searched(*args):
        raise AssertionError("searched despite an unwritable output")

    monkeypatch.setattr(cli, "run_portfolio", never_searched)
    (tmp_path / "out" / output).mkdir(parents=True)
    code = main(["synth", str(family_dir), "--seeds", "1", "--out", str(tmp_path / "out")])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert no_traceback_error(err) and str(tmp_path / "out" / output) in err
