"""Command-line entry point: difflog synth|eval|gen-rules|encode-3cnf|bench.

synth drives a portfolio of independent search instances over distinct
seeds with first-success cancellation.  The driver interleaves the
instances round-robin in iteration-sized slices, so a fixed base seed
yields a reproducible report.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from .core import (ProblemError, parse_problem, parse_relations, read_text, write_problem,
                   write_rules)
from .optimizer import SearchConfig, SearchOutcome, SearchRunner
from .rulegen import GenConfig, generate
from .testkit import encode_3cnf, parse_dimacs
from .viterbi import Evaluator

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NO_SOLUTION = 2


@dataclass
class RunReport:
    outcomes: list[SearchOutcome]
    best_time: float | None
    timeouts: int
    winner: frozenset[str] | None


def run_portfolio(problem, seeds: int, base_seed: int, config: SearchConfig,
                  trace=None) -> RunReport:
    """Round-robin portfolio: seed i runs with rng_seed = base_seed + i."""
    evaluator = Evaluator(problem.rules, problem.input)
    runners = [SearchRunner(problem, dataclasses.replace(config, rng_seed=base_seed + i),
                            evaluator, trace(i) if trace is not None else None)
               for i in range(seeds)]

    winner = None
    live = [r for r in runners if r.outcome is None]
    solved = [r for r in runners if r.outcome is not None and r.outcome.status == "solved"]
    if solved:
        winner = solved[0]
    while winner is None and live:
        still_live = []
        for runner in live:
            outcome = runner.step()
            if outcome is None:
                still_live.append(runner)
            elif outcome.status == "solved" and winner is None:
                winner = runner
        live = still_live
    for runner in runners:
        runner.cancel()

    outcomes = [r.outcome for r in runners]
    solved_times = [o.wall_time for o in outcomes if o.status == "solved"]
    return RunReport(
        outcomes=outcomes,
        best_time=min(solved_times) if solved_times else None,
        timeouts=sum(1 for o in outcomes if o.status == "timeout"),
        winner=winner.outcome.rules if winner is not None else None,
    )


def write_report(handle: TextIO, base_seed: int, outcomes: list[SearchOutcome]) -> None:
    # wall_ms is reported at whole-second granularity so that reruns with the
    # same base seed produce byte-identical reports.
    lines = ["seed\tstatus\titerations\tsamplings\twall_ms"]
    for i, outcome in enumerate(outcomes):
        wall_ms = int(outcome.wall_time) * 1000
        lines.append(f"{base_seed + i}\t{outcome.status}\t{outcome.iterations}"
                     f"\t{outcome.samplings}\t{wall_ms}")
    handle.write("\n".join(lines) + "\n")


def cmd_synth(args) -> int:
    out_dir = Path(args.out) if args.out else Path(args.problem)
    problem = parse_problem(args.problem, args.rules)
    out_dir.mkdir(parents=True, exist_ok=True)

    # an output that cannot be written fails here, before the search
    solution = out_dir / "solution.dl"
    if solution.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(solution))
    config = SearchConfig(max_iters=args.max_iters, mcmc_period=args.mcmc_period,
                          timeout=args.timeout)

    report_path = out_dir / "report.tsv"
    with contextlib.ExitStack() as outputs:
        trace = None
        if args.trace:
            handle = outputs.enter_context((out_dir / "trace.tsv").open("w"))
            handle.write("seed\titer\tloss\tevent\ttemperature\n")

            def trace(seed_index):
                def emit(iteration, loss_value, event, temp):
                    handle.write(f"{args.base_seed + seed_index}\t{iteration}"
                                 f"\t{loss_value:.12g}\t{event}\t{temp:.6g}\n")
                return emit

        report_file = outputs.enter_context(report_path.open("w"))
        started = time.perf_counter()
        try:
            report = run_portfolio(problem, args.seeds, args.base_seed, config, trace)
        except BaseException:
            report_path.unlink()  # a run that fails leaves no report
            raise
        elapsed = time.perf_counter() - started
        write_report(report_file, args.base_seed, report.outcomes)

    if report.winner is not None:
        rules = [problem.rules[rid] for rid in sorted(report.winner)]
        write_rules(rules, solution, header="recovered program")
        print(f"solved with {len(rules)} rules in {elapsed:.2f}s "
              f"(best run {report.best_time:.2f}s); wrote {solution}")
        return EXIT_OK
    if solution.is_file():
        solution.unlink()  # an earlier run's program; this run found none
    print(f"no solution found ({report.timeouts}/{len(report.outcomes)} timeouts, "
          f"{elapsed:.2f}s)", file=sys.stderr)
    return EXIT_NO_SOLUTION


def cmd_eval(args) -> int:
    problem = parse_problem(args.problem, args.rules)
    weights = {rid: 1.0 for rid in problem.rules.ids()}
    if args.weights:
        for lineno, raw in enumerate(read_text(args.weights).splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            rid, _, value = line.partition("\t")
            if rid not in problem.rules:
                raise ProblemError(f"{args.weights}:{lineno}: unknown rule id {rid}")
            try:
                weight = float(value)
            except ValueError:
                raise ProblemError(
                    f"{args.weights}:{lineno}: weight {value!r} is not a number") from None
            if not 0.0 <= weight <= 1.0:  # also rejects NaN
                raise ProblemError(f"{args.weights}:{lineno}: weight {value} is not in [0, 1]")
            weights[rid] = weight
    result = Evaluator(problem.rules, problem.input).evaluate(weights)

    lines = []
    for fact in result.derived.facts():
        prov = result.provenance_of(fact)
        prov_text = ",".join(f"{rid}:{count}" for rid, count in sorted(prov.items()))
        lines.append("\t".join((fact.relation, *fact.args,
                                f"{result.value_of(fact):.12g}", prov_text)))
    for line in sorted(lines):
        print(line)
    return EXIT_OK


def cmd_gen_rules(args) -> int:
    directory = Path(args.problem)
    decls = parse_relations(read_text(directory / "relations.txt"), directory / "relations.txt")
    config = GenConfig(max_body_len=args.max_body_len, k=args.k, cap=args.cap,
                       allow_recursion=not args.no_recursion)
    rules = generate(decls, config)
    out_path = directory / "rules.dl"
    write_rules(rules, out_path)
    print(f"wrote {len(rules)} rules to {out_path}")
    return EXIT_OK


def cmd_encode_3cnf(args) -> int:
    problem = encode_3cnf(parse_dimacs(read_text(args.cnf)))
    write_problem(args.out, problem.relations, problem.input, problem.labels,
                  problem.rules)
    print(f"wrote problem directory {args.out} "
          f"({len(problem.input)} input tuples, {len(problem.rules)} rules)")
    return EXIT_OK


def cmd_bench(args) -> int:
    lines = [line.strip() for line in read_text(args.manifest).splitlines()]
    entries = [line for line in lines if line and not line.startswith("#")]

    print("Benchmark\tRel\tExp\tCnd\tIn\tOut\tIter\tSmpl\tTime")
    config = SearchConfig(max_iters=args.max_iters, mcmc_period=args.mcmc_period,
                          timeout=args.timeout)
    for entry in entries:
        name = Path(entry).name
        try:
            problem = parse_problem(entry)
            started = time.perf_counter()
            report = run_portfolio(problem, args.seeds, args.base_seed, config)
            elapsed = time.perf_counter() - started
        except ProblemError as exc:
            print(f"{name}\terror: {exc}")
            continue
        n_labels = len(problem.labels.positive) + len(problem.labels.negative)
        if report.winner is not None:
            best = min((o for o in report.outcomes if o.status == "solved"),
                       key=lambda o: o.wall_time)
            print(f"{name}\t{len(problem.relations)}\t{len(report.winner)}"
                  f"\t{len(problem.rules)}\t{len(problem.input)}\t{n_labels}"
                  f"\t{best.iterations}\t{best.samplings}\t{elapsed:.2f}")
        else:  # some seed ran out of time, or every seed out of iterations
            print(f"{name}\t{len(problem.relations)}\t-\t{len(problem.rules)}"
                  f"\t{len(problem.input)}\t{n_labels}\t-\t-"
                  f"\t{'timeout' if report.timeouts else 'exhausted'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="difflog",
                                     description="Learn Datalog programs from examples.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_flags(p):
        p.add_argument("--seeds", type=int, default=None,
                       help="search instances, interleaved in one thread (default: CPU count)")
        p.add_argument("--timeout", type=float, default=3600.0,
                       help="per-instance timeout in seconds of search compute; "
                            "parsing and grounding are not counted")
        p.add_argument("--max-iters", type=int, default=10_000)
        p.add_argument("--mcmc-period", type=int, default=30)
        p.add_argument("--base-seed", type=int, default=0)

    p = sub.add_parser("synth", help="synthesize a program from a problem directory")
    p.add_argument("problem")
    add_search_flags(p)
    p.add_argument("--trace", action="store_true", help="write per-iteration trace.tsv")
    p.add_argument("--rules", default=None, help="override rules.dl")
    p.add_argument("--out", default=None, help="output directory (default: problem dir)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="evaluate rules at given weights and dump values")
    p.add_argument("problem")
    p.add_argument("--weights", default=None, help="TSV file: rule_id<TAB>weight")
    p.add_argument("--rules", default=None, help="override rules.dl")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen-rules", help="generate candidate rules into rules.dl")
    p.add_argument("--problem", required=True)
    p.add_argument("--max-body-len", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cap", type=int, default=50_000)
    p.add_argument("--no-recursion", action="store_true")
    p.set_defaults(func=cmd_gen_rules)

    p = sub.add_parser("encode-3cnf", help="encode a DIMACS 3-CNF file as a problem")
    p.add_argument("cnf")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode_3cnf)

    p = sub.add_parser("bench", help="run synth over a manifest of problem directories")
    p.add_argument("manifest")
    add_search_flags(p)
    p.set_defaults(func=cmd_bench)
    return parser


def _flag_error(args) -> str | None:
    """Why a numeric flag is invalid, or None if they are all valid."""
    if args.command == "gen-rules":
        if args.max_body_len < 1:
            return f"--max-body-len must be at least 1, got {args.max_body_len}"
        if args.k < 0:
            return f"--k must be non-negative, got {args.k}"
    elif args.command in ("synth", "bench"):
        if args.seeds < 1:
            return f"--seeds must be at least 1, got {args.seeds}"
        if not args.timeout >= 0.0:  # also rejects NaN
            return f"--timeout must be non-negative, got {args.timeout}"
        if args.max_iters < 0:
            return f"--max-iters must be non-negative, got {args.max_iters}"
        if args.mcmc_period < 1:
            return f"--mcmc-period must be at least 1, got {args.mcmc_period}"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("synth", "bench") and args.seeds is None:
        args.seeds = os.cpu_count() or 1
    error = _flag_error(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_BAD_INPUT
    # the one place a failure becomes exit 1: bad input, and files that
    # cannot be written; anything else is a bug and keeps its traceback
    try:
        return args.func(args)
    except (ProblemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
