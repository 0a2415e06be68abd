"""One benchmark run, in one process with no threads.

Runs the workload's instances through ``difflog.cli.main(["synth", ...])``
in passes until the time budget is spent, checks every output, and prints
one JSON object with a record per synth as its last line.  Every synth
runs under the speed probe of ``calibrate``.  Started by
``run.py``, which owns the process and reads its peak RSS.

Usage: worker.py ROOT WORK WORKLOAD SEED SECONDS TRACE
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import oracle
import tracer as tracing
import workloads

REPORT_HEADER = "seed\tstatus\titerations\tsamplings\twall_ms"
STATUSES = {"solved", "timeout", "exhausted", "cancelled"}


class CheckFailed(Exception):
    """An output of one synth operation is wrong."""


def read_report(path: Path, inst) -> list[tuple[str, int, int]]:
    """(status, iterations, samplings) per seed; raises CheckFailed if malformed."""
    if not path.is_file():
        raise CheckFailed("report.tsv not written")
    lines = path.read_text().splitlines()
    if not lines or lines[0] != REPORT_HEADER or len(lines) != inst.seeds + 1:
        raise CheckFailed("report.tsv header or row count wrong")
    rows = []
    for i, line in enumerate(lines[1:]):
        fields = line.split("\t")
        if len(fields) != 5 or fields[1] not in STATUSES:
            raise CheckFailed(f"report.tsv row {i + 1} malformed: {line!r}")
        try:
            seed, iters, samplings, wall_ms = (int(fields[k]) for k in (0, 2, 3, 4))
        except ValueError:
            raise CheckFailed(f"report.tsv row {i + 1} malformed: {line!r}") from None
        if (seed != inst.base_seed + i or not 0 <= samplings <= iters <= inst.max_iters
                or wall_ms < 0 or wall_ms % 1000):
            raise CheckFailed(f"report.tsv row {i + 1} out of range: {line!r}")
        rows.append((fields[1], iters, samplings))
    return rows


def check_outputs(code, out: Path, inst, problem) -> list[tuple[str, int, int]]:
    rows = read_report(out / "report.tsv", inst)
    solved = any(status == "solved" for status, _, _ in rows)
    written = (out / "solution.dl").is_file()
    if code != (0 if solved and written else 2) or solved != written:
        raise CheckFailed(f"exit code {code} disagrees with status (solved={solved}, "
                          f"solution.dl written={written})")
    if solved:
        facts, pos, neg, candidates = problem
        program = oracle.parse_program((out / "solution.dl").read_text())
        pool = {rid: (head, body) for rid, head, body in candidates}
        if any(pool.get(rid) != (head, body) for rid, head, body in program):
            raise CheckFailed("solution.dl holds a rule that is not a candidate")
        missing, spurious = oracle.label_errors(program, facts, pos, neg)
        if missing or spurious:
            raise CheckFailed(f"recovered program misses {len(missing)} positive and "
                              f"derives {len(spurious)} negative labels")
    return rows


def run_synth(inst, problem, work: Path, tracer, probe) -> dict:
    """One synth operation, timed and checked, with the probe running."""
    from difflog import cli

    out = work / "out" / inst.name
    shutil.rmtree(out, ignore_errors=True)
    first_span = len(tracer.spans)
    wall_start = time.perf_counter()
    root = tracer.span("cli.synth")
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
                probe.running():
            code = cli.main(inst.argv(out))
    except Exception:
        code, error = None, f"synth raised\n{traceback.format_exc()}"
    finally:
        tracer.close(root)
    wall_s = time.perf_counter() - wall_start
    _, start, end = tracer.spans[root][:3]
    setup = [(s, e) for n, s, e, _, _ in tracer.spans[first_span:] if n in tracing.SETUP_SPANS]
    # each part of the synth is scaled by the probes taken during it
    probes = {"setup": [], "search": []}
    for s, d in probe.within(start, end):
        probes["setup" if any(a <= s < b for a, b in setup) else "search"].append(d)
    setup_s = sum(e - s for s, e in setup)
    search_s = end - start - setup_s
    either = probes["setup"] + probes["search"]
    record = {"name": inst.name, "cpu_s": end - start, "wall_s": wall_s,
              "setup_s": setup_s, "search_s": search_s,
              **{f"{part}_probe_s": statistics.mean(probes[part] or either) if either else None
                 for part in probes},
              "outcome": None, "error": None}
    try:
        if code is None:
            raise CheckFailed(error)
        rows = check_outputs(code, out, inst, problem)
    except CheckFailed as exc:
        record["error"] = f"{inst.name}: {exc}"
        return record
    winner = next((it for status, it, _ in rows if status == "solved"), None)
    record.update(outcome=rows, solved=winner is not None,
                  stop_iter=winner if winner is not None else max(it for _, it, _ in rows),
                  search_iters=sum(it for _, it, _ in rows), useful_iters=winner or 0)
    return record


def main(argv: list[str]) -> int:
    root, work, workload, seed, seconds, trace = argv
    root, work, seed, seconds, trace = Path(root), Path(work), int(seed), float(seconds), trace == "1"
    sys.path.insert(0, str(root / "src"))
    checker_failures = oracle.self_test(root / "problems" / "samegen")
    instances = workloads.GENERATORS[workload](root, work, seed)
    problems = {inst.name: oracle.read_problem(inst.directory) for inst in instances}

    probe = calibrate.Probe()
    tracer = tracing.Tracer(probe.clock)
    records = []
    n_passes = 0
    started = time.perf_counter()
    try:
        # The traced run alternates untraced and traced passes (at least one
        # of each) so that it can report the tracing overhead.
        while True:
            traced = trace and n_passes % 2 == 1
            tracer.uninstall()
            (tracing.install_full if traced else tracing.install_setup)(tracer)
            for inst in instances:
                tracer.tag = (n_passes, inst.name)
                record = run_synth(inst, problems[inst.name], work, tracer, probe)
                record.update({"pass": n_passes, "traced": traced})
                records.append(record)
            n_passes += 1
            elapsed = time.perf_counter() - started
            if n_passes >= (2 if trace else 1) and elapsed * (n_passes + 1) / n_passes > seconds:
                break
    finally:
        tracer.uninstall()

    result = {"instances": [inst.name for inst in instances],
              "inputs_digest": workloads.digest(instances),
              "checker_failures": checker_failures,
              "records": records}
    if trace:
        tracer.write(work / f"spans-{workload}-{seed}.tsv")
        result["layers"] = tracing.median_over([
            tracing.layer_metrics(tracer, lambda tag, i=i: tag is not None and tag[0] == i)
            for i in range(1, n_passes, 2)])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
