#!/usr/bin/env python3
"""difflog synthesis benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload golden|family|sat3 --seed N \
        --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs ``worker.py`` in a
fresh child process that pushes them through ``difflog.cli.main(["synth",
...])`` in repeated passes for about S seconds and checks every output.
Prints one line per metric, then a JSON object as the last line:

- ``--trace 0``: end-to-end metrics, summed over the workload's instances,
  with only the two set-up calls timed.  Times are the program's CPU seconds,
  each scaled by how fast the machine ran Python meanwhile (see
  ``calibrate``); raw CPU and wall time are printed for reference only;
- ``--trace 1``: per-layer metrics from spans around every layer boundary
  (unscaled CPU seconds of the program), and the tracing overhead against
  untraced passes of the same run.

Raw records and spans are written to ``.bench_build/perfbench/``.  Exits
non-zero without a result line when the program's sources are not next to
the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKER_TIMEOUT_S = 170
REQUIRED = ("src/difflog/cli.py", "problems/samegen/rules.dl", "problems/andersen/rules.dl")
# directories whose contents a run may create or change
SKIPPED_DIRS = {HERE.name, ".bench_build", "__pycache__"}

# The layer each workload was chosen to stress (see workloads.py).
DOMINANT = {"golden": "share.grounding_of_synth",
            "family": "share.evaluate_of_search",
            "sat3": "share.loss_gradient_of_search"}


def tree_digest(root: Path) -> str:
    """Digest of every file outside the benchmark's own and build directories."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIPPED_DIRS)
        for name in sorted(filenames):
            path = Path(dirpath) / name
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes() if path.is_file() else b"\1")
    return h.hexdigest()


def recorded_digest(workload: str, seed: int) -> str | None:
    record = json.loads((HERE / "inputs.json").read_text())
    return record["workloads"][workload]["inputs_sha256"].get(str(seed))


def per_instance(records: list[dict], key) -> dict[str, float]:
    """Median over the passes of each instance's ``key``."""
    samples: dict[str, list[float]] = defaultdict(list)
    for r in records:
        samples[r["name"]].append(key(r))
    return {name: statistics.median(xs) for name, xs in samples.items()}


def scaled(record: dict, part: str) -> float:
    """The set-up or search time of one synth, scaled (see ``calibrate``)."""
    return calibrate.scaled(record[f"{part}_s"], record[f"{part}_probe_s"])


def scaled_cpu(record: dict) -> float:
    return scaled(record, "setup") + scaled(record, "search")


def end_to_end(records: list[dict], peak_rss_mb: float) -> dict:
    cpu = per_instance(records, scaled_cpu)
    setup = per_instance(records, lambda r: scaled(r, "setup"))
    search = per_instance(records, lambda r: scaled(r, "search"))
    # counts are the same in every pass; take each instance's first record
    first = {r["name"]: r for r in reversed(records)}
    return {
        "cpu_s": (sum(cpu.values()), "s"),
        "setup_s": (sum(setup.values()), "s"),
        "iters_per_s": (sum(r["search_iters"] for r in first.values())
                        / sum(search.values()), "1/s"),
        "iterations": (sum(r["stop_iter"] for r in first.values()), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def shares(m: dict, traced_cpu_s: float) -> dict:
    """Where the traced time went; search is the portfolio minus the build."""
    search = m["cli.run_portfolio.s"] - m["viterbi.build.s"]
    return {
        "share.grounding_of_synth":
            (m["core.boolean_fixpoint.s"] + m["core.ground.s"]) / traced_cpu_s,
        "share.evaluate_of_search": m["viterbi.evaluate.s"] / search,
        "share.loss_gradient_of_search":
            (m["optimizer.loss.s"] + m["optimizer.loss_gradient.s"]) / search,
    }


def rationale_holds(workload: str, m: dict) -> bool:
    """The workload's dominant share beats every other share of the same total."""
    if workload == "golden":
        return m["share.grounding_of_synth"] > 0.5
    evaluate, loss = m["share.evaluate_of_search"], m["share.loss_gradient_of_search"]
    return max(evaluate, loss, 1.0 - evaluate - loss) == m[DOMINANT[workload]]


def per_layer(result: dict, records: list[dict]) -> dict:
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    passes = len({r["pass"] for r in traced})
    search = sum(r["search_iters"] for r in traced)
    useful = sum(r["useful_iters"] for r in traced)
    traced_cpu = sum(per_instance(traced, scaled_cpu).values())
    untraced_cpu = sum(per_instance(untraced, scaled_cpu).values())
    # shares compare unscaled span times with the unscaled synth time
    traced_raw = sum(per_instance(traced, lambda r: r["cpu_s"]).values())
    m = dict(result["layers"])
    m["cli.portfolio.wasted_iters"] = (search - useful) / passes
    m["cli.portfolio.useful_ratio"] = useful / search if search else 0.0
    m["synth.solve_rate"] = sum(r["solved"] for r in traced) / len(traced)
    m["trace.overhead"] = traced_cpu / untraced_cpu - 1.0
    m.update(shares(m, traced_raw))
    return m


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if suffix in ("s", "self_s"):
        return "s"
    if suffix.endswith("_ms"):
        return "ms"
    if name.startswith("share.") or suffix in (
            "accept_ratio", "useful_ratio", "overhead", "solve_rate"):
        return "fraction"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(DOMINANT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a difflog checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    before = tree_digest(ROOT)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), str(WORK), args.workload,
             str(args.seed), str(args.seconds), str(args.trace)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0 or not child.stdout.strip():
        sys.stderr.write(child.stderr)
        print(f"error: worker exited with code {child.returncode}", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    raw = child.stdout.strip().splitlines()[-1]
    (WORK / f"records-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(raw)
    result = json.loads(raw)

    records = result["records"]
    problems = list(result["checker_failures"])
    expected = recorded_digest(args.workload, args.seed)
    if expected is not None and expected != result["inputs_digest"]:
        problems.append(f"inputs digest {result['inputs_digest']} != recorded {expected}")
    if tree_digest(ROOT) != before:
        problems.append("files outside the benchmark changed during the run")
    # Every pass repeats the same synths, so each instance's outcome must
    # match its first pass.
    reference = {r["name"]: r["outcome"] for r in reversed(records)}
    failed = 0
    for r in records:
        if r["error"] is None and r["outcome"] != reference[r["name"]]:
            r["error"] = f"{r['name']}: outcome differs between passes"
        if r["error"] is not None:
            failed += 1
            problems.append(r["error"])
    ok = [r for r in records if r["error"] is None]
    # a synth too short to be probed runs at the median speed of the others
    probed = [r["search_probe_s"] for r in ok if r["search_probe_s"] is not None]
    for r in ok:
        if r["search_probe_s"] is None:
            r["setup_probe_s"] = r["search_probe_s"] = statistics.median(probed)
    if not ok:
        print("\n".join(f"CHECK FAILED: {p}" for p in problems), file=sys.stderr)
        return 1

    outcomes = [(name, reference[name]) for name in result["instances"]]
    print(f"workload {args.workload} seed {args.seed}: {len(result['instances'])} instances, "
          f"{len(records)} synths ({sum(not r['traced'] for r in records)} untraced)")
    print(f"inputs_sha256 {result['inputs_digest']} "
          f"({'not recorded' if expected is None else 'recorded'})")
    print(f"outcomes_sha256 {hashlib.sha256(repr(outcomes).encode()).hexdigest()}")
    for line in problems:
        print(f"CHECK FAILED: {line}")
    if args.trace:
        metrics = per_layer(result, ok)
        values = {name: (value, layer_unit(name)) for name, value in metrics.items()}
        print(f"rationale ({DOMINANT[args.workload]} dominates): "
              f"{'holds' if rationale_holds(args.workload, metrics) else 'DOES NOT HOLD'}")
    else:
        untraced = [r for r in ok if not r["traced"]]
        values = end_to_end(untraced, peak_rss_mb)
        print(f"solve_rate {sum(r['solved'] for r in untraced) / len(untraced)} fraction")
        print(f"error_rate {failed / len(records)} fraction")
        for key in ("wall_s", "cpu_s"):
            raw = sum(per_instance(untraced, lambda r: r[key]).values())
            print(f"raw {key} {raw} s (unscaled, not a metric)")
        print(f"probe_s {statistics.median(r['search_probe_s'] for r in untraced)} s "
              f"(median probe time in search; {calibrate.REFERENCE_S} s is reference speed)")
    for name, (value, unit) in values.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
