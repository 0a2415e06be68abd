#!/usr/bin/env python3
"""Record the benchmark inputs in ``perfbench/inputs.json``.

For every workload: the digest of the generated inputs for seeds 0..31,
which ``run.py`` compares against on every run so that a change to the
inputs shows, and the sizes at seed 0 (facts, rules, labels, ground
clauses).  Rerun only when a workload is deliberately changed:

    python3 perfbench/record_inputs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import oracle
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench" / "record"
SEEDS = range(32)


def sizes(instances) -> dict[str, int]:
    from difflog import parse_problem, viterbi

    tracer = Tracer()
    tracer.wrap(viterbi, "ground", "core.ground",
                on_result=lambda t, r, a: t.count("clauses", len(r)))
    out = {"instances": len(instances), "facts": 0, "rules": 0, "labels": 0}
    try:
        for inst in instances:
            facts, pos, neg, rules = oracle.read_problem(inst.directory)
            out["facts"] += len(facts)
            out["rules"] += len(rules)
            out["labels"] += len(pos) + len(neg)
            problem = parse_problem(inst.directory)
            viterbi.Evaluator(problem.rules, problem.input, output_relations=[
                d.name for d in problem.relations.values() if d.kind == "output"])
    finally:
        tracer.uninstall()
    out["ground_clauses"] = tracer.total("clauses", lambda tag: True)
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    record = {"seeds": f"{SEEDS.start}-{SEEDS.stop - 1}", "workloads": {}}
    for name, generate in workloads.GENERATORS.items():
        digests = {}
        for seed in SEEDS:
            instances = generate(ROOT, WORK, seed)
            digests[str(seed)] = workloads.digest(instances)
            if seed == 0:
                size = sizes(instances)
        record["workloads"][name] = {"sizes_at_seed_0": size, "inputs_sha256": digests}
        print(name, size)
    (HERE / "inputs.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
