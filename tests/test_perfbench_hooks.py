"""The benchmark's tracer still finds every hook it rebinds in ``difflog``.

``perfbench/tracer.py`` times each layer by rebinding module and class
attributes (``viterbi.ground``, ``Evaluator.evaluate``,
``optimizer.check_solution`` ...).  Renaming or deleting one of them breaks
the traced benchmark run.
"""

import sys
from pathlib import Path

from difflog.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_hooks_resolve_and_record_a_traced_synth(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    first = tracer.Tracer()
    tracer.install_full(first)
    first.uninstall()
    spans = tracer.Tracer()
    tracer.install_full(spans)
    try:
        code = main(["synth", str(ROOT / "problems" / "samegen"), "--seeds", "1",
                     "--base-seed", "0", "--max-iters", "2", "--out", str(tmp_path)])
    finally:
        spans.uninstall()
    assert code in (0, 2)
    names = {span[0] for span in spans.spans}
    # setup_s times the parse through cli.parse_problem, so the load must call it
    assert {"core.parse_problem", "core.ground", "viterbi.build", "viterbi.evaluate"} <= names
    assert spans.total("core.ground.clauses", lambda tag: True) > 0


def test_record_inputs_grounds_golden_with_the_recorded_clause_count(monkeypatch, tmp_path):
    # record_inputs.py re-records perfbench/inputs.json; it builds each
    # Evaluator with output_relations= and counts clauses through viterbi.ground
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("tracer", "oracle", "workloads", "record_inputs"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import record_inputs
    import workloads

    sizes = record_inputs.sizes(workloads.golden(ROOT, tmp_path, 0))
    assert sizes["ground_clauses"] == 55213
