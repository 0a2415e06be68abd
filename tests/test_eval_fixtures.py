"""Byte-identity of ``difflog eval``'s output.

The files under ``tests/data/eval`` were written by ``difflog eval`` while
evaluation results still carried a ``Provenance`` object per fact.  The
value and provenance columns are read from the result arrays now, and any
change to them, to their order or to their formatting shows up here.
"""

from pathlib import Path

import pytest

from difflog.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "eval"


@pytest.mark.parametrize("name, weights", [
    ("samegen", None), ("andersen", None), ("samegen", "samegen.weights")])
def test_eval_stdout_is_byte_identical(name, weights, capsysbinary):
    argv = ["eval", str(ROOT / "problems" / name)]
    if weights is not None:
        argv += ["--weights", str(DATA / weights)]
    assert main(argv) == 0
    expected = DATA / (f"{name}_weighted.tsv" if weights else f"{name}.tsv")
    assert capsysbinary.readouterr().out == expected.read_bytes()
