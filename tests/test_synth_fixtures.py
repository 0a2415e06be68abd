"""Byte-identity of synth's outputs at a fixed base seed.

The files under ``tests/data/synth`` were written by ``difflog synth`` before
the search core moved to arrays.  Any change to the search arithmetic, the
RNG draw order or the report and trace formats shows up here as a diff.
"""

from pathlib import Path

import pytest

from difflog.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "synth"


def assert_same_files(expected: Path, out: Path) -> None:
    names = sorted(p.name for p in expected.iterdir() if p.suffix != ".cnf")
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name


@pytest.mark.parametrize("name", ["samegen", "andersen"])
def test_golden_synth_is_byte_identical(name, tmp_path):
    code = main(["synth", str(ROOT / "problems" / name), "--seeds", "16",
                 "--base-seed", "0", "--trace", "--out", str(tmp_path)])
    assert code == 0
    assert_same_files(DATA / name, tmp_path)


def test_3cnf_synth_is_byte_identical(tmp_path):
    problem, out = tmp_path / "problem", tmp_path / "out"
    assert main(["encode-3cnf", str(DATA / "cnf4" / "formula.cnf"), "--out", str(problem)]) == 0
    code = main(["synth", str(problem), "--seeds", "4", "--base-seed", "0", "--trace",
                 "--max-iters", "40", "--mcmc-period", "4", "--out", str(out)])
    assert code == 2
    assert_same_files(DATA / "cnf4", out)
