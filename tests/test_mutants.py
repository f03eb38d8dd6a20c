import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ROWS = pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])


def test_ids_are_unique():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)


@ROWS
def test_row_applies(mutant):
    # A stale row fails here, at the change that moves its code.
    assert (SRC / mutant.path).read_text().count(mutant.old) == 1
    for node in mutant.killers:
        path, *names = re.sub(r"\[.*\]$", "", node).split("::")
        assert re.search(rf"(def|class) {names[-1]}\b", (ROOT / path).read_text()), node


@pytest.mark.extended
@ROWS
def test_mutant_is_killed(mutant, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / mutant.path
    target.write_text(target.read_text().replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.killers],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    # Exit status 1: tests ran and some failed.  A collection error or an
    # empty selection exits otherwise and does not count as a kill.
    assert run.returncode == 1, run.stdout[-2000:] + run.stderr[-2000:]
