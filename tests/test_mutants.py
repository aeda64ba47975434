"""The mutants of `tests/mutants.py` still name program text: each old
text occurs exactly once in `src/`, in the mutant's file.  The mutants
themselves run outside tier-1 (`python tests/mutants.py`)."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_text_occurs_once_in_src(mutant):
    src = ROOT / "src"
    counts = {path.relative_to(src).as_posix(): path.read_text().count(mutant.old)
              for path in src.rglob("*.py")}
    assert {file: k for file, k in counts.items() if k} == {mutant.file: 1}
