"""The README's library example runs as written."""

import re
from pathlib import Path

from cceq.equilibrium import EquilibriumResult

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    # the first python block is "Library use"; the plotting recipe after it
    # needs pandas and matplotlib, which the package does not depend on
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert "solve_reduced_rank" in blocks[0]
    namespace = {}
    exec(compile(blocks[0], f"{README}:library-use", "exec"), namespace)
    assert isinstance(namespace["full"], EquilibriumResult)
    assert isinstance(namespace["reduced"], EquilibriumResult)
