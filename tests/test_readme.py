"""The README's library example runs as written, and its config schema is
one that ``cceq run`` accepts, with the scenario defaults it shows."""

import inspect
import json
import re
from pathlib import Path

from cceq.equilibrium import EquilibriumResult
from cceq.harness import ExperimentConfig
from cceq.vq import generate_instance

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


def test_config_schema_is_accepted_with_the_default_scenario():
    block = re.search(r"### Config schema.*?```jsonc\n(.*?)```", README.read_text(),
                      flags=re.S).group(1)
    doc = json.loads(re.sub(r"//.*", "", block))
    config = ExperimentConfig.from_dict(doc)
    # every scenario keyword the generator takes, each at its default
    keywords = config.scenario_kwargs()
    assert set(keywords) == {name for name, p in inspect.signature(generate_instance)
                             .parameters.items() if p.kind is p.KEYWORD_ONLY}
    for seed in range(3):
        assert generate_instance(8, 5, seed, **keywords) == generate_instance(8, 5, seed)
