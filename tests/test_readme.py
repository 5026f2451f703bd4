"""The JSON examples in README.md load through the package's loaders, so a
schema change cannot leave the documentation behind."""

import json
import re
from pathlib import Path

from iptree.modelio import load_certificate, load_model, load_queries

README = Path(__file__).resolve().parents[1] / "README.md"


def json_blocks() -> list:
    """The documents of README.md's ```json blocks, in order."""
    text = README.read_text(encoding="utf-8")
    return [json.loads(block) for block in re.findall(r"^```json\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)]


def test_readme_examples_load():
    model, queries, certificate = json_blocks()
    tree = load_model(model)
    assert tree.state_space.labels == ("H", "T")
    model_ref, loaded = load_queries(queries)
    assert model_ref == queries["model"]
    assert [q["kind"] for q in loaded] == [q["kind"] for q in queries["queries"]]
    process, declared = load_certificate(certificate, tree.state_space)
    assert (process.depth, declared) == (certificate["depth"], certificate["lower_bound"])
