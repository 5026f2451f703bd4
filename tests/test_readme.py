"""The JSON examples in README.md load through the package's loaders, the
flags and environment variables it names are the command line's, the
policy fields it names are the loader's and the engine's, and the limits'
audit trail and comparison cap it states are the engine's, so a schema,
CLI or engine change cannot leave the documentation behind."""

import argparse
import dataclasses
import json
import re
from pathlib import Path

from iptree import cli, engine, modelio
from iptree.gambles import COMPARE_CAP
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


def cli_commands() -> list:
    """``(subcommand, line)`` for each ``iptree`` command in the bash blocks
    of README.md's command-line section, its continuation lines joined and
    its comment cut."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command-line interface\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"^```bash\n(.*?)^```$", section, re.DOTALL | re.MULTILINE):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0]
            words = line.split()
            if words[:1] == ["iptree"]:
                commands.append((words[1], line))
            elif words:  # an option line under the command above
                commands[-1] = (commands[-1][0], commands[-1][1] + " " + line)
    return commands


def test_readme_flags_are_the_parsers():
    parser = cli._build_parser(*(fallback for _, fallback in cli._ENV_DEFAULTS))
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = cli_commands()
    assert {name for name, _ in commands} == set(subcommands.choices)
    for name, line in commands:
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", line))
        assert flags and flags <= set(subcommands.choices[name]._option_string_actions), (line, flags)


def test_readme_environment_variables_are_read():
    names = set(re.findall(r"\bIPTREE_[A-Z_]+", README.read_text(encoding="utf-8")))
    assert names and names <= {cli._ENV_PREFIX + name.upper() for name, _ in cli._ENV_DEFAULTS}


def test_readme_trail_and_cap_are_the_engines():
    text = " ".join(README.read_text(encoding="utf-8").split())
    stated = set(re.findall(r"horizons (\d+) to (\d+)", text))
    assert stated == {("1", str(engine._TRAIL))}
    assert f"exceed {COMPARE_CAP} pairs" in text


def test_readme_policy_fields_are_the_loaders_and_the_engines():
    text = README.read_text(encoding="utf-8")
    (row,) = re.findall(r"^\| `policy` \|(.*)$", text, re.MULTILINE)
    assert set(re.findall(r"`(\w+)`", row)) == set(modelio._POLICY_FIELDS)
    # A Policy field appears as a keyword of Policy(...) or as a name in
    # backquotes; every snake_case name the README quotes must still be
    # one of the package's, so a retired field cannot linger in the text.
    fields = {f.name for f in dataclasses.fields(engine.Policy)}
    for call in re.findall(r"\bPolicy\(([^)]*)\)", text):
        assert set(re.findall(r"(\w+)=", call)) <= fields, call
    source = " ".join(path.read_text(encoding="utf-8") for path in Path(engine.__file__).parent.glob("*.py"))
    words = set(re.findall(r"\w+", source))
    quoted = set(re.findall(r"`([a-z]+(?:_[a-z]+)+)`", text))
    assert quoted - words == set()
