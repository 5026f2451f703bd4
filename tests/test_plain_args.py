"""``cli.main`` reads a plain command line without argparse.

A plain line is read from the parser's own actions into the namespace
``parse_args`` returns; every other line goes to ``parse_args``.  These
tests hold the two readers to each other on drawn command lines and
environments, hold ``main``'s output to what it is with the plain reader
off, and check that the benchmark's requests never reach ``parse_args``.
"""

import argparse
import importlib.util
import io
import os
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iptree import cli

ROOT = Path(__file__).resolve().parents[1]
MODEL = ROOT / "demos" / "data" / "imprecise_coin.json"
CERT = ROOT / "demos" / "data" / "cert_two_heads.json"
QUERIES = ROOT / "demos" / "data" / "queries.json"

_COMMON = {"--model": ["m.json", "a b.json"], "--json": None, "--pretty": None}
_OWN_FLAGS = {
    "eval": {
        **_COMMON, "--timing": None, "--query": ["q.json"], "--expr": ["ind(X[1]==H)", "a b", "a=b"], "--at": ["H", ""],
        "--hit-time": ["T", "H,T"], "--hit-prob": ["T", ""],
    },
    "check": {
        **_COMMON, "--seed": ["0", "12", "1_0", " 2 ", "+3"], "--expr": ["ind(X[1]==H)", "x=-1"], "--at": ["H,T", ""],
        "--trials": ["1", "10000", "0"], "--depth": ["1", "3"],
    },
}
_FLAGS = sorted({flag for flags in _OWN_FLAGS.values() for flag in flags})
_ODD_WORDS = [
    "-h", "--help", "--", "-", "--mod", "--hit", "--pre", "--tr", "--expr=-1", "--seed=3",
    "--json=x", "--model=", "-x", "--Model", "--tol", "--max-horizon",
]
_VALUES = [
    "", "m.json", "-1", "-x", "a b", "a=b", "x=-1", " -1", "1e-9", "0", "3", "5", "1.5", "abc",
    "nan", "-inf", "inf", "10001", "axioms", "oracle", "cert", "c.json", "eval", "check",
    "ind(X[1]==H)", "H,T", "H",
]
_RUNS = {
    "eval": [[]],
    "check": [["axioms"], ["oracle"], ["cert", "c.json"], ["cert"], ["cert", ""], ["audit"], []],
}
_ENV = {
    "IPTREE_MODEL": ["m.json", "", "-x"],
    "IPTREE_FORMAT": ["json", "pretty", "yaml", ""],
    "IPTREE_SEED": ["0", "7", "-1", "x", "", "1_0", " 2 "],
}


def _mostly(draw, usual, odd):
    """A draw from ``usual`` four times in five, else from ``odd``."""
    return draw(usual if draw(st.integers(0, 4)) < 4 else odd)


@st.composite
def _plainish(draw):
    """A command line built like a plain one: the subcommand's flags, each
    with a value if it takes one, and its positionals side by side somewhere
    among them.  Now and then a flag is another subcommand's or gets an odd
    value, the positionals are odd, or a word is dropped, repeated or
    swapped for an odd one."""
    command = draw(st.sampled_from(["eval", "check"]))
    own = _OWN_FLAGS[command]
    words = []
    for flag in draw(st.lists(st.sampled_from(sorted(own)), max_size=6, unique=True)):
        flag = _mostly(draw, st.just(flag), st.sampled_from(_FLAGS))
        words.append(flag)
        if own.get(flag, _VALUES) is not None:
            words.append(_mostly(draw, st.sampled_from(own.get(flag, _VALUES)), st.sampled_from(_VALUES)))
    run = _mostly(draw, st.sampled_from(_RUNS[command]), st.lists(st.sampled_from(_VALUES + _ODD_WORDS), max_size=3))
    at = draw(st.sampled_from([i for i in range(len(words) + 1) if i == len(words) or words[i] in _FLAGS]))
    words[at:at] = run
    for _ in range(_mostly(draw, st.just(0), st.integers(1, 2))):
        if not words:
            break
        edit = draw(st.sampled_from(["drop", "repeat", "odd"]))
        i = draw(st.integers(0, len(words) - 1))
        if edit == "drop":
            del words[i]
        elif edit == "repeat":
            words.insert(i, words[i])
        else:
            words[i] = draw(st.sampled_from(_ODD_WORDS))
    return [command] + words


_ANY_WORD = st.sampled_from(_FLAGS + _ODD_WORDS + _VALUES)
_ARGV = st.one_of(
    _plainish(),
    _plainish(),
    st.tuples(st.sampled_from(["eval", "check", "evaluate", "-h"]), st.lists(_ANY_WORD, max_size=8)).map(
        lambda parts: [parts[0]] + parts[1]
    ),
    st.lists(_ANY_WORD | st.sampled_from(["eval", "check"]), max_size=4),
)
_ENVIRONMENTS = st.fixed_dictionaries(
    {name: st.sampled_from([None, None, None, None] + values) for name, values in _ENV.items()}
)


@contextmanager
def _environment(env: dict):
    """``os.environ`` with each ``IPTREE_*`` variable set to its value in
    ``env``, or removed where that is None."""
    with mock.patch.dict(os.environ):
        for name in [k for k in os.environ if k.startswith("IPTREE_")]:
            del os.environ[name]
        os.environ.update({name: value for name, value in env.items() if value is not None})
        yield


def _typed(namespace) -> dict:
    """A namespace's values with their types, NaN equal to itself."""
    return {name: (type(value), repr(value)) for name, value in vars(namespace).items()}


def _parse_args(parser, argv):
    """``parser.parse_args(argv)``, or None where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(argv)
        except SystemExit:
            return None


@settings(max_examples=600, deadline=None)
@given(argv=_ARGV, env=_ENVIRONMENTS)
def test_the_plain_reader_agrees_with_argparse(argv, env):
    with _environment(env):
        parser = cli._build_parser(*cli._env_defaults())
        plain = cli._read_plain(parser, argv)
        expected = _parse_args(parser, argv)
    if expected is None:
        assert plain is None
    elif plain is not None:
        assert _typed(plain) == _typed(expected)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--model", "m.json", "--query", "q.json"],
        ["eval", "--expr", "", "--at", "", "--hit-time", "", "--hit-prob", "", "--json"],
        ["eval", "--timing", "--pretty", "--expr", "a b=c"],
        ["check", "cert", "c.json", "--model", "m.json", "--expr", "X[1]", "--at", "H"],
        ["check", "--model", "m.json", "cert", "c.json", "--seed", "4"],
        ["check", "--seed", "0", "axioms", "--trials", "10000", "--pretty"],
        ["check", "oracle", "--depth", "2", "--trials", "1"],
    ],
)
@pytest.mark.parametrize("env", [{}, {"IPTREE_SEED": "3", "IPTREE_FORMAT": "pretty"}])
def test_plain_lines_are_read_without_argparse(argv, env):
    with _environment(env):
        parser = cli._build_parser(*cli._env_defaults())
        plain = cli._read_plain(parser, argv)
        expected = parser.parse_args(argv)
    assert plain is not None and _typed(plain) == _typed(expected)


@pytest.mark.parametrize(
    "argv",
    [
        [], ["-h"], ["eval", "-h"], ["eval", "--model=m.json"], ["eval", "--mod", "m.json"],
        ["eval", "--model", "a", "--model", "b"], ["eval", "--expr", "-1*ind(X[1]==H)"], ["eval", "--", "x"],
        ["eval", "--json", "--pretty"], ["eval", "--json", "--json"], ["eval", "--model"],
        ["check", "axioms", "--seed", "1", "c.json"], ["check", "--trials", "x", "axioms"],
        ["check", "audit"], ["check"], ["eval", "x"], ["check", "cert", "a", "b"], ["eval", "--seed", "1"],
        ["eval", Path("m.json")],
    ],
)
def test_other_lines_are_left_to_argparse(argv):
    assert cli._read_plain(cli._build_parser(*cli._env_defaults()), argv) is None


def test_a_malformed_environment_value_is_left_to_argparse(monkeypatch):
    monkeypatch.setenv("IPTREE_SEED", "-1")
    parser = cli._build_parser(*cli._env_defaults())
    assert cli._read_plain(parser, ["check", "axioms", "--seed", "2"]) is None
    assert cli._read_plain(parser, ["eval", "--expr", "1"]) is not None


def _run(argv) -> tuple:
    """What ``cli.main(argv)`` prints and returns (or exits with)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


#: Values of each flag for runs through ``main``: the first ones run, the
#: others fail at the flag, at a file or at a query.
_MAIN_VALUES = {
    "--model": [str(MODEL), "missing.json", ""],
    "--json": None,
    "--pretty": None,
    "--query": [str(QUERIES), "missing.json"],
    "--expr": ["ind(X[1]==H && X[2]==H)", "ind(X[1]==H)", "", "1+", "-1"],
    "--at": ["", "H", "Q"],
    "--hit-time": ["T", "", "Z"],
    "--hit-prob": ["H"],
    "--seed": ["0", "3", "-1", "x"],
    "--trials": ["1", "2", "0", "x"],
    "--depth": ["1", "2", "0", "x"],
}
_MAIN_FLAGS = {
    "eval": ["--model", "--json", "--pretty", "--query", "--expr", "--at", "--hit-time", "--hit-prob"],
    "check": ["--model", "--json", "--pretty", "--expr", "--at", "--seed", "--trials", "--depth"],
}


@st.composite
def _main_argv(draw):
    """A command line for ``main``, built like :func:`_plainish`."""
    command = draw(st.sampled_from(["eval", "check"]))
    words = []
    for flag in draw(st.lists(st.sampled_from(_MAIN_FLAGS[command]), min_size=1, max_size=5, unique=True)):
        words.append(_mostly(draw, st.just(flag), st.sampled_from(sorted(_MAIN_VALUES))))
        values = _MAIN_VALUES[words[-1]]
        if values is not None:
            words.append(_mostly(draw, st.just(values[0]), st.sampled_from(values)))
    run = [] if command == "eval" else [["axioms"], ["oracle"], ["cert", str(CERT)], ["cert"], ["audit"]]
    run = _mostly(draw, st.sampled_from(run or [[]]), st.sampled_from([["cert", str(CERT), "x"], ["-1"]]))
    at = draw(st.sampled_from([i for i in range(len(words) + 1) if i == len(words) or words[i] in _MAIN_VALUES]))
    words[at:at] = run
    if words and not draw(st.integers(0, 4)):
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(_ODD_WORDS[2:])))
    return [command] + words


_MAIN_ENVIRONMENTS = st.fixed_dictionaries(
    {
        "IPTREE_MODEL": st.sampled_from([None, str(MODEL), str(MODEL)]),
        "IPTREE_FORMAT": st.sampled_from([None, None, "pretty", "yaml"]),
        "IPTREE_SEED": st.sampled_from([None, None, "1", "-1"]),
    }
)


@settings(max_examples=150, deadline=None)
@given(argv=_main_argv(), env=_MAIN_ENVIRONMENTS)
def test_main_prints_what_argparse_alone_prints(argv, env):
    """``--timing`` is left out: its wall-clock fields differ run to run."""
    with _environment(env):
        with_plain = _run(argv)
        with mock.patch.object(cli, "_read_plain", lambda parser, argv: None):
            without = _run(argv)
    assert with_plain == without


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--model", str(MODEL), "--query", str(QUERIES)],
        ["check", "--model", str(MODEL), "cert", str(CERT), "--expr", "ind(X[1]==H && X[2]==H)", "--at", "H"],
        ["check", "--model", str(MODEL), "axioms", "--trials", "3", "--seed", "2"],
        ["check", "--model", str(MODEL), "oracle", "--trials", "3", "--seed", "2", "--depth", "2"],
        ["eval", "--model", str(MODEL), "--query", str(QUERIES), "--pretty"],
        ["eval", "--model", str(MODEL), "--query", str(QUERIES), "--timing"],
        ["eval", "--model", str(MODEL), "--hit-time", "T", "--at", "H"],
    ],
    ids=["eval-query", "check-cert", "check-axioms", "check-oracle", "pretty", "timing", "inline-hit-time"],
)
def test_the_benchmarks_argv_forms_skip_argparse(argv, monkeypatch):
    for name in [k for k in os.environ if k.startswith("IPTREE_")]:
        monkeypatch.delenv(name)

    def refuse(*args, **kwargs):
        raise AssertionError("parse_args was called")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    out, err, code = _run(argv)
    assert (code, err) == (0, "")
    assert out.startswith("{" if "--pretty" not in argv else "iptree ")


def _load_bench(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["hitting_limits", "dense_certify"])
def test_every_benchmark_request_is_plain(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # the workloads import bench/reference.py
    for name in [k for k in os.environ if k.startswith("IPTREE_")]:
        monkeypatch.delenv(name)  # as bench/run.py removes them
    workloads = _load_bench("workloads", monkeypatch)
    parser = cli._build_parser(*cli._env_defaults())
    requests = workloads.generate(workload, 1, tmp_path)
    assert requests and all(cli._read_plain(parser, request.argv) is not None for request in requests)


def _small_parser(edit):
    parser = argparse.ArgumentParser(prog="small")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--n", type=int, default="4")
    edit(run)
    return parser


@pytest.mark.parametrize(
    "edit",
    [
        lambda run: run.set_defaults(handler="run"),
        lambda run: run.add_argument("--v", action="store_true"),
        lambda run: run.add_argument("--name", choices=("a", "b"), default="a"),
        lambda run: run.add_argument("files", nargs="?", default="in.txt"),
    ],
    ids=["parser-default", "store-true", "choices", "optional-positional"],
)
def test_the_table_is_read_from_any_parser(edit):
    parser = _small_parser(edit)
    for argv in (["run"], ["run", "--n", "2"], ["run", "--v"], ["run", "--name", "b"], ["run", "x.txt"]):
        plain = cli._read_plain(parser, argv)
        expected = _parse_args(parser, argv)
        assert (plain is None) if expected is None else _typed(plain) == _typed(expected)


@pytest.mark.parametrize(
    "edit",
    [
        lambda run: run.add_argument("--tag", action="append"),
        lambda run: run.add_argument("--k", required=True),
        lambda run: run.add_argument("files", nargs="*"),
        lambda run: run.add_argument("--n2", type=int, default="many"),
    ],
    ids=["append", "required-flag", "many-positionals", "bad-string-default"],
)
def test_a_parser_it_cannot_read_is_left_to_argparse(edit):
    assert cli._read_plain(_small_parser(edit), ["run", "--n", "2"]) is None
