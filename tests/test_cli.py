import io
import json
import math
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iptree import cli
from iptree.cli import main
from iptree.engine import Policy
from iptree.errors import ResourceLimitError
from iptree.expr import MAX_NESTING, MAX_TABLE_DEPTH, compile_gamble, parse_gamble
from iptree.local import StateSpace
from iptree.modelio import load_model

MODEL = {
    "schema": 1,
    "states": ["H", "T"],
    "model": {"kind": "homogeneous", "extreme_points": [[0.4, 0.6], [0.6, 0.4]]},
}

QUERIES = {
    "schema": 1,
    "queries": [
        {"kind": "eval", "expression": "ind(X[1]==H)", "condition": ""},
        {
            "kind": "hit_time",
            "targets": ["T"],
            "condition": "",
            "policy": {"tol": 1e-9, "max_horizon": 60},
        },
    ],
}


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL))
    return str(path)


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "queries.json"
    path.write_text(json.dumps(QUERIES))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEval:
    def test_inline_expression(self, capsys, model_file):
        code, out = run(capsys, "eval", "--model", model_file, "--expr", "ind(X[1]==H)")
        assert code == 0
        report = json.loads(out)
        rec = report["results"][0]
        assert rec["upper"] == pytest.approx(0.6)
        assert rec["lower"] == pytest.approx(0.4)

    def test_query_file_hit_time(self, capsys, model_file, query_file):
        code, out = run(capsys, "eval", "--model", model_file, "--query", query_file)
        assert code == 0
        report = json.loads(out)
        hit = report["results"][1]
        assert hit["converged"] is True
        assert hit["upper"]["value"] == pytest.approx(2.5, abs=1e-7)
        assert hit["lower"]["value"] == pytest.approx(5.0 / 3.0, abs=1e-7)
        assert hit["upper"]["iterates"][0] == [1, 1.0]

    def test_empty_query_list(self, capsys, model_file, tmp_path):
        q = tmp_path / "empty.json"
        q.write_text(json.dumps({"schema": 1, "queries": []}))
        code, out = run(capsys, "eval", "--model", model_file, "--query", str(q))
        assert code == 0
        assert json.loads(out)["results"] == []

    def test_conditioning_flag(self, capsys, model_file):
        code, out = run(
            capsys, "eval", "--model", model_file, "--expr", "ind(X[2]==H)", "--at", "T"
        )
        assert code == 0
        assert json.loads(out)["results"][0]["upper"] == pytest.approx(0.6)

    def test_byte_identical_reports(self, capsys, model_file, query_file):
        _, first = run(capsys, "eval", "--model", model_file, "--query", query_file)
        _, second = run(capsys, "eval", "--model", model_file, "--query", query_file)
        assert first == second

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_flag_exits_2(self, capsys, model_file, tol):
        code, out = run(capsys, "eval", "--model", model_file, "--hit-time", "T", "--tol", tol)
        assert code == 2
        rec = json.loads(out)["results"][0]
        assert not rec["ok"]
        assert "finite" in rec["error"]

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("IPTREE_SEED", "abc", "argument --seed: invalid int value: 'abc'"),
            ("IPTREE_TOL", "tight", "argument --tol: invalid float value: 'tight'"),
            ("IPTREE_MAX_HORIZON", "1.5", "argument --max-horizon: invalid int value: '1.5'"),
            ("IPTREE_FORMAT", "yaml", "IPTREE_FORMAT: invalid choice: 'yaml'"),
        ],
    )
    def test_bad_env_value_exits_2(self, capsys, model_file, monkeypatch, name, value, message):
        monkeypatch.setenv(name, value)
        if name == "IPTREE_SEED":  # a default of check's alone
            argv = ["check", "--model", model_file, "axioms"]
        else:
            argv = ["eval", "--model", model_file, "--expr", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_env_value_is_a_default(self, capsys, model_file, monkeypatch):
        monkeypatch.setenv("IPTREE_SEED", "5")
        _, out = run(capsys, "check", "--model", model_file, "axioms", "--trials", "1")
        assert json.loads(out)["seed"] == 5
        _, out = run(capsys, "check", "--model", model_file, "axioms", "--trials", "1", "--seed", "6")
        assert json.loads(out)["seed"] == 6
        _, out = run(capsys, "eval", "--model", model_file, "--expr", "1")
        assert "seed" not in json.loads(out)

    def test_eval_takes_no_seed(self, capsys, model_file):
        # eval runs nothing randomized.
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", model_file, "--expr", "1", "--seed", "6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 6" in capsys.readouterr().err

    def test_inline_hit_prob(self, capsys, model_file):
        code, out = run(capsys, "eval", "--model", model_file, "--hit-prob", "T", "--max-horizon", "60")
        assert code == 0
        rec = json.loads(out)["results"][0]
        assert rec["upper"]["value"] == pytest.approx(1.0, abs=1e-6)

    def test_timing_flag_adds_fields(self, capsys, model_file):
        _, out = run(capsys, "eval", "--model", model_file, "--expr", "1", "--timing")
        assert "wall_time_ms" in json.loads(out)

    def test_no_nan_and_infinities_as_strings(self, capsys, model_file, tmp_path):
        q = tmp_path / "div.json"
        q.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "queries": [
                        {
                            "kind": "hit_time",
                            "targets": ["T"],
                            "policy": {"max_horizon": 3, "tol": 1e-15},
                        }
                    ],
                }
            )
        )
        code, out = run(capsys, "eval", "--model", model_file, "--query", str(q))
        assert code == 0
        assert "NaN" not in out and "Infinity" not in out

    def test_pretty_output(self, capsys, model_file):
        code, out = run(capsys, "eval", "--model", model_file, "--expr", "ind(X[1]==H)", "--pretty")
        assert code == 0
        assert "upper = 0.6" in out

    def test_pretty_output_shows_a_query_error(self, capsys, model_file):
        code, out = run(capsys, "eval", "--model", model_file, "--expr", "ind(X[1]==Z)", "--pretty")
        assert code == 2
        assert out.splitlines()[-2:] == [
            "[0] eval  'ind(X[1]==Z)'",
            "    error: line 1, column 11: unknown state label 'Z'; states are ['H', 'T']",
        ]

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("1e308*10", "finitary gamble payoffs must be finite"),
            ("1e308+1e308", "finitary gamble payoffs must be finite"),
            ("1e308*10*0", "NaN is not a valid payoff"),
            ("1e308*10 - 1e308*10", "NaN is not a valid payoff"),
        ],
    )
    def test_overflowing_expression_warns_nothing(self, capsys, model_file, expr, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--model", model_file, "--expr", expr])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == ""
        assert json.loads(out)["results"][0]["error"] == f"--expr: {message}"

    def test_expression_error_exits_2(self, capsys, model_file):
        code, out = run(capsys, "eval", "--model", model_file, "--expr", "ind(X[1]==Q)")
        assert code == 2
        rec = json.loads(out)["results"][0]
        assert not rec["ok"]
        assert "unknown state label" in rec["error"]

    def test_malformed_model_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "states": ["H", "T"], "model": {"kind": "nope"}}))
        code = main(["eval", "--model", str(bad), "--expr", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "model.kind" in err

    def test_env_var_model(self, capsys, model_file, monkeypatch):
        monkeypatch.setenv("IPTREE_MODEL", model_file)
        code, out = run(capsys, "eval", "--expr", "ind(X[1]==H)")
        assert code == 0
        assert json.loads(out)["results"][0]["upper"] == pytest.approx(0.6)

    @pytest.mark.parametrize(
        "flag, error",
        [
            ("--expr", "line 1, column 1: expected a factor, found 'end of input'"),
            ("--hit-time", "--hit-time: unknown state label ''; states are ['H', 'T']"),
            ("--hit-prob", "--hit-prob: unknown state label ''; states are ['H', 'T']"),
        ],
        ids=["expr", "hit-time", "hit-prob"],
    )
    def test_an_empty_inline_query_is_run(self, capsys, model_file, flag, error):
        code, out = run(capsys, "eval", "--model", model_file, flag, "")
        assert code == 2
        (rec,) = json.loads(out)["results"]
        assert rec["query"]["condition"] == "" and rec["error"] == error

    @pytest.mark.parametrize(
        "argv",
        [["--at", "ZZZ"], ["--at", ""], ["--expr", ""], ["--hit-time", ""], ["--hit-prob", ""]],
        ids=["at", "empty-at", "empty-expr", "empty-hit-time", "empty-hit-prob"],
    )
    def test_a_query_file_takes_no_inline_flag(self, capsys, model_file, query_file, argv):
        assert main(["eval", "--model", model_file, "--query", query_file, *argv]) == 2
        assert capsys.readouterr() == ("", "error: --query and inline query flags are mutually exclusive\n")


class TestCheck:
    def test_axioms_pass(self, capsys, model_file):
        code, out = run(capsys, "check", "--model", model_file, "axioms", "--trials", "20", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert {s["name"] for s in report["suites"]} == {"model-local-coherence", "global-process"}

    def test_oracle_pass(self, capsys, model_file):
        code, out = run(
            capsys, "check", "--model", model_file, "oracle",
            "--depth", "3", "--trials", "50", "--seed", "7",
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["suites"][0]["checks"] == 50

    @pytest.mark.parametrize(
        "depth, message",
        [
            ("16", "--depth: gambles of depth 16 would need 2**16 cells, cap is 4096"),
            ("40", "--depth: gambles of depth 40 would need 2**40 cells, cap is 4096"),
            ("5", "--depth: enumerating compatible selections exceeds the cap of 200000"),
        ],
    )
    def test_oracle_caps_exit_2_with_one_line(self, capsys, model_file, depth, message):
        code = main(["check", "--model", model_file, "oracle", "--depth", depth, "--trials", "3"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_oracle_depth_cap_trips_before_drawing(self, monkeypatch):
        from iptree import suites

        def draw(*args):
            raise AssertionError("a gamble was drawn")

        monkeypatch.setattr(suites, "_drawn", draw)
        tree = load_model(MODEL)
        with pytest.raises(ResourceLimitError, match=r"^gambles of depth 1000000000 would need 2\*\*1000000000 cells"):
            suites.model_oracle_suite(tree, seed=0, trials=1, depth=10**9)

    def test_check_deterministic(self, capsys, model_file):
        _, a = run(capsys, "check", "--model", model_file, "oracle", "--seed", "3", "--trials", "10")
        _, b = run(capsys, "check", "--model", model_file, "oracle", "--seed", "3", "--trials", "10")
        assert a == b

    def test_cert_roundtrip(self, capsys, model_file, tmp_path):
        from iptree.expr import compile_gamble, parse_gamble
        from iptree.modelio import dump_certificate, load_model_file
        from iptree.supermartingale import canonical_supermartingale

        tree = load_model_file(model_file)
        f = compile_gamble(parse_gamble("ind(X[1]==H && X[2]==H)", tree.state_space))
        cert_doc = dump_certificate(canonical_supermartingale(tree, f), tree.state_space)
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert_doc))
        code, out = run(
            capsys, "check", "--model", model_file, "cert", str(cert_path),
            "--expr", "ind(X[1]==H && X[2]==H)",
        )
        assert code == 0
        report = json.loads(out)
        assert report["certificate"]["valid"] is True
        assert report["certificate"]["gap"] == pytest.approx(0.0, abs=1e-12)

    def test_cert_on_a_table_builds_the_situation_strings_once(self, capsys, tmp_path, monkeypatch):
        # The model's table and the certificate share a state space and a
        # depth, so they share one map of situation strings to positions.
        from iptree import modelio
        from iptree.supermartingale import canonical_supermartingale
        from iptree.tree import all_situations, format_situation

        space = StateSpace(("H", "T"))
        entries = {format_situation(space, s): [[0.4, 0.6], [0.6, 0.4]] for s in all_situations(2, 2)}
        table = {"kind": "table", "depth": 2, "entries": entries, "default": [[0.5, 0.5]]}
        model = {"schema": 1, "states": ["H", "T"], "model": table}
        model_path, cert_path = tmp_path / "table.json", tmp_path / "cert.json"
        model_path.write_text(json.dumps(model))
        tree = load_model(model)
        f = compile_gamble(parse_gamble("ind(X[1]==H && X[2]==H)", tree.state_space))
        cert_path.write_text(json.dumps(modelio.dump_certificate(canonical_supermartingale(tree, f), tree.state_space)))
        built = []
        strings = modelio.situation_strings
        monkeypatch.setattr(modelio, "situation_strings", lambda *args: built.append(args[1]) or strings(*args))
        code, out = run(capsys, "check", "--model", str(model_path), "cert", str(cert_path), "--expr", "ind(X[1]==H && X[2]==H)")
        assert code == 0 and json.loads(out)["certificate"]["valid"] is True
        assert built == [2]

    def test_cert_below_value_fails(self, capsys, model_file, tmp_path):
        cert = {
            "schema": 1,
            "depth": 1,
            "lower_bound": 0.0,
            "table": {"": 0.0, "H": 1.0, "T": 0.0},
        }
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code, out = run(
            capsys, "check", "--model", model_file, "cert", str(cert_path),
            "--expr", "ind(X[1]==H)",
        )
        assert code == 1
        assert json.loads(out)["certificate"]["valid"] is False

    @pytest.mark.parametrize("flag", ["--tol=0", "--max-horizon=5", "--timing"])
    def test_eval_only_flags_are_unrecognized(self, capsys, model_file, flag):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--model", model_file, "axioms", flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    CERT = str(Path(__file__).resolve().parents[1] / "demos" / "data" / "cert_two_heads.json")

    @pytest.mark.parametrize(
        "argv, unread",
        [
            (["oracle", "--trials", "1", "--expr", "nope", "--at", "Q"], "--expr, --at"),
            (["oracle", "--trials", "1", "--at", ""], "--at"),
            (["axioms", "--trials", "1", "--depth", "7"], "--depth"),
            (["axioms", "nothing.json", "--trials", "1"], "a certificate file"),
            (["cert", CERT, "--expr", "ind(X[1]==H && X[2]==H)", "--trials", "1"], "--trials"),
            (["cert", CERT, "--expr", "ind(X[1]==H && X[2]==H)", "--depth", "3"], "--depth"),
        ],
        ids=["oracle-expr-at", "oracle-empty-at", "axioms-depth", "axioms-file", "cert-trials", "cert-depth"],
    )
    def test_battery_rejects_arguments_it_does_not_read(self, capsys, model_file, argv, unread):
        assert main(["check", "--model", model_file, *argv]) == 2
        assert capsys.readouterr() == ("", f"error: check {argv[0]} does not read {unread}\n")

    def test_policy_variables_do_not_reach_check(self, capsys, model_file, monkeypatch):
        monkeypatch.setenv("IPTREE_TOL", "tight")
        monkeypatch.setenv("IPTREE_MAX_HORIZON", "0")
        code, out = run(capsys, "check", "--model", model_file, "axioms", "--trials", "1")
        assert code == 0 and json.loads(out)["passed"] is True

    def test_malformed_cert_exits_2(self, capsys, model_file, tmp_path):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"schema": 1, "depth": 1, "lower_bound": 0.0, "table": {"": 0.0}}))
        code = main([
            "check", "--model", model_file, "cert", str(cert_path), "--expr", "ind(X[1]==H)",
        ])
        assert code == 2
        assert "table" in capsys.readouterr().err


class TestQuerySchemaErrors:
    def test_bad_kind_path(self, capsys, model_file, tmp_path):
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"schema": 1, "queries": [{"kind": "bogus"}]}))
        code = main(["eval", "--model", model_file, "--query", str(q)])
        assert code == 2
        assert "queries[0].kind" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "query, path",
        [
            ({"kind": "eval", "expression": "1", "seed": 3, "bogus": 1}, "queries[1].seed"),
            ({"kind": "lower", "expression": "1", "certificate": "cert.json"}, "queries[1].certificate"),
            ({"kind": "eval", "expression": "1", "targets": ["T"]}, "queries[1].targets"),
            ({"kind": "hit_time", "targets": ["T"], "expression": "1"}, "queries[1].expression"),
            ({"kind": "hit_prob", "targets": ["T"], "policy": {}, "Condition": "H"}, "queries[1].Condition"),
        ],
        ids=["seed", "certificate", "targets-on-eval", "expression-on-hit", "case"],
    )
    def test_unknown_query_field_path(self, capsys, model_file, tmp_path, query, path):
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"schema": 1, "queries": [{"kind": "eval", "expression": "1"}, query]}))
        code = main(["eval", "--model", model_file, "--query", str(q)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        own = "expression" if query["kind"] in ("eval", "lower") else "targets"
        known = sorted(["kind", own, "condition", "policy"])
        assert err == f"error: {path}: unknown query field; known: {known}\n"

    def test_unknown_document_key_path(self, capsys, model_file, tmp_path):
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"schema": 1, "queries": [], "bogus": 1}))
        code = main(["eval", "--model", model_file, "--query", str(q)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: bogus: unknown document field; known: ['model', 'queries', 'schema']\n"

    def test_bad_policy_field_path(self, capsys, model_file, tmp_path):
        q = tmp_path / "q.json"
        q.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "queries": [
                        {"kind": "eval", "expression": "1", "policy": {"nope": 3}}
                    ],
                }
            )
        )
        code = main(["eval", "--model", model_file, "--query", str(q)])
        assert code == 2
        assert "queries[0].policy.nope" in capsys.readouterr().err


class TestQueryFileExtras:
    def test_model_reference_in_query_file(self, capsys, model_file, tmp_path):
        q = tmp_path / "q.json"
        q.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "model": model_file,
                    "queries": [{"kind": "eval", "expression": "ind(X[1]==H)"}],
                }
            )
        )
        code, out = run(capsys, "eval", "--query", str(q))
        assert code == 0
        assert json.loads(out)["results"][0]["upper"] == pytest.approx(0.6)

    def test_non_finite_policy_rejected(self, capsys, model_file, tmp_path):
        q = tmp_path / "q.json"
        q.write_text(
            '{"schema": 1, "queries": [{"kind": "eval", "expression": "1",'
            ' "policy": {"tol": Infinity}}]}'
        )
        code = main(["eval", "--model", model_file, "--query", str(q)])
        assert code == 2
        assert "queries[0].policy.tol" in capsys.readouterr().err


def _eval_queries(capsys, tmp_path, model: dict, queries: list) -> tuple[int, str, list]:
    """Run ``iptree eval`` on a model and a query list; exit code, stdout and records."""
    (tmp_path / "m.json").write_text(json.dumps(model))
    (tmp_path / "q.json").write_text(json.dumps({"schema": 1, "queries": queries}))
    code, out = run(capsys, "eval", "--model", str(tmp_path / "m.json"), "--query", str(tmp_path / "q.json"))
    return code, out, json.loads(out)["results"]


def _homogeneous(states, *points) -> dict:
    return {"schema": 1, "states": list(states), "model": {"kind": "homogeneous", "extreme_points": list(points)}}


class TestSolvedHitQueries:
    """Hit queries report the limit solved on the product closure."""

    @staticmethod
    def hits(targets, condition=""):
        return [{"kind": kind, "targets": targets, "condition": condition} for kind in ("hit_time", "hit_prob")]

    def test_exact_values(self, capsys, tmp_path):
        slow = _homogeneous("HT", [0.99, 0.01], [0.97, 0.03])
        for model, want in ((MODEL, (2.5, 5.0 / 3.0, 1.0, 1.0)), (slow, (100.0, 100.0 / 3.0, 1.0, 1.0))):
            code, out, (time, prob) = _eval_queries(capsys, tmp_path, model, self.hits(["T"]))
            assert code == 0
            got = (time["upper"]["value"], time["lower"]["value"], prob["upper"]["value"], prob["lower"]["value"])
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_unreachable_target(self, capsys, tmp_path):
        model = _homogeneous("ABC", [0.5, 0.5, 0.0], [0.2, 0.8, 0.0])
        code, out, (time, prob) = _eval_queries(capsys, tmp_path, model, self.hits(["C"]))
        assert code == 0 and "NaN" not in out
        assert [time[side]["value"] for side in ("upper", "lower")] == ["+inf", "+inf"]
        assert [prob[side]["value"] for side in ("upper", "lower")] == [0.0, 0.0]
        for rec in (time, prob):
            assert rec["converged"] is True
            assert {rec[side]["stop_reason"] for side in ("upper", "lower")} == {"solved"}

    def test_a_surely_avoidable_target(self, capsys, tmp_path):
        model = _homogeneous("HT", [1.0, 0.0], [0.5, 0.5])
        code, out, (time, prob) = _eval_queries(capsys, tmp_path, model, self.hits(["T"], "H"))
        assert code == 0 and "NaN" not in out
        assert prob["lower"]["value"] == 0.0 and prob["upper"]["value"] == pytest.approx(1.0)
        assert time["upper"]["value"] == "+inf" and time["lower"]["value"] == pytest.approx(3.0)
        assert {rec[side]["stop_reason"] for rec in (time, prob) for side in ("upper", "lower")} == {"solved"}

    def test_iterates_are_the_audited_window(self, capsys, tmp_path):
        audit = Policy().monotone_audit
        code, _, records = _eval_queries(capsys, tmp_path, MODEL, self.hits(["T"]))
        assert code == 0
        for rec in records:
            for side in ("upper", "lower"):
                assert [m for m, _ in rec[side]["iterates"]] == list(range(1, 2 + audit))


class TestPolicyErrors:
    """A policy value that the flags or the query schema let through, but
    the engine rejects, is reported with its source."""

    @pytest.mark.parametrize(
        "argv, env, source",
        [
            (["--tol=0"], {}, "--tol/IPTREE_TOL"),
            (["--max-horizon=0"], {}, "--max-horizon/IPTREE_MAX_HORIZON"),
            ([], {"IPTREE_TOL": "-1"}, "--tol/IPTREE_TOL"),
            ([], {"IPTREE_MAX_HORIZON": "-2"}, "--max-horizon/IPTREE_MAX_HORIZON"),
        ],
    )
    def test_flag_or_environment(self, capsys, model_file, monkeypatch, argv, env, source):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code, out = run(capsys, "eval", "--model", model_file, "--hit-time", "T", *argv)
        assert code == 2
        (rec,) = json.loads(out)["results"]
        assert rec["error"].startswith(f"{source}: policy fields must be positive and finite")

    @pytest.mark.parametrize(
        "field, value, shown", [("tol", 0, "0.0"), ("max_horizon", 0, "0"), ("divergence_threshold", -1, "-1.0")]
    )
    def test_query_file_field(self, capsys, tmp_path, field, value, shown):
        queries = [{"kind": "eval", "expression": "1"}, {"kind": "hit_prob", "targets": ["T"], "policy": {field: value}}]
        code, _, records = _eval_queries(capsys, tmp_path, MODEL, queries)
        assert code == 2 and records[0]["ok"]
        assert records[1]["error"] == f"queries[1].policy.{field}: policy fields must be positive and finite, got {shown}"


class TestLabelErrors:
    """An unknown label in a condition or in targets is reported at its
    JSON path, or for an inline query at its flag."""

    UNKNOWN = "unknown state label 'Z'; states are ['H', 'T']"

    def test_query_file_fields(self, capsys, tmp_path):
        queries = [
            {"kind": "hit_prob", "targets": ["Z"]},
            {"kind": "eval", "expression": "1", "condition": "H,Z"},
            {"kind": "hit_time", "targets": ["T", "Z"], "condition": "Z"},
            {"kind": "hit_time", "targets": ["T"]},
        ]
        code, _, records = _eval_queries(capsys, tmp_path, MODEL, queries)
        assert code == 2
        assert [rec.get("error") for rec in records] == [
            f"queries[0].targets: {self.UNKNOWN}",
            f"queries[1].condition: {self.UNKNOWN}",
            f"queries[2].condition: {self.UNKNOWN}",  # the condition is read first
            None,
        ]

    @pytest.mark.parametrize(
        "argv, source",
        [
            (["--expr", "1", "--at", "H,Z"], "--at"),
            (["--hit-time", "Z"], "--hit-time"),
            (["--hit-prob", "T,Z"], "--hit-prob"),
        ],
    )
    def test_inline_flags(self, capsys, model_file, argv, source):
        code, out = run(capsys, "eval", "--model", model_file, *argv)
        assert code == 2
        (rec,) = json.loads(out)["results"]
        assert rec["error"] == f"{source}: {self.UNKNOWN}"

    def test_check_cert_condition(self, capsys, model_file, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"schema": 1, "depth": 0, "lower_bound": 1.0, "table": {"": 1.0}}))
        code = main(["check", "--model", model_file, "cert", str(cert), "--expr", "1", "--at", "Z"])
        assert code == 2
        assert capsys.readouterr().err == f"error: --at: {self.UNKNOWN}\n"


class TestNoNegativeZero:
    """Lower values and their iterates are negated as ``0.0 - x``, so a zero
    is reported as ``0.0``, never ``-0.0``."""

    @pytest.mark.parametrize(
        "argv",
        [["--expr", "0"], ["--expr", "ind(X[1]==H) - ind(X[1]==H)"], ["--hit-prob", "T", "--at", "H"]],
        ids=["zero", "difference", "hit-prob-at-H"],
    )
    def test_inline_queries(self, capsys, model_file, argv):
        code, out = run(capsys, "eval", "--model", model_file, *argv)
        assert code == 0
        assert "-0.0" not in out

    def test_zero_lower_is_positive_zero(self, capsys, tmp_path):
        code, out, records = _eval_queries(
            capsys, tmp_path, MODEL, [{"kind": "eval", "expression": "0"}, {"kind": "lower", "expression": "0"}]
        )
        assert code == 0
        assert "-0.0" not in out
        assert [math.copysign(1.0, rec["lower"]) for rec in records] == [1.0, 1.0]


class TestSizeCapErrors:
    """An expression whose table would exceed its cap fails at the
    expression's JSON path or flag, still as a ``ResourceLimitError``."""

    DEEP = "sum(i=1..13, ind(X[i]==H))"
    MESSAGE = "table would need 8192 cells, cap is 4096"

    def test_query_file(self, capsys, tmp_path):
        queries = [
            {"kind": "eval", "expression": "1"},
            {"kind": "eval", "expression": self.DEEP},
            {"kind": "lower", "expression": "ind(X[2]==H)", "policy": {"table_cap": 2}},
        ]
        code, _, records = _eval_queries(capsys, tmp_path, MODEL, queries)
        assert code == 2
        assert [rec.get("error") for rec in records] == [
            None,
            f"queries[1].expression: {self.MESSAGE}",
            "queries[2].expression: table would need 4 cells, cap is 2",
        ]

    def test_inline_expr(self, capsys, model_file):
        code, out = run(capsys, "eval", "--model", model_file, "--expr", self.DEEP)
        assert code == 2
        (rec,) = json.loads(out)["results"]
        assert rec["error"] == f"--expr: {self.MESSAGE}"

    def test_check_cert_expr(self, capsys, model_file, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"schema": 1, "depth": 0, "lower_bound": 1.0, "table": {"": 1.0}}))
        code = main(["check", "--model", model_file, "cert", str(cert), "--expr", self.DEEP])
        assert code == 2
        assert capsys.readouterr().err == f"error: --expr: {self.MESSAGE}\n"

    def test_error_class_is_kept(self):
        space = StateSpace(("H", "T"))
        with pytest.raises(ResourceLimitError, match=r"^--expr: table would need 8192 cells"):
            cli._named("--expr", cli._compiled, {}, self.DEEP, space, 4096)


class TestDeepExpressions:
    """An expression nested past MAX_NESTING levels fails with its position
    and exit 2, from ``--expr``, a query file or ``check cert --expr``,
    however deep; one at the limit runs."""

    DEEP = {
        "parens": ("(" * 2000 + "1" + ")" * 2000, MAX_NESTING + 1),
        "chain": ("1" + "+1" * 1999, 2 * MAX_NESTING + 2),
        "not": ("ind(" + "!" * 3000 + "X[1]==H)", MAX_NESTING + 4),
        "parens_1e5": ("(" * 10**5 + "1" + ")" * 10**5, MAX_NESTING + 1),
    }

    @pytest.mark.parametrize("kind", sorted(DEEP))
    def test_every_entry_point(self, capsys, tmp_path, model_file, kind):
        source, column = self.DEEP[kind]
        message = f"line 1, column {column}: expression nests deeper than {MAX_NESTING} levels"
        code, out = run(capsys, "eval", "--model", model_file, "--expr", source)
        assert code == 2 and [rec["error"] for rec in json.loads(out)["results"]] == [message]
        code, _, records = _eval_queries(capsys, tmp_path, MODEL, [{"kind": "lower", "expression": source}])
        assert code == 2 and [rec["error"] for rec in records] == [message]
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"schema": 1, "depth": 0, "lower_bound": 1.0, "table": {"": 1.0}}))
        code = main(["check", "--model", model_file, "cert", str(cert), "--expr", source])
        assert code == 2 and capsys.readouterr().err == f"error: {message}\n"

    def test_the_limit_runs(self, capsys, model_file):
        source = "(" * MAX_NESTING + "1" + "+1" * (MAX_NESTING - 1) + ")" * MAX_NESTING
        code, out = run(capsys, "eval", "--model", model_file, "--expr", source)
        assert code == 0 and json.loads(out)["results"][0]["upper"] == MAX_NESTING


class TestCertificateSizeErrors:
    """A gamble deeper than the certificate fails at ``--expr``, a
    conditioning situation past it at ``--at``, both with exit 2."""

    CERT = str(Path(__file__).resolve().parents[1] / "demos" / "data" / "cert_two_heads.json")

    def check_cert(self, capsys, model_file, *extra):
        code = main(["check", "--model", model_file, "cert", self.CERT, *extra])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        return err

    def test_gamble_deeper_than_certificate(self, capsys, model_file):
        err = self.check_cert(capsys, model_file, "--expr", "ind(X[3]==H)")
        assert err == "error: --expr: certificate depth 2 is below the gamble depth 3\n"

    def test_situation_past_certificate(self, capsys, model_file):
        err = self.check_cert(capsys, model_file, "--expr", "ind(X[1]==H)", "--at", "H,H,H")
        assert err == "error: --at: conditioning situation lies beyond the certificate depth\n"


class TestQueryTableCap:
    """A query may lower the table cap but not raise it: a ``table_cap``
    outside 1..4096 fails at its JSON path when the document loads."""

    @pytest.mark.parametrize("cap", [0, 4097, 35184372088832])
    def test_out_of_range_cap_fails_at_its_path(self, capsys, tmp_path, model_file, cap):
        path = tmp_path / "q.json"
        query = {"kind": "eval", "expression": "ind(X[45]==H)", "policy": {"table_cap": cap}}
        path.write_text(json.dumps({"schema": 1, "queries": [query]}))
        code = main(["eval", "--model", model_file, "--query", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: queries[0].policy.table_cap: expected a cell cap in 1..4096\n"

    def test_default_cap_is_accepted(self, capsys, tmp_path):
        query = {"kind": "eval", "expression": "sum(i=1..12, ind(X[i]==H))", "policy": {"table_cap": 4096}}
        code, _, (rec,) = _eval_queries(capsys, tmp_path, MODEL, [query])
        assert code == 0 and rec["ok"]


class TestDeepTables:
    """A one-state model passes every cell cap (1**n is 1), so a table
    deeper than NumPy's axes (64 since NumPy 2) fails as a size-cap error at
    its flag or JSON path, before anything is allocated, and not as a
    traceback."""

    ONE = _homogeneous(["A"], [1.0])
    DEEP = f"ind(X[{MAX_TABLE_DEPTH + 6}]==A)"
    MESSAGE = f"table of depth {MAX_TABLE_DEPTH + 6} exceeds the {MAX_TABLE_DEPTH} axes NumPy allows"

    @pytest.fixture
    def one_file(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(self.ONE))
        return str(path)

    def test_inline_expr(self, capsys, one_file):
        code = main(["eval", "--model", one_file, "--expr", self.DEEP])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""  # eval reports a query's error in its record
        (rec,) = json.loads(out)["results"]
        assert rec["error"] == f"--expr: {self.MESSAGE}"

    def test_query_file(self, capsys, tmp_path):
        code, _, records = _eval_queries(capsys, tmp_path, self.ONE, [{"kind": "lower", "expression": self.DEEP}])
        assert code == 2
        assert [rec["error"] for rec in records] == [f"queries[0].expression: {self.MESSAGE}"]

    def test_check_oracle_depth(self, capsys, one_file):
        depth = MAX_TABLE_DEPTH + 6
        code = main(["check", "--model", one_file, "oracle", "--depth", str(depth), "--trials", "30"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: --depth: gambles of depth {depth} exceed the {MAX_TABLE_DEPTH} axes NumPy allows\n"

    def test_check_cert_expr(self, capsys, one_file, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"schema": 1, "depth": 0, "lower_bound": 1.0, "table": {"": 1.0}}))
        code = main(["check", "--model", one_file, "cert", str(cert), "--expr", self.DEEP])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: --expr: {self.MESSAGE}\n"

    def test_huge_depths_name_their_source(self, capsys, model_file, tmp_path):
        # k**n of these has more digits than Python formats as a string.
        huge = {"ind(X[100000]==H)": 100000, "sum(i=1..20000, ind(X[i]==H))": 20000}
        for source, depth in huge.items():
            message = f"table of depth {depth} exceeds the {MAX_TABLE_DEPTH} axes NumPy allows"
            code, out = run(capsys, "eval", "--model", model_file, "--expr", source)
            assert code == 2
            assert json.loads(out)["results"][0]["error"] == f"--expr: {message}"
            code, _, records = _eval_queries(capsys, tmp_path, MODEL, [{"kind": "lower", "expression": source}])
            assert code == 2
            assert [rec["error"] for rec in records] == [f"queries[0].expression: {message}"]

    def test_deepest_table_runs(self, capsys, one_file):
        code, out = run(capsys, "eval", "--model", one_file, "--expr", f"ind(X[{MAX_TABLE_DEPTH}]==A)")
        assert code == 0
        assert json.loads(out)["results"][0]["upper"] == 1.0


def _write_bytes(tmp_path, name, data: bytes):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


class TestUnreadableFiles:
    """Every input file goes through one reader: a file that cannot be read
    or decoded is an input error naming the file, not a traceback."""

    @pytest.mark.parametrize("role", ["model", "query", "certificate"])
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda tmp_path: str(tmp_path), "cannot read the file: Is a directory"),
            (lambda tmp_path: _write_bytes(tmp_path, "utf16.json", b"\xff\xfe"), "not UTF-8 text"),
            (lambda tmp_path: _write_bytes(tmp_path, "list.json", b"[]"), "expected an object, got list"),
        ],
        ids=["directory", "utf16-bytes", "list-root"],
    )
    def test_exits_2_naming_the_file(self, capsys, model_file, tmp_path, role, make, message):
        bad = make(tmp_path)
        argv = {
            "model": ["eval", "--model", bad, "--expr", "X[1]"],
            "query": ["eval", "--model", model_file, "--query", bad],
            "certificate": ["check", "--model", model_file, "cert", bad, "--expr", "ind(X[1]==H)"],
        }[role]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}") and "Traceback" not in err

class TestDeepDocuments:
    """A value nested 10**5 levels deep at a field of a model, a query file
    or a certificate exits 2, with no traceback, at the field's JSON path;
    with a NaN inside, which only the standard library's reader reads, the
    error names the file."""

    DOCUMENTS = {
        "model": MODEL,
        "query": {"schema": 1, "queries": [{"kind": "eval", "expression": "1", "policy": {"tol": 0.1}}]},
        "certificate": {"schema": 1, "depth": 0, "lower_bound": 0.0, "table": {"": 1.0}},
    }

    @pytest.mark.parametrize(
        "role, field, path",
        [
            ("model", ("schema",), "schema"),
            ("model", ("states",), "states"),
            ("model", ("model", "kind"), "model.kind"),
            ("model", ("model", "extreme_points"), "model.extreme_points[0]"),
            ("query", ("model",), "model"),
            ("query", ("queries", 0, "kind"), "queries[0].kind"),
            ("query", ("queries", 0, "expression"), "queries[0].expression"),
            ("query", ("queries", 0, "policy", "tol"), "queries[0].policy.tol"),
            ("certificate", ("depth",), "depth"),
            ("certificate", ("lower_bound",), "lower_bound"),
            ("certificate", ("table", ""), "table.<root>"),
        ],
    )
    @pytest.mark.parametrize("inner", ["", "NaN"])
    def test_exits_2_at_its_path(self, capsys, model_file, tmp_path, role, field, path, inner):
        doc = json.loads(json.dumps(self.DOCUMENTS[role]))
        *parents, last = field
        parent = doc
        for key in parents:
            parent = parent[key]
        parent[last] = "DEEP"
        bad = tmp_path / "deep.json"
        bad.write_text(json.dumps(doc).replace('"DEEP"', "[" * 10**5 + inner + "]" * 10**5))
        argv = {
            "model": ["eval", "--model", str(bad), "--expr", "1"],
            "query": ["eval", "--model", model_file, "--query", str(bad)],
            "certificate": ["check", "--model", model_file, "cert", str(bad), "--expr", "1"],
        }[role]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err) < 300
        where = f"{bad}: not valid JSON" if inner else f"{path}: "
        assert err.startswith(f"error: {where}")


class TestCountsAndSeeds:
    """Seeds must be non-negative, trial counts and oracle depths positive:
    rejected where they enter, with the flag name.  The batteries run only
    through ``check``: a query file naming one, or one of their counts, fails
    at its JSON path."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["axioms", "--seed", "-1"], "argument --seed: expected an integer >= 0, got -1"),
            (["oracle", "--depth", "-1"], "argument --depth: expected an integer >= 1, got -1"),
            (["oracle", "--depth", "0"], "argument --depth: expected an integer >= 1, got 0"),
            (["axioms", "--trials", "-3"], "argument --trials: expected an integer >= 1, got -3"),
            (["oracle", "--trials", "0"], "argument --trials: expected an integer >= 1, got 0"),
            (["oracle", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
            # argparse reads ``--flag=--`` as no value, not as the text "--"
            (["axioms", "--seed=--"], "argument --seed: expected one argument"),
            (["cert", "c.json", "--expr=--"], "argument --expr: expected one argument"),
            (["oracle", "--trials", "10001"], "argument --trials: expected an integer <= 10000, got 10001"),
            (["axioms", "--trials", "1000000000"], "argument --trials: expected an integer <= 10000, got 1000000000"),
        ],
        ids=["seed-negative", "depth-negative", "depth-zero", "trials-negative", "trials-zero", "trials-text",
             "seed-dashes", "expr-dashes", "trials-past-limit", "trials-billion"],
    )
    def test_bad_flag_exits_2(self, capsys, model_file, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--model", model_file] + argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_trials_limit_is_inclusive(self):
        parser = cli._build_parser(*cli._env_defaults())
        assert parser.parse_args(["check", "oracle", "--trials", "10000"]).trials == 10000

    def test_negative_env_seed_exits_2(self, capsys, model_file, monkeypatch):
        monkeypatch.setenv("IPTREE_SEED", "-1")
        with pytest.raises(SystemExit) as exc:
            main(["check", "--model", model_file, "axioms", "--trials", "2"])
        assert exc.value.code == 2
        assert "argument --seed: expected an integer >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "query, path",
        [
            ({"kind": "oracle_check"}, "queries[0].kind: unknown kind 'oracle_check'"),
            ({"kind": "axiom_suite", "seed": 1}, "queries[0].kind: unknown kind 'axiom_suite'"),
            (
                {"kind": "verify_cert", "expression": "1", "certificate": "cert.json"},
                "queries[0].kind: unknown kind 'verify_cert'",
            ),
            ({"kind": "eval", "expression": "1", "policy": {"trials": 10}}, "queries[0].policy.trials: unknown policy field"),
            ({"kind": "hit_time", "targets": ["T"], "policy": {"depth": 2}}, "queries[0].policy.depth: unknown policy field"),
            ({"kind": "lower", "expression": "1", "policy": {"enum_cap": 9}}, "queries[0].policy.enum_cap: unknown policy field"),
        ],
        ids=["oracle_check", "axiom_suite", "verify_cert", "policy-trials", "policy-depth", "policy-enum_cap"],
    )
    def test_bad_query_field_exits_2(self, capsys, model_file, tmp_path, query, path):
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"schema": 1, "queries": [query]}))
        assert main(["eval", "--model", model_file, "--query", str(q)]) == 2
        assert path in capsys.readouterr().err

    def test_smallest_counts_run(self, capsys, model_file):
        code, out = run(capsys, "check", "--model", model_file, "oracle", "--depth", "1", "--trials", "1", "--seed", "0")
        assert code == 0
        assert json.loads(out)["suites"][0]["checks"] == 1


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


def _parsed(parse, text, default):
    """What a flag's value ``text`` parses to: ``default`` when it is unset,
    None when its type rejects it."""
    if text is None:
        return default
    try:
        return parse(text)
    except ValueError:
        return None


def _seed(text: str) -> int:
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


_PRINTABLE = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=4)
_SEEDS = st.one_of(st.integers(-2, 10**6).map(str), st.sampled_from(["abc", "1.5", ""]), _PRINTABLE)
_TOLS = st.one_of(
    st.sampled_from(["1e-9", "0.5", "1e-3", "0", "-1", "nan", "inf", "-inf", "tight", ""]),
    st.floats(1e-12, 1.0).map(repr),
)
_HORIZONS = st.one_of(st.integers(-2, 40).map(str), st.sampled_from(["1.5", "x", ""]))
_FLAG_OR_ENV = {"seed": _SEEDS, "tol": _TOLS, "max_horizon": _HORIZONS}


class TestEnvironmentFuzz:
    """``main`` reads ``IPTREE_*`` on every call: many calls in one process,
    each with its own environment and flags, each held to the documented
    contract and to the defaults that environment sets."""

    @pytest.fixture(scope="class")
    def coin_model(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "model.json"
        path.write_text(json.dumps(MODEL))
        return str(path)

    @settings(max_examples=200, deadline=None)
    @given(
        command=st.sampled_from(["eval", "check"]),
        flags=st.fixed_dictionaries({name: st.none() | values for name, values in _FLAG_OR_ENV.items()}),
        env=st.fixed_dictionaries({name: st.none() | values for name, values in _FLAG_OR_ENV.items()}),
        format_flag=st.sampled_from([None, "--json", "--pretty"]),
        format_env=st.sampled_from([None, "json", "pretty", "yaml", "", "JSON"]),
    )
    def test_contract_under_changing_environment(self, coin_model, command, flags, env, format_flag, format_env):
        argv = [command, "--model", coin_model]
        argv += ["--expr", "ind(X[1]==H)", "--hit-time", "T"] if command == "eval" else ["axioms", "--trials", "1"]
        argv += [f"--{name.replace('_', '-')}={value}" for name, value in flags.items() if value is not None]
        if format_flag:
            argv.append(format_flag)
        variables = {f"IPTREE_{name.upper()}": value for name, value in env.items()}
        variables["IPTREE_FORMAT"] = format_env
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ):
            for name, value in variables.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        out, err = out.getvalue(), err.getvalue()

        # What the flag gives, else the environment, else the default.
        text = {name: flags[name] if flags[name] is not None else env[name] for name in _FLAG_OR_ENV}
        parsed = {
            "seed": _parsed(_seed, text["seed"], 0),
            "tol": _parsed(float, text["tol"], 1e-9),
            "max_horizon": _parsed(int, text["max_horizon"], 100),
        }
        report_format = format_flag[2:] if format_flag else format_env if format_env is not None else "json"

        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert "NaN" not in out
        # ``check`` reads neither the policy flags nor their variables, and
        # ``eval`` neither the seed flag nor its variable.
        read = ("tol", "max_horizon") if command == "eval" else ("seed",)
        bad_flags = [name for name in read if parsed[name] is None]
        if bad_flags:
            assert code == 2 and out == ""
            assert any(f"argument --{name.replace('_', '-')}: " in err for name in bad_flags), err
            return
        unread = [name for name in _FLAG_OR_ENV if name not in read and flags[name] is not None]
        if unread:
            assert code == 2 and out == ""
            assert "unrecognized arguments: " in err
            assert all(f"--{name.replace('_', '-')}=" in err for name in unread), err
            return
        if report_format not in ("json", "pretty"):
            assert code == 2 and out == ""
            assert f"IPTREE_FORMAT: invalid choice: {report_format!r}" in err
            return
        policy_ok = command == "check" or 0 < parsed["tol"] < math.inf and parsed["max_horizon"] >= 1
        assert code == (0 if policy_ok else 2)
        if report_format == "pretty":
            assert out.startswith(f"iptree {command} report")
            return
        assert out == _dumps(json.loads(out)) + "\n"
        report = json.loads(out)
        assert report.get("seed") == (parsed["seed"] if command == "check" else None)
        if code == 2:
            assert all("policy fields" in rec["error"] for rec in report["results"])


_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 5e-324, 1e308]))
_SCALARS = st.one_of(
    st.text(),
    st.integers(),
    st.sampled_from([2**64, -(10**300)]),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.booleans(),
    st.none(),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
    ),
    max_leaves=30,
)
_PLACEMENTS = [
    lambda value, bad: bad,
    lambda value, bad: [value, bad],
    lambda value, bad: (1.5, bad, value),
    lambda value, bad: {"a": value, "b": {"c": [bad]}},
    lambda value, bad: {"x": [0, 1.0, bad]},
]


class TestReportWriter:
    """The JSON report writer is ``json.dumps(indent=2, sort_keys=True,
    allow_nan=False)``, byte for byte, and fails where and how it fails."""

    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_same_text_as_json_dumps(self, value):
        assert cli._json_text(value) == _dumps(value)

    @settings(max_examples=100, deadline=None)
    @given(
        _VALUES,
        st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"), np.int64(3), {1}, 10**5000, {1: 0, "a": 1}]),
        st.sampled_from(_PLACEMENTS),
    )
    def test_same_exception_as_json_dumps(self, value, bad, place):
        document = place(value, bad)
        with pytest.raises((TypeError, ValueError)) as expected:
            _dumps(document)
        with pytest.raises(type(expected.value)) as got:
            cli._json_text(document)
        assert str(got.value) == str(expected.value)
