import json

import pytest

from iptree.cli import main

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
        _, first = run(capsys, "eval", "--model", model_file, "--query", query_file, "--seed", "9")
        _, second = run(capsys, "eval", "--model", model_file, "--query", query_file, "--seed", "9")
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
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", model_file, "--expr", "1"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_env_value_is_a_default(self, capsys, model_file, monkeypatch):
        monkeypatch.setenv("IPTREE_SEED", "5")
        _, out = run(capsys, "eval", "--model", model_file, "--expr", "1")
        assert json.loads(out)["seed"] == 5
        _, out = run(capsys, "eval", "--model", model_file, "--expr", "1", "--seed", "6")
        assert json.loads(out)["seed"] == 6

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

    def test_suite_queries_in_file(self, capsys, model_file, tmp_path):
        q = tmp_path / "q.json"
        q.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "queries": [
                        {"kind": "oracle_check", "seed": 11, "policy": {"trials": 10, "depth": 2}},
                        {"kind": "axiom_suite", "seed": 12, "policy": {"trials": 10}},
                    ],
                }
            )
        )
        code, out = run(capsys, "eval", "--model", model_file, "--query", str(q))
        assert code == 0
        report = json.loads(out)
        assert report["results"][0]["passed"] is True
        assert report["results"][1]["passed"] is True

    def test_verify_cert_query_inline(self, capsys, model_file, tmp_path):
        cert = {
            "schema": 1,
            "depth": 1,
            "lower_bound": 0.0,
            "table": {"": 0.61, "H": 1.0, "T": 0.0},
        }
        q = tmp_path / "q.json"
        q.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "queries": [
                        {
                            "kind": "verify_cert",
                            "expression": "ind(X[1]==H)",
                            "certificate": cert,
                        }
                    ],
                }
            )
        )
        code, out = run(capsys, "eval", "--model", model_file, "--query", str(q))
        assert code == 0
        rec = json.loads(out)["results"][0]
        assert rec["valid"] is True
        assert rec["bound"] == pytest.approx(0.61)
        assert rec["engine_value"] == pytest.approx(0.6)

    def test_non_finite_policy_rejected(self, capsys, model_file, tmp_path):
        q = tmp_path / "q.json"
        q.write_text(
            '{"schema": 1, "queries": [{"kind": "eval", "expression": "1",'
            ' "policy": {"tol": Infinity}}]}'
        )
        code = main(["eval", "--model", model_file, "--query", str(q)])
        assert code == 2
        assert "queries[0].policy.tol" in capsys.readouterr().err
