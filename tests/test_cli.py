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
        ],
        ids=["directory", "utf16-bytes"],
    )
    def test_exits_2_naming_the_file(self, capsys, model_file, tmp_path, role, make, message):
        bad = make(tmp_path)
        argv = {
            "model": ["eval", "--model", bad, "--expr", "X[1]"],
            "query": ["eval", "--model", model_file, "--query", bad],
            "certificate": ["check", "--model", model_file, "cert", bad, "--expr", "ind(X[1]==H)"],
        }[role]
        assert main(argv) == 2
        assert f"error: {bad}: {message}" in capsys.readouterr().err

    def test_certificate_file_named_in_a_query(self, capsys, model_file, tmp_path):
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"schema": 1, "queries": [
            {"kind": "verify_cert", "expression": "ind(X[1]==H)", "certificate": str(tmp_path)},
        ]}))
        code, out = run(capsys, "eval", "--model", model_file, "--query", str(q))
        assert code == 2
        assert json.loads(out)["results"][0]["error"] == f"{tmp_path}: cannot read the file: Is a directory"


class TestCountsAndSeeds:
    """Seeds must be non-negative, trial counts and oracle depths positive:
    rejected where they enter, with the flag name or the JSON path."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["axioms", "--seed", "-1"], "argument --seed: expected an integer >= 0, got -1"),
            (["oracle", "--depth", "-1"], "argument --depth: expected an integer >= 1, got -1"),
            (["oracle", "--depth", "0"], "argument --depth: expected an integer >= 1, got 0"),
            (["axioms", "--trials", "-3"], "argument --trials: expected an integer >= 1, got -3"),
            (["oracle", "--trials", "0"], "argument --trials: expected an integer >= 1, got 0"),
            (["oracle", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
        ],
        ids=["seed-negative", "depth-negative", "depth-zero", "trials-negative", "trials-zero", "trials-text"],
    )
    def test_bad_flag_exits_2(self, capsys, model_file, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--model", model_file] + argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_negative_env_seed_exits_2(self, capsys, model_file, monkeypatch):
        monkeypatch.setenv("IPTREE_SEED", "-1")
        with pytest.raises(SystemExit) as exc:
            main(["check", "--model", model_file, "axioms", "--trials", "2"])
        assert exc.value.code == 2
        assert "argument --seed: expected an integer >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "query, path",
        [
            ({"kind": "axiom_suite", "seed": -1}, "queries[0].seed: expected a non-negative integer"),
            ({"kind": "axiom_suite", "seed": True}, "queries[0].seed: expected a non-negative integer"),
            ({"kind": "oracle_check", "policy": {"depth": -2}}, "queries[0].policy.depth: expected an integer >= 1"),
            ({"kind": "oracle_check", "policy": {"depth": 0}}, "queries[0].policy.depth: expected an integer >= 1"),
            ({"kind": "oracle_check", "policy": {"trials": -4}}, "queries[0].policy.trials: expected an integer >= 1"),
            ({"kind": "axiom_suite", "policy": {"trials": 0}}, "queries[0].policy.trials: expected an integer >= 1"),
        ],
        ids=["seed-negative", "seed-bool", "depth-negative", "depth-zero", "trials-negative", "trials-zero"],
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
