import json
import subprocess
import sys

import pytest

from gordankit.cli import main

_IS_SUBPROCESS_STYLE = False  # exercised in-process through main() for speed


def _write(tmp_path, name, obj):
    path = tmp_path / name
    if isinstance(obj, str):
        path.write_text(obj)
    else:
        path.write_text(json.dumps(obj))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _alt_file(tmp_path):
    return _write(tmp_path, "alt.json", {
        "version": 1, "kind": "alternative", "dimension": 1,
        "domain": {"type": "reals", "dim": 1},
        "family": [
            {"A": [[0.0]], "b": [1.0], "c": 0.0},
            {"A": [[0.0]], "b": [-1.0], "c": 0.0},
        ],
    })


def _qp_file(tmp_path):
    return _write(tmp_path, "qp.json", {
        "version": 1, "kind": "qp", "dimension": 1,
        "domain": {"type": "reals", "dim": 1},
        "objective": {"A": [[1.0]], "b": [0.0], "c": 0.0},
        "family": [{"A": [[0.0]], "b": [-1.0], "c": 1.0}],
    })


class TestHappyPaths:
    def test_alternative_certificate(self, tmp_path, capsys):
        code, out = _run(capsys, ["alternative", _alt_file(tmp_path)])
        assert code == 0
        body = json.loads(out)["result"]
        assert body["outcome"] == "certificate"
        assert body["t"] == [0.5, 0.5]
        assert abs(body["diagnostics"]["reverified_inf"]) <= 1e-8

    def test_yuan_certificate(self, tmp_path, capsys):
        path = _write(tmp_path, "yuan.json", {
            "version": 1, "kind": "yuan", "dimension": 2,
            "domain": {"type": "reals", "dim": 2},
            "family": [
                {"A": [[1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0], "c": 0.0},
                {"A": [[-1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0], "c": 0.0},
            ],
        })
        code, out = _run(capsys, ["yuan", path])
        assert code == 0
        body = json.loads(out)["result"]
        assert body["outcome"] == "certificate"
        assert body["t"][0] == pytest.approx(0.5, abs=1e-6)
        assert abs(body["diagnostics"]["pencil_min_eigenvalue"]) <= 1e-10

    def test_qp_pipeline(self, tmp_path, capsys):
        code, out = _run(capsys, ["qp", _qp_file(tmp_path)])
        assert code == 0
        body = json.loads(out)["result"]
        assert body["outcome"] == "converged"
        assert body["value"] == pytest.approx(0.5, abs=1e-7)
        assert body["x0"][0] == pytest.approx(1.0, abs=1e-6)
        assert body["kkt"]["u"][0] == pytest.approx(1.0, abs=1e-5)
        assert body["kkt"]["valid"] is True

    def test_qp_slater_point_ignores_alpha(self, tmp_path, capsys):
        # min 1/2 x^2 - x subject to x^2 - 1 <= 0: x = 0 is strictly feasible
        # whatever decision level --alpha names.
        path = _write(tmp_path, "slater.json", {
            "version": 1, "kind": "qp", "dimension": 1,
            "domain": {"type": "reals", "dim": 1},
            "objective": {"A": [[1.0]], "b": [-1.0], "c": 0.0},
            "family": [{"A": [[2.0]], "b": [0.0], "c": -1.0}],
        })
        results = []
        for alpha in ("0", "-2"):
            code, out = _run(capsys, ["qp", path, "--alpha", alpha])
            assert code == 0
            results.append(json.loads(out)["result"])
        assert results[0]["slater_point"] == [0.0]
        assert results[1]["slater_point"] == results[0]["slater_point"]
        assert results[1]["value"] == results[0]["value"]

    def test_zcheck(self, tmp_path, capsys):
        path = _write(tmp_path, "z.json", {
            "version": 1, "kind": "zcheck", "dimension": 1,
            "family": [{"A": [[0.0]], "b": [1.0], "c": 0.0}],
        })
        code, out = _run(capsys, ["zcheck", path])
        assert code == 0
        body = json.loads(out)["result"]
        assert body["family_is_z"] is False
        assert body["members"][0]["offenders"] == [[0, 1, 1.0]]

    def test_infsup_violation(self, tmp_path, capsys):
        path = _write(tmp_path, "infsup.json", {
            "version": 1, "kind": "infsup", "dimension": 1,
            "domain": {"type": "finite_points", "points": [[-1.0], [1.0]]},
            "family": [
                {"A": [[0.0]], "b": [1.0], "c": 0.0},
                {"A": [[0.0]], "b": [-1.0], "c": 0.0},
            ],
        })
        code, out = _run(capsys, ["infsup", path])
        assert code == 0
        body = json.loads(out)["result"]
        assert body["outcome"] == "violation-found"
        assert body["violation"]["lhs"] == 1.0
        assert body["violation"]["rhs"] == 0.0

    def test_conjugate(self, tmp_path, capsys):
        path = _write(tmp_path, "conj.json", {
            "version": 1, "kind": "conjugate", "dimension": 1, "point": [0.5],
            "family": [
                {"A": [[0.0]], "b": [1.0], "c": 0.0},
                {"A": [[0.0]], "b": [-1.0], "c": 0.0},
            ],
        })
        code, out = _run(capsys, ["conjugate", path])
        assert code == 0
        body = json.loads(out)["result"]
        assert body["finite"] is True
        assert abs(body["value"]) <= 1e-10
        assert body["t"][0] == pytest.approx(0.75, abs=1e-9)

    def test_kkt_check_valid_exit_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "kkt.json", {
            "version": 1, "kind": "kkt-check", "dimension": 1,
            "domain": {"type": "reals", "dim": 1},
            "objective": {"A": [[1.0]], "b": [0.0], "c": 0.0},
            "family": [{"A": [[0.0]], "b": [-1.0], "c": 1.0}],
            "point": [1.0], "weights": [1.0],
        })
        code, out = _run(capsys, ["kkt-check", path])
        assert code == 0
        assert json.loads(out)["result"]["valid"] is True

    def test_kkt_check_invalid_exit_two(self, tmp_path, capsys):
        path = _write(tmp_path, "kkt_bad.json", {
            "version": 1, "kind": "kkt-check", "dimension": 1,
            "domain": {"type": "reals", "dim": 1},
            "objective": {"A": [[1.0]], "b": [0.0], "c": 0.0},
            "family": [{"A": [[0.0]], "b": [-1.0], "c": 1.0}],
            "point": [1.0], "weights": [0.0],
        })
        code, out = _run(capsys, ["kkt-check", path])
        assert code == 2
        assert json.loads(out)["result"]["valid"] is False


class TestRoundTrip:
    def test_qp_result_feeds_kkt_check(self, tmp_path, capsys):
        code, out = _run(capsys, ["qp", _qp_file(tmp_path)])
        assert code == 0
        body = json.loads(out)["result"]
        check = {
            "version": 1, "kind": "kkt-check", "dimension": 1,
            "domain": {"type": "reals", "dim": 1},
            "objective": {"A": [[1.0]], "b": [0.0], "c": 0.0},
            "family": [{"A": [[0.0]], "b": [-1.0], "c": 1.0}],
            "point": body["x0"], "weights": body["kkt"]["u"],
        }
        path = _write(tmp_path, "check.json", check)
        code2, out2 = _run(capsys, ["kkt-check", path])
        assert code2 == 0
        assert json.loads(out2)["result"]["valid"] is True


class TestDeterminismAndIo:
    def test_byte_identical_outputs(self, tmp_path, capsys):
        path = _alt_file(tmp_path)
        _, out1 = _run(capsys, ["alternative", path])
        _, out2 = _run(capsys, ["alternative", path])
        assert out1.encode() == out2.encode()

    def test_out_file_and_quiet(self, tmp_path, capsys):
        path = _alt_file(tmp_path)
        target = str(tmp_path / "result.json")
        code, out = _run(capsys, ["alternative", path, "--out", target, "--quiet"])
        assert code == 0 and out == ""
        assert json.loads(open(target).read())["result"]["outcome"] == "certificate"

    def test_text_format(self, tmp_path, capsys):
        code, out = _run(capsys, ["alternative", _alt_file(tmp_path), "--format", "text"])
        assert code == 0
        assert "outcome: certificate" in out

    def test_seed_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GORDANKIT_SEED", "12345")
        code, out = _run(capsys, ["alternative", _alt_file(tmp_path)])
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 12345
        code, out = _run(capsys, ["alternative", _alt_file(tmp_path), "--seed", "7"])
        assert json.loads(out)["config"]["seed"] == 7

    def test_seventeen_digit_floats(self, tmp_path, capsys):
        path = _write(tmp_path, "third.json", {
            "version": 1, "kind": "zcheck", "dimension": 1,
            "family": [{"A": [[-0.3333333333333333]], "b": [-1.0], "c": 0.0}],
        })
        code, out = _run(capsys, ["zcheck", path])
        assert code == 0  # parses and reports without loss


class TestMalformedCorpus:
    CASES = [
        ("missing_field.json",
         {"version": 1, "kind": "alternative", "dimension": 1},
         "E_SCHEMA"),
        ("unknown_field.json",
         {"version": 1, "kind": "zcheck", "dimension": 1, "extra": 1,
          "family": [{"A": [[0.0]], "b": [0.0], "c": 0.0}]},
         "E_UNKNOWN_FIELD"),
        ("bad_version.json",
         {"version": 99, "kind": "zcheck", "dimension": 1,
          "family": [{"A": [[0.0]], "b": [0.0], "c": 0.0}]},
         "E_VERSION"),
        ("bad_kind.json",
         {"version": 1, "kind": "frobnicate", "dimension": 1, "family": []},
         "E_KIND"),
        ("nan_entry.json",
         '{"version": 1, "kind": "zcheck", "dimension": 1,'
         ' "family": [{"A": [[NaN]], "b": [0.0], "c": 0.0}]}',
         "E_NONFINITE"),
        ("inf_entry.json",
         '{"version": 1, "kind": "zcheck", "dimension": 1,'
         ' "family": [{"A": [[1e999]], "b": [0.0], "c": 0.0}]}',
         "E_NONFINITE"),
        ("asymmetric.json",
         {"version": 1, "kind": "zcheck", "dimension": 2,
          "family": [{"A": [[0.0, 1.0], [0.0, 0.0]], "b": [0.0, 0.0], "c": 0.0}]},
         "E_ASYMMETRIC"),
        ("dim_mismatch.json",
         {"version": 1, "kind": "zcheck", "dimension": 2,
          "family": [{"A": [[0.0]], "b": [0.0], "c": 0.0}]},
         "E_DIMENSION"),
        ("bad_domain.json",
         {"version": 1, "kind": "alternative", "dimension": 1,
          "domain": {"type": "torus", "dim": 1},
          "family": [{"A": [[0.0]], "b": [0.0], "c": 0.0}]},
         "E_DOMAIN"),
        ("not_json.json", "{this is not json", "E_JSON"),
        ("bad_config.json",
         {"version": 1, "kind": "zcheck", "dimension": 1,
          "family": [{"A": [[0.0]], "b": [0.0], "c": 0.0}],
          "config": {"warp": 9}},
         "E_UNKNOWN_FIELD"),
    ]

    @pytest.mark.parametrize("name,content,code", CASES, ids=[c[0] for c in CASES])
    def test_malformed_exits_one_with_distinct_code(self, tmp_path, capsys, name, content, code):
        path = _write(tmp_path, name, content)
        kind = "alternative" if "alternative" in str(content) else "zcheck"
        rc, out = _run(capsys, [kind, path])
        assert rc == 1
        err = json.loads(out)["error"]
        assert err["code"] == code

    def test_kind_file_command_mismatch(self, tmp_path, capsys):
        rc, out = _run(capsys, ["zcheck", _alt_file(tmp_path)])
        assert rc == 1
        assert json.loads(out)["error"]["code"] == "E_KIND"

    def test_missing_file(self, tmp_path, capsys):
        rc, out = _run(capsys, ["zcheck", str(tmp_path / "nope.json")])
        assert rc == 1
        assert json.loads(out)["error"]["code"] == "E_IO"

    def test_no_stack_trace_on_stdout(self, tmp_path, capsys):
        rc, out = _run(capsys, ["zcheck", str(tmp_path / "nope.json")])
        assert "Traceback" not in out

    def test_unexpected_exception_is_a_coded_error(self, tmp_path, capsys, monkeypatch):
        import gordankit.cli as cli

        def broken(*args, **kwargs):
            raise RuntimeError("solver blew up")

        monkeypatch.setattr(cli, "decide_alternative", broken)
        rc = main(["alternative", _alt_file(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert json.loads(captured.out)["error"] == {"code": "E_INTERNAL",
                                                     "message": "RuntimeError: solver blew up"}
        assert "Traceback" not in captured.out + captured.err


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = _alt_file(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "gordankit.cli", "alternative", path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["outcome"] == "certificate"
        assert proc.stderr == ""
