import json

import numpy as np
import pytest

from vvicert.cli import dispatch, load_problem
from vvicert.errors import VviCertError


def payload_bytes(report: dict) -> str:
    return json.dumps(report["payload"], sort_keys=True, separators=(",", ":"))


class TestLoadProblem:
    def test_example5_fixture(self):
        p = load_problem("example5")
        assert len(p.f.pieces) == 2
        vertices = sorted(
            v.ravel().tolist() for v in p.f.clarke_jacobian([0.0]).vertices
        )
        assert np.allclose(vertices, sorted([[5.0, -2.0], [6.0, -3.0]]))

    def test_example23_fixture(self):
        p = load_problem("example23")
        vertices = sorted(
            v.ravel().tolist() for v in p.f.clarke_jacobian([0.0]).vertices
        )
        assert np.allclose(vertices, sorted([[1.0, 2.0], [1.0, 4.0]]))

    def test_inconsistent_pieces_strict(self, tmp_path):
        bad = {
            "version": "vvicert/1",
            "n": 1,
            "m": 1,
            "domain": [[-1.0, 1.0]],
            "pieces": [
                {"region": "x1 <= 0.5", "components": ["x1"]},
                {"region": "x1 >= -0.5", "components": ["x1 + 1"]},
            ],
            "cone": {"orthant": 1},
            "kernel": {"kind": "difference"},
            "e": [0.5],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(VviCertError):
            load_problem(str(path), strict=True)

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": "vvicert/1",\n  "n": }')
        with pytest.raises(VviCertError) as exc:
            load_problem(str(path))
        assert "line 2" in str(exc.value)

    def test_missing_file(self):
        with pytest.raises(VviCertError):
            load_problem("/nonexistent/problem.json")

    def test_wrong_version_tag(self, tmp_path):
        path = tmp_path / "v0.json"
        path.write_text('{"version": "vvicert/0", "n": 1, "m": 1}')
        with pytest.raises(VviCertError):
            load_problem(str(path))


class TestDispatch:
    def test_svvi_exit_zero(self):
        code, report = dispatch(
            ["check", "vvi", "--variant", "svvi", "--problem", "example5",
             "--at", "0", "--samples", "1500"]
        )
        assert code == 0
        assert report["payload"]["verdict"]["status"] == "CertifiedUpToSampling"

    def test_invex_dichotomy_exit_one(self):
        code, report = dispatch(
            ["check", "invex", "--class", "invex", "--problem", "example23",
             "--at", "0", "--e", "0.5,0.5", "--r", "0.25", "--kernel", "difference",
             "--samples", "1500"]
        )
        assert code == 1
        wit = report["payload"]["verdict"]["witness"]
        assert wit["x"] == [0.0] and wit["y"][0] < 0.0

    def test_audit_exit_zero(self):
        code, report = dispatch(
            ["audit", "--rules", "all", "--problem", "example5", "--at", "0",
             "--samples", "800"]
        )
        assert code == 0
        assert report["payload"]["summary"]["violations"] == 0

    def test_usage_error_exit_two(self):
        code, _ = dispatch(["check", "vvi", "--problem", "example5"])
        assert code == 2

    def test_load_error_exit_two(self):
        code, _ = dispatch(["jacobian", "--problem", "/nope.json", "--at", "0"])
        assert code == 2

    def test_named_point_resolution(self):
        code, report = dispatch(["jacobian", "--problem", "example5", "--at", "xi"])
        assert code == 0
        assert report["payload"]["point"] == [0.0]

    def test_report_replay_byte_identical(self):
        argv = ["check", "efficiency", "--problem", "example5", "--at", "0",
                "--seed", "11", "--samples", "900"]
        _, first = dispatch(argv)
        _, second = dispatch(argv)
        assert payload_bytes(first) == payload_bytes(second)
        assert first["problemHash"] == second["problemHash"]
        assert first["seed"] == 11

    def test_out_file_written(self, tmp_path):
        out = tmp_path / "report.json"
        code, report = dispatch(
            ["jacobian", "--problem", "example5", "--at", "0", "--out", str(out)]
        )
        assert code == 0
        on_disk = json.loads(out.read_text())
        assert payload_bytes(on_disk) == payload_bytes(report)

    def test_repro_both_fixtures(self):
        for fixture in ("example5", "example23"):
            code, report = dispatch(["repro", fixture, "--samples", "1500"])
            assert code == 0
            assert report["payload"]["allPassed"]

    def test_gen_deterministic(self):
        _, a = dispatch(["gen", "--seed", "3"])
        _, b = dispatch(["gen", "--seed", "3"])
        assert payload_bytes(a) == payload_bytes(b)
        assert a["payload"]["problem"]["version"] == "vvicert/1"

    def test_seed_env_override(self, monkeypatch):
        monkeypatch.setenv("VVICERT_SEED", "123")
        _, report = dispatch(
            ["check", "vvi", "--variant", "svvi", "--problem", "example5",
             "--at", "0", "--samples", "700"]
        )
        assert report["seed"] == 123
        assert report["payload"]["verdict"]["stats"]["plan"]["seed"] == 123
        _, env_gen = dispatch(["gen"])
        _, flag_gen = dispatch(["gen", "--seed", "123"])
        assert env_gen["seed"] == 123
        assert payload_bytes(env_gen) == payload_bytes(flag_gen)

    def test_weak_flag(self):
        code, report = dispatch(
            ["check", "efficiency", "--problem", "example5", "--at", "0",
             "--weak", "--samples", "900"]
        )
        assert code == 0
        assert report["payload"]["verdict"]["stats"]["weak"] is True

    def test_critical_check(self):
        code, report = dispatch(
            ["check", "critical", "--problem", "example5", "--at", "0"]
        )
        assert code == 0
        mu = report["payload"]["verdict"]["certificate"]["mu"]
        assert mu == pytest.approx([2 / 7, 5 / 7])

    def test_quantifier_toggle(self):
        # exists-reading: a single Jacobian element suffices to disqualify x;
        # for example23's negNorm kernel every x != 0 then witnesses it
        code, report = dispatch(
            ["check", "vvi", "--variant", "svvi", "--problem", "example23",
             "--at", "0", "--quantifier", "exists", "--samples", "800"]
        )
        assert code == 1
        assert report["payload"]["verdict"]["stats"]["quantifier"] == "exists"

    def test_audit_with_generated_instances(self):
        code, report = dispatch(
            ["audit", "--rules", "T3.3,T4.6", "--problem", "example5", "--at", "0",
             "--generated", "3", "--samples", "500", "--seed", "2"]
        )
        assert code == 0
        rows = report["payload"]["summary"]["rows"]
        assert len(rows) == 2 * 4  # 2 rules x (fixture + 3 generated)

    def test_cross_process_payload_determinism(self):
        # fresh interpreters have different hash randomization; payload bytes
        # must not depend on it
        import os
        import subprocess
        import sys

        import vvicert

        # the child imports vvicert from where this process found it
        src = os.path.dirname(os.path.dirname(vvicert.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import json;from vvicert.cli import dispatch;"
            "c,r=dispatch(['check','vvi','--variant','svvi','--problem','example5',"
            "'--at','0','--samples','1200','--seed','4']);"
            "print(json.dumps(r['payload'],sort_keys=True,separators=(',',':')))"
        )
        outs = set()
        for _ in range(2):
            res = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
            assert res.returncode == 0, res.stderr
            outs.add(res.stdout.strip().splitlines()[-1])
        assert len(outs) == 1

    def test_custom_kernel_problem_file(self, tmp_path):
        spec = {
            "version": "vvicert/1",
            "n": 1,
            "m": 2,
            "domain": [[-2.0, 2.0]],
            "pieces": [{"region": "0 <= 1", "components": ["x1", "2*x1"]}],
            "cone": {"orthant": 2},
            "kernel": {"kind": "custom", "components": ["2*(x1 - y1)"]},
            "e": [0.5, 0.5],
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(spec))
        p = load_problem(str(path))
        assert np.allclose(p.kernel.eval([1.0], [0.0]), [2.0])
        code, report = dispatch(
            ["check", "vvi", "--variant", "svvi", "--problem", str(path),
             "--at", "0", "--samples", "600"]
        )
        assert code in (0, 1)  # runs end to end with the custom kernel

    def test_stalled_sampler_exit_two(self, tmp_path, capsys):
        # at n = 8 almost no pair of the bounding box lands in the ball, so
        # the pair sampler gives up: a toolkit error, not a RuntimeError
        spec = {
            "version": "vvicert/1",
            "n": 8,
            "m": 2,
            "domain": [[-2.0, 2.0]] * 8,
            "pieces": [{"region": "0 <= 1", "components": ["x1", "x2"]}],
            "cone": {"orthant": 2},
            "kernel": {"kind": "difference"},
            "e": [0.5, 0.5],
        }
        path = tmp_path / "n8.json"
        path.write_text(json.dumps(spec))
        code, report = dispatch(
            ["check", "invex", "--class", "invex", "--problem", str(path),
             "--at", ",".join(["0"] * 8), "--samples", "200"]
        )
        assert code == 2 and report == {}
        assert "error: rejection sampling" in capsys.readouterr().err


class TestInputErrors:
    """Malformed command-line input exits 2 (exit 1 means refuted)."""

    EFFICIENCY = ["check", "efficiency", "--problem", "example5", "--at", "0"]

    @pytest.mark.parametrize(
        "extra",
        [
            ["--samples", "0"],
            ["--samples", "-3"],
            ["--samples", "1.5"],
            ["--samples", "abc"],
            ["--r", "-0.5"],
            ["--r", "0"],
            ["--r", "nan"],
            ["--r", "inf"],
            ["--r", "abc"],
        ],
    )
    def test_bad_effort_exit_two(self, extra):
        code, report = dispatch(self.EFFICIENCY + extra)
        assert code == 2 and report == {}

    def test_bad_samples_on_every_command(self):
        for argv in (
            ["check", "invex", "--class", "invex", "--problem", "example5", "--at", "0"],
            ["audit", "--problem", "example5", "--at", "0"],
            ["repro", "example5"],
        ):
            assert dispatch(argv + ["--samples", "-3"]) == (2, {})

    def test_bad_e_vector_exit_two(self, capsys):
        code, report = dispatch(self.EFFICIENCY + ["--e", "abc"])
        assert code == 2 and report == {}
        assert "error: not a vector" in capsys.readouterr().err

    def test_audit_generated_default_samples(self, monkeypatch):
        from vvicert import audit

        plans = []

        def fake_run_matrix(rules, instances, plan):
            plans.append(plan)
            return audit.MatrixSummary([])

        monkeypatch.setattr(audit, "run_matrix", fake_run_matrix)
        base = ["audit", "--problem", "example5", "--at", "0", "--rules", "T3.3"]
        dispatch(base)
        dispatch(base + ["--generated", "1"])
        dispatch(base + ["--generated", "1", "--samples", "300"])
        assert [(p.ball_sample_count, p.pair_sample_count) for p in plans] == [
            (10_000, 10_000), (2000, 2000), (300, 300)
        ]


class TestKernelAliases:
    def test_gen_unknown_kernel_exit_two(self, capsys):
        assert dispatch(["gen", "--kernel", "foo"]) == (2, {})
        assert "unknown kernel" in capsys.readouterr().err

    @pytest.mark.parametrize("alias", ["neg_norm", "negNorm", "NEG-NORM-DIFFERENCE"])
    def test_gen_accepts_every_check_alias(self, alias):
        _, want = dispatch(["gen", "--seed", "5", "--kernel", "negNormDifference"])
        code, got = dispatch(["gen", "--seed", "5", "--kernel", alias])
        assert code == 0
        assert payload_bytes(got) == payload_bytes(want)
        assert got["payload"]["problem"]["kernel"] == {"kind": "negNormDifference"}

    def test_check_and_gen_share_aliases(self):
        base = ["check", "invex", "--class", "invex", "--problem", "example23",
                "--at", "0", "--samples", "300"]
        _, want = dispatch(base + ["--kernel", "negNormDifference"])
        code, got = dispatch(base + ["--kernel", "neg_norm"])
        assert code == 0
        assert payload_bytes(got) == payload_bytes(want)
