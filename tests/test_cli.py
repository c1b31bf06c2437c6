import json
import time

import numpy as np
import pytest

from conftest import cross_cone
from vvicert import exprlang as el
from vvicert.cli import dispatch, load_problem, main
from vvicert.errors import DimensionMismatchError, ParseError, ProblemFileError, VviCertError
from vvicert.problem import Problem


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

    def test_uncovered_domain_exit_two(self, tmp_path, capsys):
        # no region of the two pieces meets the domain: the load-time check
        # warns of the gap and the check fails as a toolkit error
        spec = {
            "version": "vvicert/1",
            "n": 1,
            "m": 2,
            "domain": [[-1.0, 1.0]],
            "pieces": [{"region": "x1 >= 5", "components": ["x1", "x1"]},
                       {"region": "x1 <= -5", "components": ["0", "0"]}],
        }
        path = tmp_path / "uncovered.json"
        path.write_text(json.dumps(spec))
        code, report = dispatch(["check", "critical", "--problem", str(path), "--at", "0"])
        assert code == 2 and report == {}
        err = capsys.readouterr().err
        assert "coverage: 512/512 sampled points activate no region" in err
        assert "error: no region covers point [0.0]" in err

    def test_gap_between_regions_warns(self, tmp_path, capsys):
        # x1 < 0 and x1 > 0 leave out the sampled point 0.0 only: a warning,
        # and the Jacobian inside a piece is computed; --strict refuses it
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(GAP_FILE))
        argv = ["jacobian", "--problem", str(path), "--at", "0.5"]
        warning = "coverage: 1/512 sampled points activate no region (first: [0.0])"
        code, report = dispatch(argv)
        assert code == 0 and report["payload"]["vertices"] == [[[1.0], [-1.0]]]
        assert capsys.readouterr().err.splitlines() == [f"warning: {warning}"]
        assert dispatch(argv + ["--strict"]) == (2, {})
        assert capsys.readouterr().err.splitlines() == [f"error: {warning}"]

    def test_overflowing_pieces_warn_once(self, tmp_path):
        # both pieces overflow to inf on x1 = 0, where inf - inf is NaN: the
        # continuity check skips it, and numpy's own warning stays unprinted.
        # A child process shows the stderr that a user sees.
        import os
        import subprocess
        import sys

        import vvicert

        big = "x1 + 10^300*10^300*(1 + x2^2)"
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "version": "vvicert/1", "n": 2, "m": 2, "domain": [[-1, 1.3], [-1, 1]],
            "pieces": [{"region": "x1 <= 0", "components": [big, "x2 + 1"]},
                       {"region": "x1 >= 0", "components": [big, "x2"]}],
        }))
        src = os.path.dirname(os.path.dirname(vvicert.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        res = subprocess.run(
            [sys.executable, "-m", "vvicert.cli", "jacobian", "--problem", str(path),
             "--at", "0.5,0.5"], capture_output=True, text=True, env=env,
        )
        assert res.returncode == 0
        assert res.stderr.splitlines() == [
            "warning: continuity: pieces disagree by 1.000e+00 at boundary point [0.0, 0.0]"
        ]

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["check", "critical", "--problem", "example5", "--at", "0"], 0),
            (["check", "invex", "--class", "invex", "--problem", "example23", "--at", "0",
              "--e", "0.5,0.5", "--kernel", "difference", "--samples", "200"], 1),
        ],
    )
    def test_closed_pipe_keeps_the_exit_code(self, argv, code):
        # `vvicert ... | head` closes the pipe before the report is written:
        # the command ends quietly with its own exit code
        import os
        import subprocess
        import sys

        import vvicert

        src = os.path.dirname(os.path.dirname(vvicert.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            res = subprocess.run(
                [sys.executable, "-m", "vvicert.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert res.returncode == code
        assert res.stderr == ""


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

    @pytest.mark.parametrize(
        "argv",
        [["gen", "--seed", "-1"], EFFICIENCY + ["--seed", "-1"],
         ["audit", "--problem", "example5", "--at", "0", "--seed", "-2", "--generated", "1"]],
    )
    def test_negative_seed_exit_two(self, capsys, argv):
        assert dispatch(argv) == (2, {})
        assert "error: seed must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "1.5", "-7"])
    def test_bad_seed_env_exit_two(self, monkeypatch, capsys, value):
        monkeypatch.setenv("VVICERT_SEED", value)
        for argv in (["gen"], self.EFFICIENCY, ["jacobian", "--problem", "example5", "--at", "0"]):
            assert dispatch(argv) == (2, {})
        assert "error:" in capsys.readouterr().err

    def test_bad_e_vector_exit_two(self, capsys):
        code, report = dispatch(self.EFFICIENCY + ["--e", "abc"])
        assert code == 2 and report == {}
        assert "error: not a vector" in capsys.readouterr().err

    @pytest.mark.parametrize("rules", ["", " , "])
    def test_empty_rule_list_exit_two(self, capsys, rules):
        assert dispatch(["audit", "--rules", rules, "--problem", "example5", "--at", "0"]) == (2, {})
        assert capsys.readouterr().err.splitlines() == ["error: no rules given"]

    def test_unknown_rule_exit_two(self, capsys):
        argv = ["audit", "--rules", "T4.6, T9.9", "--problem", "example5", "--at", "0"]
        assert dispatch(argv) == (2, {})
        assert capsys.readouterr().err.splitlines() == ["error: unknown rules: T9.9"]

    AUDIT_T46 = ["audit", "--rules", "T4.6", "--problem", "example5", "--at", "0",
                 "--samples", "100"]

    @pytest.mark.parametrize("count", ["-3", "-1", "1.5", "abc"])
    def test_bad_generated_count_exit_two(self, capsys, count):
        assert dispatch(self.AUDIT_T46 + ["--generated", count]) == (2, {})
        assert "argument --generated: not a finite int >= 0" in capsys.readouterr().err

    def test_generated_zero_is_no_generated(self):
        code, report = dispatch(self.AUDIT_T46 + ["--generated", "0"])
        assert code == 0
        assert payload_bytes(report) == payload_bytes(dispatch(self.AUDIT_T46)[1])

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


# two pieces that agree, on regions that leave out x1 = 0
GAP_FILE = {
    "version": "vvicert/1", "n": 1, "m": 2, "domain": [[-1.0, 1.0]],
    "pieces": [{"region": "x1 < 0", "components": ["x1", "-x1"]},
               {"region": "x1 > 0", "components": ["x1", "-x1"]}],
}


def _set_first_component(spec, text):
    spec["pieces"][0]["components"][0] = text


def _malformed(change):
    """The example5 problem file with one change applied."""
    spec = json.loads(json.dumps(load_problem("example5").to_dict()))
    change(spec)
    return spec


MALFORMED_FILES = {
    "empty cone": ("cone", lambda s: s.update(cone={})),
    "cone not pointed": ("cone", lambda s: s.update(cone={"normals": [[1, 0], [-1, 0]]})),
    "cone of another dimension": ("cone", lambda s: s.update(cone={"orthant": 3})),
    "normals and generators disagree in m": (
        "cone", lambda s: s.update(cone={"normals": [[1, 0], [0, 1]], "generators": [[1, 0, 0]]})
    ),
    "piece with one component": ("pieces", lambda s: s["pieces"][0].update(components=["x1"])),
    "custom kernel of two components": (
        "kernel", lambda s: s.update(kernel={"kind": "custom", "components": ["x1 - y1", "0"]})
    ),
    "e of three entries": ("e", lambda s: s.update(e=[0.5, 0.5, 0.5])),
    "unknown kernel kind": ("kernel", lambda s: s.update(kernel={"kind": "bogus"})),
    "empty domain box": ("domain", lambda s: s.update(domain=[[1, 1]])),
    "domain row of three": ("domain", lambda s: s.update(domain=[[-2, 2, 3]])),
    "domain bound not finite": ("domain", lambda s: s.update(domain=[[float("nan"), 2]])),
    "no pieces": ("pieces", lambda s: s.update(pieces=[])),
    "missing n": ("n", lambda s: s.pop("n")),
    "piece without region": ("pieces", lambda s: s["pieces"][0].pop("region")),
    "e not numbers": ("e", lambda s: s.update(e=["a", "b"])),
    "point of another dimension": ("points", lambda s: s.update(points={"xi": [0, 0, 0]})),
    # texts that ended in a stray exception (exit 1) instead of a ParseError
    "zero to a negative power": ("pieces", lambda s: _set_first_component(s, "0^-1*x1")),
    "constant overflow": ("pieces", lambda s: _set_first_component(s, "10^400*x1")),
    "300 nested parentheses": (
        "pieces", lambda s: _set_first_component(s, "(" * 300 + "x1" + ")" * 300)
    ),
    "sum of 5000 terms": ("pieces", lambda s: _set_first_component(s, " + ".join(["x1"] * 5000))),
}


class TestOptionsPerCommand:
    """Each command takes only the options that its work reads."""

    E5 = ["--problem", "example5", "--at", "0"]

    @pytest.mark.parametrize(
        "argv",
        [
            # the VVIs take no e and search the unit box, not a ball
            ["check", "vvi", "--variant", "svvi", *E5, "--e", "-1,-1"],
            ["check", "vvi", "--variant", "svvi", *E5, "--r", "5"],
            # criticality draws no samples; the Jacobian builds no plan
            ["check", "critical", *E5, "--samples", "300"],
            ["check", "critical", *E5, "--r", "0.5"],
            ["jacobian", *E5, "--samples", "300"],
            ["jacobian", *E5, "--r", "0.5"],
        ],
        ids=["vvi-e", "vvi-r", "critical-samples", "critical-r", "jacobian-samples", "jacobian-r"],
    )
    def test_unread_option_is_a_usage_error(self, capsys, argv):
        assert dispatch(argv) == (2, {})
        assert "error: unrecognized arguments" in capsys.readouterr().err

    def test_vvi_reads_kernel_and_samples(self, example5):
        from vvicert.certify import SamplingPlan, check_vvi
        from vvicert.model import Kernel

        code, report = dispatch(["check", "vvi", "--variant", "svvi", *self.E5,
                                 "--kernel", "difference", "--samples", "300"])
        plan = SamplingPlan(ball_sample_count=300, pair_sample_count=300)
        want = check_vvi("svvi", example5.f, example5.cone, Kernel("difference", 1), [0.0], plan)
        assert code == 0
        assert payload_bytes(report) == payload_bytes({"payload": {
            "operation": "check vvi", "verdict": want.to_payload()}})

    def test_audit_reads_radius_and_samples(self):
        code, report = dispatch(["audit", "--rules", "T4.6", *self.E5,
                                 "--r", "0.2", "--samples", "300"])
        text = payload_bytes(report)
        assert code == 0
        assert '"radius":0.2,' in text and '"ballSampleCount":300,' in text
        assert '"radius":0.25' not in text


class TestMalformedProblemFiles:
    """A malformed problem file exits 2 with one error line naming the key."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
    def test_exit_two_naming_the_key(self, tmp_path, capsys, case):
        key, change = MALFORMED_FILES[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_malformed(change)), encoding="utf-8")
        code = main(["check", "critical", "--problem", str(path), "--at", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: problem key {key!r}: ")

    @pytest.mark.parametrize("key", ["n", "m"])
    def test_dimension_below_one_exit_two(self, tmp_path, capsys, key):
        # files that are consistent otherwise, so only the dimension is wrong
        spec = {
            "n": {"version": "vvicert/1", "n": 0, "m": 1, "domain": [],
                  "pieces": [{"region": "1 >= 0", "components": ["1"]}]},
            "m": {"version": "vvicert/1", "n": 1, "m": 0, "domain": [[-1, 1]],
                  "pieces": [{"region": "x1 >= -2", "components": []}],
                  "e": [], "cone": {"orthant": 0}},
        }[key]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        for argv in (["jacobian"], ["check", "critical"], ["audit", "--rules", "R4.0"]):
            assert main([*argv, "--problem", str(path), "--at", "0"]) == 2
            assert capsys.readouterr().err == (
                f"error: problem key {key!r}: dimension 0 is below 1\n"
            )

    def test_one_dimensional_cone_of_the_origin_exit_two(self, tmp_path, capsys):
        spec = {"version": "vvicert/1", "n": 1, "m": 1, "domain": [[-1, 1]],
                "pieces": [{"region": "x1 >= -2", "components": ["x1"]}],
                "e": [1], "cone": {"normals": [[1], [-1]]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["check", "critical", "--problem", str(path), "--at", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: problem key 'cone': cone has empty interior (no strictly interior witness)\n"
        )

    @pytest.mark.parametrize(
        "cone, reason",
        [
            ({"normals": [[1, 0], [0, 1]], "generators": [[-1, 0], [0, -1]]},
             "generators leave the cone of the normals"),
            # rank 2, yet inside the line x1 = 0
            ({"normals": [[1, 0], [-1, 0], [0, 1]]},
             "cone has empty interior (no strictly interior witness)"),
            # the orthant's best witness has slack 1/sqrt(2) on each facet
            ({"orthant": 2, "margin": 0.9}, "cone interior too thin for the strictness margin"),
        ],
        ids=["generators outside", "empty interior", "margin too wide"],
    )
    def test_cone_error_exit_two(self, tmp_path, capsys, cone, reason):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_malformed(lambda s: s.update(cone=cone))), encoding="utf-8")
        assert main(["check", "critical", "--problem", str(path), "--at", "0"]) == 2
        assert capsys.readouterr().err == f"error: problem key 'cone': {reason}\n"

    def test_region_naming_y_exit_two(self, tmp_path, capsys):
        # regions are tested at x alone: y1 is refused where it is parsed
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_malformed(
            lambda s: s["pieces"][0].update(region="x1 + y1 >= 0"))), encoding="utf-8")
        assert main(["check", "critical", "--problem", str(path), "--at", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: problem key 'pieces': 'y' variables are only available in kernel "
            "context (at offset 5)\n"
        )

    def test_top_level_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main(["check", "critical", "--problem", str(path), "--at", "0"]) == 2
        assert capsys.readouterr().err == "error: a problem is a JSON object, not list\n"

    @pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
    def test_library_error_keeps_the_cause(self, case):
        key, change = MALFORMED_FILES[case]
        with pytest.raises(ProblemFileError) as info:
            Problem.from_dict(_malformed(change))
        assert info.value.key == key
        assert isinstance(
            info.value.__cause__,
            (KeyError, TypeError, ValueError, DimensionMismatchError, ParseError),
        )


class TestExpressionDepth:
    """A tree as deep as exprlang.MAX_DEPTH gets a verdict; one level deeper
    is refused where it is parsed."""

    @staticmethod
    def _sum_file(tmp_path, terms):
        # x1/terms at the leaves: a path of terms + 1 nodes
        path = tmp_path / "deep.json"
        text = " + ".join([f"x1/{terms}"] * terms)
        path.write_text(json.dumps(_malformed(lambda s: _set_first_component(s, text))))
        return str(path)

    def test_tree_at_the_bound_gets_a_verdict(self, tmp_path, capsys):
        path = self._sum_file(tmp_path, el.MAX_DEPTH - 1)
        for argv in (["jacobian"], ["check", "critical"]):
            assert main([*argv, "--problem", path, "--at", "0"]) in (0, 1)
            assert capsys.readouterr().err == ""

    def test_one_level_deeper_exit_two(self, tmp_path, capsys):
        path = self._sum_file(tmp_path, el.MAX_DEPTH)
        assert main(["jacobian", "--problem", path, "--at", "0"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: problem key 'pieces': expression nested deeper than {el.MAX_DEPTH}"
        )


def _kink_file(m, cone, e):
    """f: R -> R^m with a kink at 0, under the given cone block."""
    return {
        "version": "vvicert/1", "n": 1, "m": m, "domain": [[-1, 1]],
        "pieces": [
            {"region": "x1 <= 0", "components": [f"{k + 1}*x1" for k in range(m)]},
            {"region": "x1 >= 0", "components": [f"x1^2 - {k + 1}*x1" for k in range(m)]},
        ],
        "cone": cone, "e": e,
    }


class TestConesByNormalsAlone:
    """A cone is its normals, in any dimension; generators given alone are
    enumerated into normals within a bounded work."""

    FILES = {
        "cross m = 5": _kink_file(5, {"normals": cross_cone(5)[0].tolist()}, [0, 0, 0, 0, 1]),
        "tilted m = 8": _kink_file(
            8, {"normals": (np.eye(8) + 0.2 * np.eye(8, k=1)).tolist()}, [0.5] * 8
        ),
    }

    @pytest.mark.parametrize("argv", [
        ["jacobian"],
        ["check", "efficiency", "--samples", "300"],
        ["check", "vvi", "--variant", "svvi", "--samples", "300"],
        ["check", "invex", "--class", "invex", "--samples", "300"],
        ["check", "critical"],
        ["audit", "--samples", "300"],
    ], ids=["jacobian", "efficiency", "vvi", "invex", "critical", "audit"])
    @pytest.mark.parametrize("case", sorted(FILES))
    def test_every_command_gives_a_verdict(self, tmp_path, capsys, case, argv):
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(self.FILES[case]), encoding="utf-8")
        assert main([*argv, "--problem", str(path), "--at", "0"]) in (0, 1)
        err = capsys.readouterr().err  # the audit's table goes to stderr
        assert "error" not in err and "warning" not in err

    @pytest.mark.parametrize("m, rays", [
        (6, cross_cone(6)[1].T.tolist()),  # 201,376 subsets of 5 of 32 rays
        (4, np.random.default_rng(0).uniform(0.1, 1.0, (100, 4)).tolist()),  # 161,700
    ], ids=["cross m = 6", "100 rays in m = 4"])
    def test_enumeration_past_its_bound_refused_at_once(self, tmp_path, capsys, m, rays):
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(_kink_file(m, {"generators": rays}, [1.0] * m)),
                        encoding="utf-8")
        start = time.perf_counter()
        code = main(["check", "critical", "--problem", str(path), "--at", "0"])
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: problem key 'cone': ")
        assert "give the cone's normals" in err


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
