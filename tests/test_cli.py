"""The command-line surface, exercised in-process through main()."""
import json
import math
import re

import pytest

from lpfactor.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLemma1:
    def test_prints_pair_and_case(self, capsys):
        code, out, _ = run(
            capsys, "lemma1", "--x", "2", "--y", "3", "--r", "1", "--R", "1", "--z", "6.2"
        )
        assert code == 0
        assert "u = 2.0" in out
        assert "v = 3.1" in out
        assert "case = 1" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "lemma1", "--x", "0", "--y", "0", "--r", "2", "--R", "2",
            "--z", "0.9", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == 3
        assert payload["u"] == pytest.approx(math.sqrt(0.9))

    def test_infeasible_exit_code(self, capsys):
        code, _, err = run(
            capsys, "lemma1", "--x", "0", "--y", "0", "--r", "1", "--R", "1", "--z", "0.3"
        )
        assert code == 2
        assert "infeasible" in err


# An LP instance in the current file format, without an exponent; f lies in
# L_oo but not in L_p for finite p.
LP_WITHOUT_P = {
    "kind": "lp",
    "space": {"atoms": [{"measure": 1.0}, {"measure": "inf"}]},
    "f": [1.0, 3.0],
    "g": [1.0, 0.0],
    "h": [1.01, 0.0],
    "eps": 1.0,
}


class TestPipelineFiles:
    def test_gen_factor_verify_lp(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        cert = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "gen", "--kind", "lp", "--n", "24", "--p", "1.5",
            "--eps", "1.0", "--defect-fraction", "0.8", "--seed", "9",
            "--out", str(inst),
        )
        assert code == 0
        code, _, _ = run(
            capsys, "factor", "--instance", str(inst), "--output", str(cert)
        )
        assert code == 0
        payload = json.loads(cert.read_text())
        assert set(payload) >= {"u", "v", "radius_u", "radius_v", "strict_v"}
        code, out, _ = run(
            capsys, "verify", "--instance", str(inst), "--certificate", str(cert),
            "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["constant_used"] == 0.25

    def test_verify_rejects_tampering_with_exit_3(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        cert = tmp_path / "cert.json"
        run(
            capsys, "gen", "--kind", "lp", "--n", "12", "--p", "2",
            "--eps", "1.0", "--defect-fraction", "0.5", "--seed", "4",
            "--out", str(inst),
        )
        run(capsys, "factor", "--instance", str(inst), "--output", str(cert))
        payload = json.loads(cert.read_text())
        idx = next(
            i for i, (a, b) in enumerate(zip(payload["u"], payload["v"]))
            if a != 0 and b != 0
        )
        payload["u"][idx] *= 1.001
        cert.write_text(json.dumps(payload))
        code, out, _ = run(
            capsys, "verify", "--instance", str(inst), "--certificate", str(cert)
        )
        assert code == 3
        assert "fail" in out

    @pytest.mark.parametrize(
        "instance, u",
        [
            ({"kind": "seq", "x": [1, 1], "y": [1, 1], "z": [1, 1], "eps": 1.0}, [1, 1]),
            (
                {
                    "kind": "lp",
                    "space": {"atoms": [{"id": a, "measure": 1} for a in "ab"]},
                    "f": [1, -1e308], "g": [1, 1], "h": [1, -1e308],
                    "p": 2, "eps": 1.0,
                },
                [1, 1e308],
            ),
        ],
    )
    def test_verify_nan_or_overflow_exits_3(self, tmp_path, capsys, instance, u):
        inst = tmp_path / "inst.json"
        cert = tmp_path / "cert.json"
        inst.write_text(json.dumps(instance))
        payload = {"u": u, "v": [1, math.nan], "radius_u": 1.0, "radius_v": 1.0,
                   "strict_u": True, "strict_v": True}
        cert.write_text(json.dumps(payload))
        code, out, _ = run(
            capsys, "verify", "--instance", str(inst), "--certificate", str(cert)
        )
        assert code == 3
        assert "verdict: fail" in out

    def test_factor_flags_override_instance(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        run(
            capsys, "gen", "--kind", "lp", "--n", "8", "--p", "2",
            "--eps", "1.0", "--defect-fraction", "0.3", "--seed", "2",
            "--out", str(inst),
        )
        # a tighter eps can push the same instance into infeasibility
        code, _, err = run(
            capsys, "factor", "--instance", str(inst), "--eps", "0.05"
        )
        assert code == 2
        assert "infeasible" in err

    def test_emit_params_with_full_pipeline(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        cert = tmp_path / "cert.json"
        params = tmp_path / "params.json"
        run(
            capsys, "gen", "--kind", "lp", "--n", "16", "--p", "3",
            "--eps", "1.0", "--defect-fraction", "0.6", "--seed", "77",
            "--out", str(inst),
        )
        code, _, _ = run(
            capsys, "factor", "--instance", str(inst), "--pipeline", "full",
            "--output", str(cert), "--emit-params", str(params),
        )
        assert code == 0
        audit = json.loads(params.read_text())
        assert audit["pipeline"] == "full"
        assert audit["params"]["eps1"] > 0
        assert 0 < audit["params"]["d"] <= 1
        assert audit["params"]["outer_delta"] is not None

    def test_default_pipeline_certifies_infinite_atoms(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        params = tmp_path / "params.json"
        cert = tmp_path / "cert.json"
        run(
            capsys, "gen", "--kind", "lp", "--n", "10", "--p", "1",
            "--eps", "1.0", "--defect-fraction", "0.5", "--seed", "12",
            "--infinite-atoms", "1", "--out", str(inst),
        )
        assert '"inf"' in inst.read_text()
        code, _, _ = run(
            capsys, "factor", "--instance", str(inst),
            "--output", str(cert), "--emit-params", str(params),
        )
        assert code == 0
        assert json.loads(params.read_text())["pipeline"] == "countable"
        code, _, _ = run(
            capsys, "verify", "--instance", str(inst), "--certificate", str(cert)
        )
        assert code == 0

    def test_auto_pipeline_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["factor", "--instance", str(tmp_path / "x.json"), "--pipeline", "auto"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor-seq", "--instance", "x.json", "--strategy", "auto"],
            ["verify", "--instance", "x.json", "--certificate", "c.json", "--tol", "1"],
        ],
    )
    def test_removed_options_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            main(argv)

    def test_certificate_with_stale_tolerance_verifies(self, tmp_path, capsys):
        inst = tmp_path / "seq.json"
        cert = tmp_path / "cert.json"
        inst.write_text(json.dumps({"x": [1.0], "y": [1.0], "z": [1.01], "eps": 1.0}))
        run(capsys, "factor-seq", "--instance", str(inst), "--output", str(cert))
        payload = json.loads(cert.read_text())
        assert "product_tolerance" not in payload
        # the key older versions wrote; the verifier's own tolerance applies
        cert.write_text(json.dumps({**payload, "product_tolerance": 0.0}))
        code, out, _ = run(
            capsys, "verify", "--instance", str(inst), "--certificate", str(cert)
        )
        assert code == 0 and "verdict: pass" in out

    def test_non_finite_eps_is_bad_input_not_infeasible(self, tmp_path, capsys):
        inst = tmp_path / "seq.json"
        inst.write_text(json.dumps({"x": [1.0], "y": [1.0], "z": [1.01]}))
        nan_inst = tmp_path / "nan.json"
        nan_inst.write_text('{"kind": "seq", "x": [1], "y": [1], "z": [1], "eps": NaN}')
        cert = tmp_path / "cert.json"
        cert.write_text(
            json.dumps({"u": [1.0], "v": [1.0], "radius_u": 1.0, "radius_v": 1.0})
        )
        out = tmp_path / "gen.json"
        for argv in (
            ["factor-seq", "--instance", str(inst), "--eps", "nan"],
            ["gen", "--kind", "seq", "--eps", "nan", "--out", str(out)],
            ["gen", "--eps", "nan", "--out", str(out)],
            ["verify", "--instance", str(nan_inst), "--certificate", str(cert)],
        ):
            code, stdout, err = run(capsys, *argv)
            assert (code, stdout) == (1, "")
            assert err == "bad input: eps must be positive and finite\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, instance, code, message",
        [
            (["factor", "--p", "inf"], LP_WITHOUT_P, 0, ""),
            (["factor"], LP_WITHOUT_P, 1, "instance file lacks p/eps; pass --p and --eps"),
            (
                ["factor", "--p", "2"],
                {"kind": "seq", "x": [1], "y": [1], "z": [1.01], "eps": 1.0},
                1,
                "factor expects an LP instance; use factor-seq for sequences",
            ),
            (
                ["factor-seq"],
                {**LP_WITHOUT_P, "p": 2},
                1,
                "factor-seq expects a sequence instance",
            ),
        ],
    )
    def test_instance_file_branches(
        self, tmp_path, capsys, command, instance, code, message
    ):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(instance))
        got, out, err = run(capsys, *command, "--instance", str(inst))
        assert (got, err) == (code, message + "\n" if message else "")
        if code == 0:  # --p inf certifies as a file that holds "p": "inf"
            inst.write_text(json.dumps({**instance, "p": "inf"}))
            assert run(capsys, "factor", "--instance", str(inst)) == (0, out, "")

    @pytest.mark.parametrize(
        "command, instance, certificate, message",
        [
            (
                ["factor"],
                {k: v for k, v in LP_WITHOUT_P.items() if k != "f"} | {"p": 2},
                None,
                "LP instance lacks 'f'",
            ),
            (["factor", "--p", "2"], [LP_WITHOUT_P], None, "instance must be a JSON object, not list"),
            (["factor-seq"], [], None, "instance must be a JSON object, not list"),
            (
                ["factor"],
                {**LP_WITHOUT_P, "p": 2, "f": 1.0},
                None,
                "LP instance 'f' has the wrong shape",
            ),
            (
                ["factor"],
                {**LP_WITHOUT_P, "p": 2, "space": {"atoms": [1.0, "inf"]}},
                None,
                "atom must be a JSON object, not float",
            ),
            (["verify"], [1.0], {"u": [1.0]}, "instance must be a JSON object, not list"),
            (
                ["verify"],
                {"kind": "seq", "x": [1], "y": [1], "z": [1.01], "eps": 1.0},
                {"u": [1.0], "v": [1.01], "radius_u": 1.0, "radius_v": 1.0},
                "certificate lacks 'strict_v'",
            ),
            (
                ["verify"],
                {"kind": "seq", "x": [1], "y": [1], "z": [1.01], "eps": 1.0},
                [1.0],
                "certificate must be a JSON object, not list",
            ),
        ],
    )
    def test_malformed_json_is_bad_input(
        self, tmp_path, capsys, command, instance, certificate, message
    ):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(instance))
        argv = [*command, "--instance", str(inst)]
        if certificate is not None:
            cert = tmp_path / "cert.json"
            cert.write_text(json.dumps(certificate))
            argv += ["--certificate", str(cert)]
        assert run(capsys, *argv) == (1, "", f"bad input: {message}\n")

    @pytest.mark.parametrize(
        "command, instance",
        [
            (
                ["factor", "--pipeline", "countable"],
                {"kind": "lp", "space": {"atoms": [{"id": "a", "measure": 1}]},
                 "f": [0], "g": [0], "h": [1], "p": 2, "eps": 1.0},
            ),
            (
                ["factor", "--pipeline", "full"],
                {"kind": "lp", "space": {"atoms": [{"id": "a", "measure": 1}]},
                 "f": [0], "g": [0], "h": [1], "p": 2, "eps": 1.0},
            ),
            (["factor-seq"], {"kind": "seq", "x": [0], "y": [0], "z": [1], "eps": 1.0}),
        ],
    )
    def test_infeasible_instance_exits_2(self, tmp_path, capsys, command, instance):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(instance))
        code, out, err = run(capsys, *command, "--instance", str(inst))
        assert code == 2 and out == ""
        assert re.fullmatch(r"infeasible: defect \S+ >= bound \S+\n", err)

    def test_factor_seq_round_trip(self, tmp_path, capsys):
        inst = tmp_path / "seq.json"
        cert = tmp_path / "cert.json"
        run(
            capsys, "gen", "--kind", "seq", "--n", "30",
            "--eps", "0.5", "--defect-fraction", "0.7", "--seed", "31",
            "--out", str(inst),
        )
        for strategy in ("finite", "tail"):
            code, _, _ = run(
                capsys, "factor-seq", "--instance", str(inst),
                "--strategy", strategy, "--output", str(cert),
            )
            assert code == 0
            code, _, _ = run(
                capsys, "verify", "--instance", str(inst),
                "--certificate", str(cert),
            )
            assert code == 0

    def test_bare_seq_file_needs_eps_flag(self, tmp_path, capsys):
        inst = tmp_path / "seq.json"
        inst.write_text(json.dumps({"x": [1.0], "y": [1.0], "z": [1.01]}))
        code, _, err = run(capsys, "factor-seq", "--instance", str(inst))
        assert code == 1 and "eps" in err
        code, out, _ = run(
            capsys, "factor-seq", "--instance", str(inst), "--eps", "1.0"
        )
        assert code == 0
        assert json.loads(out)["v"] == [1.01]


class TestSweep:
    def test_selected_criteria_fast(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--criteria", "5,6", "--fast"
        )
        assert code == 0
        assert "criterion 5 [PASS]" in out
        assert "criterion 6 [PASS]" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "sweep", "--criteria", "6", "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results[0]["criterion"] == 6
        assert results[0]["passed"] is True
