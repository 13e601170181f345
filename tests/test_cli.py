"""Command line interface: exit codes, file outputs, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from netsmith.cli import main
from netsmith.lti_core import RationalTF
from netsmith.presets import demo_controller, demo_plant, demo_prefilter
from netsmith.smith_design import PredictorDesign, design_filter, make_design


@pytest.fixture()
def components(tmp_path):
    paths = {}
    for name, tf in [("plant", demo_plant()), ("controller", demo_controller()),
                     ("prefilter", demo_prefilter())]:
        p = tmp_path / f"{name}.json"
        p.write_text(tf.to_json() + "\n")
        paths[name] = str(p)
    return paths


@pytest.fixture()
def design_file(tmp_path, components):
    out = tmp_path / "design.json"
    rc = main(["design", components["plant"], components["controller"],
               components["prefilter"], "--lambda", "0.9", "--tau-plant", "5",
               "--tau-net-min", "0", "--tau-net-max", "2", "-o", str(out)])
    assert rc == 0
    return str(out)


def test_design_writes_output_and_manifest(design_file):
    out = Path(design_file)
    assert out.exists()
    manifest = json.loads((out.parent / "design.json.manifest.json").read_text())
    assert manifest["output"] == "design.json"
    assert len(manifest["output_sha256"]) == 64
    assert manifest["config"]["command"] == "design"
    assert "timestamp" not in json.dumps(manifest).lower()


def test_design_reports_residuals(tmp_path, components, capsys):
    out = tmp_path / "d.json"
    main(["design", components["plant"], components["controller"],
          components["prefilter"], "--tau-plant", "5", "--tau-net-max", "2",
          "-o", str(out)])
    text = capsys.readouterr().out
    assert "interpolation residual" in text
    assert "pole radii" in text


def test_design_bad_bounds_is_usage_error(tmp_path, components, capsys):
    rc = main(["design", components["plant"], components["controller"],
               components["prefilter"], "--tau-plant", "5",
               "--tau-net-min", "3", "--tau-net-max", "1",
               "-o", str(tmp_path / "d.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "delay" in err.lower()


@pytest.mark.parametrize("threshold", ["nan", "inf", "1.0"])
def test_design_ill_posed_slow_pole_threshold_is_usage_error(tmp_path, components,
                                                             capsys, threshold):
    out = tmp_path / "d.json"
    rc = main(["design", components["plant"], components["controller"],
               components["prefilter"], "--tau-plant", "5", "--tau-net-max", "2",
               "--slow-pole-threshold", threshold, "-o", str(out)])
    assert rc == 2
    assert "slow-pole threshold" in capsys.readouterr().err
    assert not out.exists()


def test_check_exit_codes(design_file):
    assert main(["check", design_file, "--protocol", "p1", "--tau-max", "3"]) == 0
    assert main(["check", design_file, "--protocol", "p1", "--tau-max", "4"]) == 1


def test_check_unstable_cancellation_exits_3(tmp_path, components):
    controller = tmp_path / "cancelling.json"
    controller.write_text(RationalTF([5.0, -5.0 * 1.051], [1.0, -0.5]).to_json())
    out = tmp_path / "bad.json"
    assert main(["design", components["plant"], str(controller),
                 components["prefilter"], "--tau-plant", "5", "--tau-net-min", "0",
                 "--tau-net-max", "2", "-o", str(out)]) == 0
    assert main(["check", str(out), "--protocol", "p1"]) == 3
    assert main(["check", str(out), "--protocol", "p1", "--scan"]) == 3


def test_check_scan_reports_threshold(design_file, capsys):
    for kind, want in [("p1", 3), ("p2", 2), ("p3", 2)]:
        rc = main(["check", design_file, "--protocol", kind, "--scan"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_certified_tau_bar"] == want


def test_check_scan_refuses_tau_max(design_file, capsys):
    rc = main(["check", design_file, "--protocol", "p1", "--scan", "--tau-max", "4"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--tau-max" in captured.err and captured.out == ""


def test_check_scan_refuses_bode(design_file, tmp_path, capsys):
    bode = tmp_path / "b.csv"
    rc = main(["check", design_file, "--protocol", "p1", "--scan",
               "--bode", str(bode)])
    assert rc == 2
    assert "--bode" in capsys.readouterr().err
    assert not bode.exists()


@pytest.mark.parametrize("alpha_a", ["-1", "nan", "inf"])
@pytest.mark.parametrize("scan", [[], ["--scan"]], ids=["verdict", "scan"])
def test_check_ill_posed_alpha_a_is_usage_error(design_file, capsys, alpha_a, scan):
    rc = main(["check", design_file, "--protocol", "p1", f"--alpha-a={alpha_a}", *scan])
    assert rc == 2
    captured = capsys.readouterr()
    assert "alpha_A" in captured.err and captured.out == ""


def test_check_verdict_document(design_file, capsys):
    main(["check", design_file, "--protocol", "p2", "--tau-max", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "certified"
    assert doc["component_gains"]["alpha"] == pytest.approx(2.0816659994661326)


def _stored_blocks(design_file):
    """predictor_block entries that disagree with the file's plant, filter
    and delay: H times 5, H times -1, and the H of the demo at tau_n_min 1."""
    doc = json.loads(Path(design_file).read_text())
    H = PredictorDesign.from_dict(doc).predictor_block.to_dict()
    other = make_design(demo_plant(), demo_controller(), demo_prefilter(),
                        d_hat=5, tau_n_min=1, tau_n_max=2).predictor_block
    return doc, {"times 5": {**H, "num": [5.0 * c for c in H["num"]]},
                 "times -1": {**H, "num": [-c for c in H["num"]]},
                 "tau_n_min 1": other.to_dict()}


@pytest.mark.parametrize("block", ["times 5", "times -1", "tau_n_min 1"])
def test_stored_prediction_block_is_ignored(design_file, tmp_path, block):
    doc, blocks = _stored_blocks(design_file)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps({**doc, "predictor_block": blocks[block]}))
    outputs = []
    for path in (design_file, tampered):
        verdict, trace = tmp_path / "verdict.json", tmp_path / "trace.csv"
        assert main(["check", str(path), "--protocol", "p1", "-o", str(verdict)]) == 0
        assert main(["simulate", str(path), "--protocol", "p1", "--delays", "pattern",
                     "--steps", "300", "-o", str(trace)]) == 0
        outputs.append((verdict.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]


def test_filter_for_another_delay_is_usage_error(design_file, tmp_path, capsys):
    doc = json.loads(Path(design_file).read_text())
    doc["filter"] = design_filter(demo_plant(), 4, 0.9).to_dict()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad), "--protocol", "p1"]) == 2
    assert "interpolation residual" in capsys.readouterr().err


def test_check_bode_output(design_file, tmp_path):
    bode = tmp_path / "sweep.csv"
    rc = main(["check", design_file, "--protocol", "p1", "--bode", str(bode),
               "-o", str(tmp_path / "verdict.json")])
    assert rc == 0
    lines = bode.read_text().strip().splitlines()
    assert lines[0] == "omega,mag_db"
    assert len(lines) > 100


def test_gain_table(capsys):
    rc = main(["gain", "--tau-max-range", "0:3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "tau_bar,alpha_p1,alpha_p2,alpha_p3"
    row1 = lines[2].split(",")
    assert float(row1[1]) == 1.0
    assert float(row1[2]) == 1.0
    assert float(row1[3]) == pytest.approx(math.sqrt(2.5), abs=1e-15)


def test_gain_single_protocol(capsys):
    main(["gain", "--protocol", "p1", "--tau-max-range", "4"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["tau_bar,alpha_p1", "4,4"]


def test_oracle_worked_example(capsys):
    rc = main(["oracle", "--protocol", "p3", "--tau-max", "1", "--horizon", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "T,alpha_T,alpha_analytic"
    T, alpha_T, alpha = lines[1].split(",")
    assert T == "2"
    assert alpha_T == "1.4142135623730951"


def test_oracle_trace_output(tmp_path, capsys):
    out = tmp_path / "o.csv"
    tr = tmp_path / "tr.csv"
    rc = main(["oracle", "--protocol", "p3", "--tau-max", "1", "--horizon", "2",
               "-o", str(out), "--trace-out", str(tr)])
    assert rc == 0
    assert tr.read_text().strip().splitlines()[0] == "j,tau"
    assert (tmp_path / "o.csv.manifest.json").exists()


def test_oracle_summary_names_closed_form_only_where_exact(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    assert main(["oracle", "--protocol", "p1", "--tau-max", "0", "--horizon", "3",
                 "-o", out]) == 0
    assert "closed form" not in capsys.readouterr().out
    assert main(["oracle", "--protocol", "p1", "--tau-max", "1", "--horizon", "8",
                 "-o", out]) == 0
    assert "closed form" not in capsys.readouterr().out
    assert main(["oracle", "--protocol", "p3", "--tau-max", "1", "--horizon", "8",
                 "-o", out]) == 0
    assert "closed form 1.52752523165" in capsys.readouterr().out


def test_oracle_random_selector_is_usage_error(capsys):
    rc = main(["oracle", "--protocol", "p3", "--tau-max", "2", "--horizon", "6",
               "--selector", "random"])
    assert rc == 2
    assert "random" in capsys.readouterr().err


def test_simulate_deterministic_reruns(design_file, tmp_path):
    out = tmp_path / "trace.csv"
    argv = ["simulate", design_file, "--protocol", "p3", "--delays", "pattern",
            "--steps", "60", "-o", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    manifest_first = (tmp_path / "trace.csv.manifest.json").read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "trace.csv.manifest.json").read_bytes() == manifest_first


def test_simulate_seeded_random(design_file, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["simulate", design_file, "--protocol", "p3", "--selector", "random",
            "--delays", "random", "--seed", "99", "--steps", "40"]
    assert main(base + ["-o", str(out1)]) == 0
    assert main(base + ["-o", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_simulate_requires_seed_for_random(design_file, capsys):
    assert main(["simulate", design_file, "--protocol", "p1",
                 "--delays", "random", "--steps", "10"]) == 2
    assert main(["simulate", design_file, "--protocol", "p3",
                 "--selector", "random", "--delays", "pattern",
                 "--steps", "10"]) == 2


@pytest.mark.parametrize("delays", ["pattern", "random"])
@pytest.mark.parametrize("steps", ["-3", "0"])
def test_simulate_rejects_empty_horizon(design_file, steps, delays, capsys):
    assert main(["simulate", design_file, "--protocol", "p1", "--delays", delays,
                 "--seed", "1", "--steps", steps]) == 2
    assert "horizon must be at least 1 step" in capsys.readouterr().err


@pytest.mark.parametrize("amplitude", ["nan", "inf", "-inf"])
def test_simulate_rejects_non_finite_amplitude(design_file, amplitude, capsys):
    assert main(["simulate", design_file, "--protocol", "p1", "--delays", "pattern",
                 "--steps", "3", f"--amplitude={amplitude}"]) == 2
    captured = capsys.readouterr()
    assert "reference has non-finite values" in captured.err
    assert captured.out == ""


def test_simulate_reads_selector_for_p3_only(design_file, capsys):
    base = ["simulate", design_file, "--protocol", "p1", "--delays", "pattern",
            "--steps", "20"]
    assert main(base) == 0
    plain = capsys.readouterr().out
    assert main(base + ["--selector", "random"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("command", ["oracle", "simulate"])
def test_newest_selector_is_usage_error(design_file, command, capsys):
    argv = {"oracle": ["oracle", "--protocol", "p3", "--tau-max", "2", "--horizon", "4"],
            "simulate": ["simulate", design_file, "--protocol", "p3",
                         "--delays", "pattern", "--steps", "10"]}[command]
    assert main(argv + ["--selector", "newest"]) == 2
    assert "newest" in capsys.readouterr().err


def test_simulate_from_delay_file(design_file, tmp_path, capsys):
    f = tmp_path / "delays.csv"
    f.write_text("j,tau\n" + "\n".join(f"{j},1" for j in range(30)) + "\n")
    rc = main(["simulate", design_file, "--protocol", "p2",
               "--delays", str(f), "--steps", "30"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 31


def test_simulate_sample_delay_model(design_file, capsys):
    rc = main(["simulate", design_file, "--protocol", "p1", "--delays", "pattern",
               "--steps", "20", "--model", "sample-delay"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 21


def test_lmi_sizes(design_file, capsys):
    assert main(["lmi", design_file, "sizes", "--variant", "ii"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variable_count"] == 900
    assert doc["free_parameter_count"] == 270
    assert main(["lmi", design_file, "sizes", "--variant", "i",
                 "--tau-net-max", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variable_count"] == 8046


def test_lmi_variant_aliases(design_file, capsys):
    main(["lmi", design_file, "sizes", "--variant", "ii"])
    short = capsys.readouterr().out
    main(["lmi", design_file, "sizes", "--variant", "compact"])
    assert capsys.readouterr().out == short


def test_lmi_export_and_verify(design_file, tmp_path, capsys):
    prob = tmp_path / "problem.json"
    assert main(["lmi", design_file, "export", "--variant", "ii",
                 "-o", str(prob)]) == 0
    assert prob.exists()
    doc = json.loads(prob.read_text())
    assert doc["kind"] == "delay-robust-lmi"

    cands = tmp_path / "cands.json"
    eye = np.eye(9).tolist()
    cands.write_text(json.dumps({k: eye for k in
                                 ("P", "Q1", "Q2", "R1", "R2", "S")}))
    capsys.readouterr()
    rc = main(["lmi", design_file, "verify", str(cands), "--variant", "ii"])
    assert rc == 1  # identity matrices do not satisfy the inequality
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is False


def test_lmi_verify_needs_candidates(design_file):
    assert main(["lmi", design_file, "verify", "--variant", "ii"]) == 2


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "no_such_design.json", "--protocol", "p1"]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_numeric_failure_exit_code(tmp_path, capsys):
    bad = make_design(demo_plant(), RationalTF.constant(1000.0, 1.0),
                      demo_prefilter(), d_hat=5, tau_n_min=0, tau_n_max=2)
    p = tmp_path / "bad.json"
    p.write_text(bad.to_json() + "\n")
    rc = main(["check", str(p), "--protocol", "p1"])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err
