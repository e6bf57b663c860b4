import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gdps import bundle as gdps_bundle
from gdps import grouping as gdps_grouping
from gdps import pipeline as gdps_pipeline
from gdps import subspace as gdps_subspace
from gdps.bundle import (GradientBundle, GradientMatrix, bundle_fingerprint, write_bundle,
                         write_matrix_file)
from gdps.bundle import read_json as bundle_read_json
from gdps.cli import main
from gdps.conflict import conflict_report
from gdps.errors import BundleFormatError, ValidationError
from gdps.report import hash_excluding_timestamp
from gdps.synth import planted_bundle

from conftest import tiny_bundle, two_layer_bundle

CANONICAL_THETA = float(np.degrees(np.arccos(0.925)))


def cli_env(threads="1"):
    """The environment of a `gdps` subprocess: this source tree, `threads` BLAS threads."""
    return {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads, "PYTHONPATH": str(Path(gdps_bundle.__file__).parents[1])}


def make_disk_bundle(path, theta=80.0, groups=((0,), (1, 2, 3)), m=24, d=64, seed=17,
                     spread=5.0):
    b = planted_bundle(4, [list(g) for g in groups], theta, d=d, m=m, seed=seed,
                       spread_deg=spread, layer="L0")
    write_bundle(b, path)
    return b


def read_json(path):
    return json.loads(Path(path).read_text())


def test_inspect(tmp_path, capsys):
    make_disk_bundle(tmp_path / "b")
    rc = main(["inspect", "--bundle", str(tmp_path / "b")])
    assert rc == 0
    out = capsys.readouterr().out
    info = json.loads(out)
    assert info["tasks"] == ["t0", "t1", "t2", "t3"]
    assert info["layers"][0]["id"] == "L0"


def test_inspect_missing_bundle(tmp_path, capsys):
    rc = main(["inspect", "--bundle", str(tmp_path / "nope")])
    assert rc == 1
    assert "manifest" in capsys.readouterr().err


def _edit_first_record(bundle_dir, edit):
    manifest_path = bundle_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest["records"][0])
    manifest_path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("key", ["task", "layer", "rows", "cols", "path"])
def test_inspect_record_missing_field_exit_1(tmp_path, capsys, key):
    make_disk_bundle(tmp_path / "b")
    _edit_first_record(tmp_path / "b", lambda rec: rec.pop(key))
    rc = main(["inspect", "--bundle", str(tmp_path / "b")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "manifest.json" in err and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["id", "cols"])
def test_inspect_layer_missing_field_exit_1(tmp_path, capsys, key):
    make_disk_bundle(tmp_path / "b")
    manifest_path = tmp_path / "b" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["layers"][0][key]
    manifest_path.write_text(json.dumps(manifest))
    rc = main(["inspect", "--bundle", str(tmp_path / "b")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "manifest.json" in err and "Traceback" not in err


@pytest.mark.parametrize("outside", ["../outside.gdm", "{root}/outside.gdm"])
def test_inspect_record_path_outside_bundle_exit_1(tmp_path, capsys, outside):
    make_disk_bundle(tmp_path / "b")
    (tmp_path / "outside.gdm").write_bytes((tmp_path / "b" / "t0__L0.gdm").read_bytes())
    path = outside.format(root=tmp_path)
    _edit_first_record(tmp_path / "b", lambda rec: rec.update(path=path))
    rc = main(["inspect", "--bundle", str(tmp_path / "b")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "manifest.json" in err and "outside the bundle" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, renamed", [("task", "a,b"), ("layer", "L,0")])
def test_inspect_id_with_a_comma_exit_1(tmp_path, capsys, kind, renamed):
    # a hand-written manifest gets the identifier rule that write_bundle keeps
    write_bundle(tiny_bundle({"a": np.ones((2, 3))}), tmp_path / "b")
    manifest_path = tmp_path / "b" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if kind == "task":
        manifest["tasks"] = [renamed]
    else:
        manifest["layers"][0]["id"] = renamed
    manifest["records"][0][kind] = renamed
    manifest_path.write_text(json.dumps(manifest))
    rc = main(["inspect", "--bundle", str(tmp_path / "b")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "manifest.json" in err and f"{kind} identifier {renamed!r} holds ','" in err
    assert "Traceback" not in err


def test_bundle_fingerprint_rejects_bad_record(tmp_path):
    make_disk_bundle(tmp_path / "b")
    _edit_first_record(tmp_path / "b", lambda rec: rec.update(path="../outside.gdm"))
    with pytest.raises(BundleFormatError, match="manifest.json"):
        bundle_fingerprint(tmp_path / "b")


def test_group_command(tmp_path, capsys):
    make_disk_bundle(tmp_path / "b")
    rc = main(["group", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "out")])
    assert rc == 0
    plan = read_json(tmp_path / "out" / "grouping.json")
    assert plan["groups"] == [["t0"], ["t1", "t2", "t3"]]
    assert (tmp_path / "out" / "similarity.csv").is_file()
    assert (tmp_path / "out" / "merges.csv").is_file()


def test_conflict_command_operating_point(tmp_path, capsys):
    b = planted_bundle(4, [[0], [1], [2], [3]], CANONICAL_THETA, d=16, m=4, seed=9,
                       spread_deg=0.0, layer="L0")
    write_bundle(b, tmp_path / "b")
    rc = main(["conflict", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "out")])
    assert rc == 0
    rep = read_json(tmp_path / "out" / "conflict.json")
    assert abs(rep["delta"] - 0.075) < 1e-6
    assert rep["shared_ratio"] == 0.50
    out = capsys.readouterr().out
    assert "0.05 <= delta < 0.15" in out


def test_subspace_command(tmp_path):
    make_disk_bundle(tmp_path / "b")
    rc = main([
        "subspace", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "out"),
        "--top-k", "4",
    ])
    assert rc == 0
    rep = read_json(tmp_path / "out" / "subspace.json")
    assert rep["k"] == 4
    assert abs(sum(rep["proportions"]) - 1.0) < 1e-9
    csv = (tmp_path / "out" / "spectrum.csv").read_text()
    assert csv.splitlines()[0] == "index,sigma,energy_share"


def test_plan_end_to_end(tmp_path):
    make_disk_bundle(tmp_path / "b")
    rc = main(["plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "out")])
    assert rc == 0
    plan = read_json(tmp_path / "out" / "plan.json")
    assert plan["grouping"]["groups"] == [["t0"], ["t1", "t2", "t3"]]
    assert plan["shared_ratio"] in (0.25, 0.50, 0.75)
    assert plan["d_s"] + 2 * plan["d_p"] == plan["d_ff"]
    assert abs(sum(plan["p_g"]) - 1.0) < 1e-9
    report = read_json(tmp_path / "out" / "report.json")
    assert "timestamp" in report
    md = (tmp_path / "out" / "report.md").read_text()
    assert "branch fired" in md and "shared_ratio" in md


def test_plan_operating_point_ratio(tmp_path):
    b = planted_bundle(4, [[0], [1], [2], [3]], CANONICAL_THETA, d=16, m=4, seed=9,
                       spread_deg=0.0, layer="L0")
    write_bundle(b, tmp_path / "b")
    rc = main([
        "plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "out"),
        "--k-groups", "2",
    ])
    assert rc == 0
    assert read_json(tmp_path / "out" / "plan.json")["shared_ratio"] == 0.50


def test_plan_single_task_exit_1(tmp_path, capsys):
    b = planted_bundle(1, [[0]], 0.0, d=8, m=4, seed=1, spread_deg=0.0, layer="L0")
    write_bundle(b, tmp_path / "b")
    rc = main(["plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "2 tasks" in capsys.readouterr().err


@pytest.mark.parametrize("slow", ["spectrum", "grouping"])
def test_plan_deterministic_in_either_finishing_order(tmp_path, monkeypatch, slow):
    # the spectrum half on its thread finishes after Methods A, B and the CCA
    # half, or before the grouping stage does: the artifacts are those of the
    # inline path either way
    make_disk_bundle(tmp_path / "b")

    def artifacts(sub):
        assert main(["plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / sub)]) == 0
        return ((tmp_path / sub / "plan.json").read_bytes(),
                hash_excluding_timestamp((tmp_path / sub / "report.json").read_text()))

    monkeypatch.setattr(gdps_pipeline, "SIDE_MIN_COST", 1 << 62)
    inline = artifacts("inline")

    finished = []

    def delayed(module, name, event, delay):
        real = getattr(module, name)

        def call(*args, **kwargs):
            time.sleep(delay)
            value = real(*args, **kwargs)
            finished.append(event)
            return value

        monkeypatch.setattr(module, name, call)

    delayed(gdps_subspace, "joint_spectrum", "spectrum", 0.3 if slow == "spectrum" else 0.0)
    delayed(gdps_grouping, "similarity_matrix", "grouping", 0.3 if slow == "grouping" else 0.0)
    delayed(gdps_subspace, "pairwise_cca", "cca", 0.0)
    monkeypatch.setattr(gdps_pipeline, "SIDE_MIN_COST", 0)
    assert artifacts("threaded") == inline
    assert finished == (["grouping", "cca", "spectrum"] if slow == "spectrum"
                        else ["spectrum", "grouping", "cca"])


def test_plan_agrees_across_blas_thread_counts(tmp_path):
    # byte-identical re-runs assume one BLAS thread count; another count may
    # sum in another order, which moves sigma, the energies and p_g by a few
    # ulp and no discrete result.  16 x 64 x 4096 is the plan-wide shape,
    # whose 32 MB stack's row Gram and its eigh run on the side thread.
    rng = np.random.default_rng(31)
    write_bundle(GradientBundle.from_matrices(
        GradientMatrix(f"t{i}", "L0", rng.standard_normal((64, 4096))) for i in range(16)
    ), tmp_path / "b")
    reports = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-m", "gdps.cli", "plan", "--bundle",
                               str(tmp_path / "b"), "--out", str(tmp_path / threads)],
                              env=cli_env(threads), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append(read_json(tmp_path / threads / "report.json"))
    one, two = reports
    assert one["grouping"] == two["grouping"]
    for key in ("shared_ratio", "d_s", "d_p", "r"):
        assert one["plan"][key] == two["plan"][key], key
    np.testing.assert_allclose(two["plan"]["p_g"], one["plan"]["p_g"], rtol=1e-12, atol=0)
    for key in ("energies", "proportions"):
        np.testing.assert_allclose(two["subspace"][key], one["subspace"][key],
                                   rtol=1e-12, atol=0, err_msg=key)
    sigma = one["subspace"]["sigma"]
    np.testing.assert_allclose(two["subspace"]["sigma"], sigma, rtol=0, atol=1e-12 * sigma[0])


def write_desk_weights(tmp_path, rng, d_model=8, d_ff=12):
    w1 = rng.standard_normal((d_ff, d_model))
    w2 = rng.standard_normal((d_model, d_ff))
    write_matrix_file(tmp_path / "w1.gdm", w1)
    write_matrix_file(tmp_path / "w2.gdm", w2)
    return w1, w2


def write_plan_file(tmp_path, d_model=8, d_ff=12, noise=1e-4, r=None):
    from gdps.decompose import make_plan
    from gdps.grouping import GroupingPlan

    plan = make_plan(
        GroupingPlan((("t0",), ("t1", "t2", "t3")), "consensus", 2),
        0.5, d_model, d_ff, p_g=(0.4, 0.6), noise_scale=noise, seed=7, r=r,
    )
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    return plan, path


def test_decompose_command(tmp_path, capsys, rng):
    write_desk_weights(tmp_path, rng)
    _, plan_path = write_plan_file(tmp_path)
    rc = main([
        "decompose", "--w1", str(tmp_path / "w1.gdm"), "--w2", str(tmp_path / "w2.gdm"),
        "--plan", str(plan_path), "--out", str(tmp_path / "ffn"),
    ])
    assert rc == 0
    names = sorted(p.name for p in (tmp_path / "ffn").iterdir())
    assert names == [
        "ffn.json", "group0_down.gdm", "group0_up.gdm",
        "group1_down.gdm", "group1_up.gdm", "shared_down.gdm", "shared_up.gdm",
    ]
    out = capsys.readouterr().out
    assert "residual frobenius norm" in out


def test_decompose_shape_mismatch_exit_1(tmp_path, capsys, rng):
    write_desk_weights(tmp_path, rng, d_model=10, d_ff=12)
    _, plan_path = write_plan_file(tmp_path)  # expects d_model=8
    rc = main([
        "decompose", "--w1", str(tmp_path / "w1.gdm"), "--w2", str(tmp_path / "w2.gdm"),
        "--plan", str(plan_path), "--out", str(tmp_path / "ffn"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "(12, 10)" in err and "(12, 8)" in err


def test_decompose_unreadable_plan_exit_1(tmp_path, capsys, rng):
    write_desk_weights(tmp_path, rng)
    bad = tmp_path / "plan.json"
    bad.write_text("{not json")
    rc = main([
        "decompose", "--w1", str(tmp_path / "w1.gdm"), "--w2", str(tmp_path / "w2.gdm"),
        "--plan", str(bad), "--out", str(tmp_path / "ffn"),
    ])
    assert rc == 1


def test_decompose_full_rank_zero_noise_residual(tmp_path, capsys, rng):
    # d_s >= d_model so r can capture the full rank
    write_desk_weights(tmp_path, rng, d_model=6, d_ff=24)
    _, plan_path = write_plan_file(tmp_path, d_model=6, d_ff=24, noise=0.0, r=6)
    rc = main([
        "decompose", "--w1", str(tmp_path / "w1.gdm"), "--w2", str(tmp_path / "w2.gdm"),
        "--plan", str(plan_path), "--out", str(tmp_path / "ffn"), "--noise", "0",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    norm = float(out.split("residual frobenius norm = ")[1].split()[0])
    assert norm < 1e-8


def test_decompose_rank_deficient_residual_converges(tmp_path):
    # A 1024 x 4096 block whose rank-r residual p_g * (W - W_r) made LAPACK's
    # gesdd fail, with one BLAS thread, when it was factored on its own; one
    # SVD of W avoids it.  A fresh interpreter pins the BLAS thread count.
    from gdps.decompose import make_plan
    from gdps.grouping import GroupingPlan

    d_model, d_ff = 1024, 4096
    rng = np.random.default_rng(np.random.SeedSequence([200, 2, 2]))
    write_matrix_file(tmp_path / "w1.gdm", rng.standard_normal((d_ff, d_model)) / np.sqrt(d_model))
    write_matrix_file(tmp_path / "w2.gdm", rng.standard_normal((d_model, d_ff)) / np.sqrt(d_ff))
    plan = make_plan(GroupingPlan((("t0", "t1"), ("t2", "t3")), "consensus", 2),
                     0.25, d_model, d_ff, p_g=(0.5, 0.5))
    (tmp_path / "plan.json").write_text(json.dumps(plan.to_dict()))
    proc = subprocess.run([
        sys.executable, "-m", "gdps.cli",
        "decompose", "--w1", str(tmp_path / "w1.gdm"), "--w2", str(tmp_path / "w2.gdm"),
        "--plan", str(tmp_path / "plan.json"), "--out", str(tmp_path / "ffn"),
    ], env=cli_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_decompose_deterministic_rerun(tmp_path, rng):
    write_desk_weights(tmp_path, rng)
    _, plan_path = write_plan_file(tmp_path)
    for sub in ("f1", "f2"):
        rc = main([
            "decompose", "--w1", str(tmp_path / "w1.gdm"), "--w2", str(tmp_path / "w2.gdm"),
            "--plan", str(plan_path), "--out", str(tmp_path / sub),
        ])
        assert rc == 0
    for name in ("shared_up.gdm", "group0_up.gdm", "ffn.json"):
        assert (tmp_path / "f1" / name).read_bytes() == (tmp_path / "f2" / name).read_bytes()


def test_simulate_small_run(tmp_path, capsys):
    rc = main([
        "simulate", "--theta", "80", "--steps", "40", "--seeds", "2343,2344",
        "--out", str(tmp_path / "sim"),
    ])
    assert rc == 0
    summary = read_json(tmp_path / "sim" / "summary.json")
    assert len(summary["runs"]) == 2
    run = summary["runs"][0]
    assert "unified" in run and "specialized" in run
    assert "similarity_delta_mean" in run
    assert (tmp_path / "sim" / "log_unified_2343.csv").is_file()
    assert (tmp_path / "sim" / "log_specialized_2344.csv").is_file()
    md = (tmp_path / "sim" / "summary.md").read_text()
    assert "| seed |" in md


def test_simulate_steps_zero(tmp_path):
    rc = main([
        "simulate", "--theta", "0", "--steps", "0", "--seeds", "1", "--mode", "unified",
        "--out", str(tmp_path / "sim0"),
    ])
    assert rc == 0
    summary = read_json(tmp_path / "sim0" / "summary.json")
    losses = summary["runs"][0]["unified"]["final_losses"]
    assert all(v > 0 for v in losses.values())
    csv = (tmp_path / "sim0" / "log_unified_1.csv").read_text()
    assert len(csv.strip().splitlines()) == 1 + 4  # header + one row per task


def test_simulate_deterministic_rerun(tmp_path):
    for sub in ("s1", "s2"):
        rc = main([
            "simulate", "--theta", "45", "--steps", "25", "--seeds", "7",
            "--out", str(tmp_path / sub),
        ])
        assert rc == 0
    assert (tmp_path / "s1" / "summary.json").read_bytes() == (tmp_path / "s2" / "summary.json").read_bytes()
    assert (tmp_path / "s1" / "log_specialized_7.csv").read_bytes() == (
        tmp_path / "s2" / "log_specialized_7.csv"
    ).read_bytes()


def _replay_argv(echoed: dict) -> list[str]:
    """The argv of an echo: a flag per non-null value, a store_true flag only when true."""
    argv = []
    for key, value in echoed.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv += [flag, ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    return argv


@pytest.mark.parametrize("given", [[], ["--ratio", "0.4", "--normalize-rows", "--layers", "L2,L1",
                                        "--layer", "L1", "--top-k", "3", "--seed", "5"]],
                         ids=["defaults", "flags"])
def test_plan_replays_from_its_echoed_flags(tmp_path, given):
    # README, Determinism: the flags report.json echoes rebuild its artifacts
    mats = []
    for theta, layer in ((80.0, "L0"), (30.0, "L1"), (60.0, "L2")):
        b = planted_bundle(4, [[0], [1, 2, 3]], theta, d=24, m=6, seed=3, spread_deg=5.0,
                           layer=layer)
        mats += list(b.entries.values())
    write_bundle(GradientBundle.from_matrices(mats), tmp_path / "b")
    assert main(["plan", "--bundle", str(tmp_path / "b"), *given, "--out", str(tmp_path / "a")]) == 0
    flags = read_json(tmp_path / "a" / "report.json")["flags"]
    assert main(["plan", *_replay_argv(flags), "--out", str(tmp_path / "r")]) == 0

    def artifacts(sub):
        return ((tmp_path / sub / "plan.json").read_bytes(),
                hash_excluding_timestamp((tmp_path / sub / "report.json").read_text()))

    assert artifacts("r") == artifacts("a")


def test_simulate_replays_from_its_echoed_params(tmp_path):
    # every flag that reaches a plan is echoed, so the replay writes the same files
    given = ["--theta", "80", "--steps", "5", "--seeds", "3,4", "--thresholds", "0.3,0.5",
             "--top-k", "3"]
    assert main(["simulate", *given, "--out", str(tmp_path / "a")]) == 0
    params = read_json(tmp_path / "a" / "summary.json")["params"]
    assert main(["simulate", *_replay_argv(params), "--out", str(tmp_path / "r")]) == 0
    names = sorted(f.name for f in (tmp_path / "a").iterdir())
    assert names == sorted(f.name for f in (tmp_path / "r").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "r" / name).read_bytes(), name


def test_simulate_bad_groups(tmp_path, capsys):
    rc = main([
        "simulate", "--theta", "10", "--groups", "0|9", "--out", str(tmp_path / "x"),
    ])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


def test_report_on_plan_output(tmp_path, capsys):
    make_disk_bundle(tmp_path / "b")
    main(["plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "p")])
    rc = main(["report", "--inputs", str(tmp_path / "p"), "--out", str(tmp_path / "r")])
    assert rc == 0
    md = (tmp_path / "r" / "consolidated.md").read_text()
    assert "delta =" in md and "branch fired" in md and "shared_ratio" in md
    assert (tmp_path / "r" / "similarity_0.csv").is_file()
    assert (tmp_path / "r" / "spectrum_0.csv").is_file()
    assert (tmp_path / "r" / "merges_0.csv").is_file()


def test_report_compares_two_simulations(tmp_path):
    main(["simulate", "--theta", "80", "--steps", "20", "--seeds", "3",
          "--out", str(tmp_path / "sa")])
    main(["simulate", "--theta", "0", "--steps", "20", "--seeds", "3",
          "--out", str(tmp_path / "sb")])
    rc = main([
        "report", "--inputs", f"{tmp_path / 'sa'},{tmp_path / 'sb'}",
        "--out", str(tmp_path / "r"),
    ])
    assert rc == 0
    md = (tmp_path / "r" / "consolidated.md").read_text()
    assert "unified 0" in md and "specialized 1" in md


def test_report_missing_input_exit_1(tmp_path, capsys):
    rc = main(["report", "--inputs", str(tmp_path / "ghost.json"), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "ghost.json" in capsys.readouterr().err


@pytest.mark.parametrize("inputs", ["", ","])
def test_report_empty_inputs_exit_1(tmp_path, capsys, inputs):
    rc = main(["report", "--inputs", inputs, "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("error:") and "--inputs" in err
    assert not (tmp_path / "r").exists()


def test_usage_error_exit_1(capsys):
    assert main(["plan"]) == 1  # missing required flags
    assert main(["conflict", "--bundle", "x", "--out", "y", "--thresholds", "zap"]) == 1


def test_plan_ratio_override(tmp_path):
    make_disk_bundle(tmp_path / "b")
    rc = main([
        "plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "out"),
        "--ratio", "0.25",
    ])
    assert rc == 0
    plan = read_json(tmp_path / "out" / "plan.json")
    assert plan["shared_ratio"] == 0.25
    report = read_json(tmp_path / "out" / "report.json")
    assert any("forced by flag" in w for w in report["warnings"])


def test_plan_cca_noise_coupling(tmp_path):
    make_disk_bundle(tmp_path / "b")
    rc = main([
        "plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "c"),
        "--cca-noise-coupling", "--noise", "0.01",
    ])
    assert rc == 0
    plan = read_json(tmp_path / "c" / "plan.json")
    assert 0.0 <= plan["noise_scale"] <= 0.01
    report = read_json(tmp_path / "c" / "report.json")
    assert any("off-diagonal rho" in w for w in report["warnings"])


def test_report_csv_format(tmp_path):
    make_disk_bundle(tmp_path / "b")
    main(["plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "p")])
    main(["simulate", "--theta", "30", "--steps", "10", "--seeds", "2",
          "--out", str(tmp_path / "s")])
    rc = main([
        "report", "--inputs", f"{tmp_path / 'p'},{tmp_path / 's'}",
        "--format", "csv", "--out", str(tmp_path / "r"),
    ])
    assert rc == 0
    csv = (tmp_path / "r" / "consolidated.csv").read_text()
    lines = csv.strip().splitlines()
    assert lines[0].startswith("kind,source,delta")
    assert any(l.startswith("plan,") for l in lines)
    assert any(l.startswith("simulate,") for l in lines)


def test_simulate_divergence_reported_per_seed(tmp_path, capsys):
    # an absurd lr diverges; remaining seeds still run and exit code stays 0
    rc = main([
        "simulate", "--theta", "80", "--steps", "100", "--lr", "5.0",
        "--seeds", "1,2", "--mode", "unified", "--out", str(tmp_path / "sim"),
    ])
    assert rc == 0
    summary = read_json(tmp_path / "sim" / "summary.json")
    assert len(summary["runs"]) == 2
    assert all("diverged" in run["unified"] for run in summary["runs"])
    assert "diverged" in capsys.readouterr().err


def _csv_rows(text):
    """The fields of each row of a CSV file, header dropped."""
    return [line.split(",") for line in text.strip().splitlines()[1:]]


def test_csv_fields_are_plain_floats(tmp_path):
    from gdps.synth import make_model, make_suite, train

    suite = make_suite(2, [[0], [1]], 40.0, seed=3)
    log = train(make_model(suite, seed=3), suite, "unified", steps=4, lr=0.05, seed=3)
    rows = _csv_rows(log.to_csv())
    got = np.array([float(loss) for _, _, loss in rows]).reshape(log.losses.shape)
    assert np.array_equal(got, log.losses)
    assert [(int(step), task) for step, task, _ in rows] == [
        (s, t) for s in range(4) for t in log.tasks
    ]

    make_disk_bundle(tmp_path / "b")
    assert main(["subspace", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "s")]) == 0
    sigma = np.asarray(read_json(tmp_path / "s" / "subspace.json")["sigma"])
    rows = _csv_rows((tmp_path / "s" / "spectrum.csv").read_text())
    assert np.array_equal([float(s) for _, s, _ in rows], sigma)
    assert np.array_equal([float(e) for _, _, e in rows], sigma**2 / (sigma**2).sum())

    assert main(["plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "p")]) == 0
    assert main(["report", "--inputs", str(tmp_path / "p"), "--out", str(tmp_path / "r")]) == 0
    sigma = np.asarray(read_json(tmp_path / "p" / "report.json")["subspace"]["sigma"])
    rows = _csv_rows((tmp_path / "r" / "spectrum_0.csv").read_text())
    assert np.array_equal([float(s) for _, s, _ in rows], sigma)
    assert np.array_equal([float(e) for _, _, e in rows], sigma**2 / (sigma**2).sum())


@pytest.mark.parametrize("command,flag", [("group", "--seed"), ("plan", "--seed"),
                                          ("simulate", "--seeds")])
def test_negative_seed_exit_1(tmp_path, capsys, command, flag):
    if command == "simulate":
        argv = ["simulate", "--theta", "80", "--steps", "2", "--seeds", "3,-1"]
    else:
        make_disk_bundle(tmp_path / "b")
        argv = [command, "--bundle", str(tmp_path / "b"), "--seed", "-1"]
    rc = main(argv + ["--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error:") and flag in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, flag", [
    (["conflict", "--seed", "1"], "--seed"),
    (["subspace", "--seed", "1"], "--seed"),
    (["simulate", "--theta", "80", "--steps", "2", "--lambda", "0.01"], "--lambda"),
])
def test_flag_no_result_reads_is_refused(tmp_path, capsys, argv, flag):
    if argv[0] != "simulate":
        make_disk_bundle(tmp_path / "b")
        argv = argv + ["--bundle", str(tmp_path / "b")]
    rc = main(argv + ["--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("error:") and flag in err
    assert not (tmp_path / "o").exists()


def test_duplicate_seeds_exit_1(tmp_path, capsys):
    rc = main(["simulate", "--theta", "80", "--seeds", "3,4,3", "--steps", "5",
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: --seeds lists seed 3 more than once\n"
    assert not (tmp_path / "o").exists()


def test_conflict_one_row_task_exit_1(tmp_path, capsys):
    write_bundle(tiny_bundle({"a": [[1.0, 0.0], [0.0, 1.0]], "b": [[1.0, 1.0]]}), tmp_path / "b")
    rc = main(["conflict", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == ("error: [stage: conflict] task b has 1 sample row at layer L0; "
                            "Method B needs >= 2 samples per task\n")
    assert captured.out == ""


@pytest.mark.parametrize("floor", [0, gdps_pipeline.SIDE_MIN_COST])
def test_stage_commands_agree_with_plan(tmp_path, monkeypatch, floor):
    # group, conflict and subspace read the same layer stacks as plan; with
    # the same flags each writes what plan reports.  --layer is not the
    # first layer, and --layers lists it with another, out of bundle order.
    mats = []
    for theta, layer in ((80.0, "L0"), (30.0, "L1"), (60.0, "L2")):
        b = planted_bundle(4, [[0], [1, 2, 3]], theta, d=24, m=6, seed=3, spread_deg=5.0,
                           layer=layer)
        mats += list(b.entries.values())
    write_bundle(GradientBundle.from_matrices(mats), tmp_path / "b")
    monkeypatch.setattr(gdps_pipeline, "SIDE_MIN_COST", floor)
    given = ["--bundle", str(tmp_path / "b")]
    a = ["--layer", "L1", "--k-groups", "2", "--seed", "11"]
    b = ["--layers", "L2,L1", "--thresholds", "0.1,0.3"]
    c = ["--top-k", "3", "--lambda", "0.01", "--normalize-rows"]
    for argv in (["group", *a], ["conflict", *b], ["subspace", "--layer", "L1", *c],
                 ["plan", *a, *b, *c]):
        assert main([*argv, *given, "--out", str(tmp_path / argv[0])]) == 0
    rep = read_json(tmp_path / "plan" / "report.json")

    def matrix(name):
        rows = _csv_rows((tmp_path / "group" / name).read_text())
        return [[float(x) for x in row[1:]] for row in rows]

    assert read_json(tmp_path / "group" / "grouping.json") == rep["grouping"]
    assert matrix("similarity.csv") == rep["similarity"]
    assert matrix("distance.csv") == rep["distance"]
    merges = _csv_rows((tmp_path / "group" / "merges.csv").read_text())
    assert [[float(d), x, y] for _, d, x, y in merges] == rep["merges"]
    assert read_json(tmp_path / "conflict" / "conflict.json") == rep["conflict"]
    assert read_json(tmp_path / "subspace" / "subspace.json") == rep["subspace"]
    assert (tmp_path / "subspace" / "spectrum.csv").read_text() == gdps_subspace.spectrum_csv(
        np.asarray(rep["subspace"]["sigma"]))


@pytest.mark.parametrize("command", ["conflict", "plan"])
def test_repeated_candidate_layer_exit_1(tmp_path, capsys, command):
    write_bundle(two_layer_bundle(), tmp_path / "b")
    rc = main([command, "--bundle", str(tmp_path / "b"), "--layers", "L0,L1,L1",
               "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "candidate layers list L1 more than once" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()
    # the library entry applies the same rule
    with pytest.raises(ValidationError, match="candidate layers list L1 more than once"):
        conflict_report(two_layer_bundle(), ["L0", "L1", "L1"])


@pytest.mark.parametrize("command", ["conflict", "plan"])
def test_empty_candidate_layer_is_named_unknown(tmp_path, capsys, command):
    write_bundle(two_layer_bundle(), tmp_path / "b")
    rc = main([command, "--bundle", str(tmp_path / "b"), "--layers", ",",
               "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "unknown layer ''; bundle has ['L0', 'L1']" in captured.err
    assert "more than once" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()
    # the library entry applies the same rule; only a list with no id is empty
    with pytest.raises(ValidationError) as info:
        conflict_report(two_layer_bundle(), ["", ""])
    assert str(info.value) == "unknown layer ''; bundle has ['L0', 'L1']"
    with pytest.raises(ValidationError) as info:
        conflict_report(two_layer_bundle(), [])
    assert str(info.value) == "candidate layer list is empty; Method B needs at least one layer"


@pytest.mark.parametrize("command", ["conflict", "plan"])
def test_an_empty_layers_value_is_one_empty_id_not_every_layer(tmp_path, capsys, command):
    # only a --layers left out means every layer
    write_bundle(two_layer_bundle(), tmp_path / "b")
    rc = main([command, "--bundle", str(tmp_path / "b"), "--layers", "",
               "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: unknown layer ''; bundle has ['L0', 'L1']\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flag", [
    ("plan", "--layer"), ("plan", "--layers"), ("group", "--layer"),
    ("subspace", "--layer"), ("conflict", "--layers"),
])
def test_unknown_layer_has_one_message(tmp_path, capsys, command, flag):
    write_bundle(two_layer_bundle(), tmp_path / "b")
    rc = main([command, "--bundle", str(tmp_path / "b"), flag, "X", "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "unknown layer 'X'; bundle has ['L0', 'L1']" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--layer", "X", "unknown layer 'X'; bundle has ['L0', 'L1']"),
    ("--layers", "X", "unknown layer 'X'; bundle has ['L0', 'L1']"),
    ("--layers", "L0,L1,L1", "candidate layers list L1 more than once"),
])
def test_plan_rejects_a_layer_before_any_stage(tmp_path, capsys, monkeypatch, flag, value, message):
    write_bundle(two_layer_bundle(), tmp_path / "b")
    calls = []
    monkeypatch.setattr(gdps_grouping, "similarity_matrix", lambda *args: calls.append(args))
    rc = main(["plan", "--bundle", str(tmp_path / "b"), flag, value, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []
    if flag == "--layers":  # gdps conflict checks its candidates the same way
        rc = main(["conflict", "--bundle", str(tmp_path / "b"), flag, value,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"


DESCRIPTOR_LIMITED_PLAN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
from gdps import bundle as gb
if sys.argv[1] == "always-map":
    gb._mappings_fit = lambda count: True
from gdps.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("mode, returncode", [("budget", 0), ("always-map", 1)])
def test_plan_under_a_descriptor_limit(tmp_path, mode, returncode):
    # 4 tasks x 20 layers: 80 mappings would not fit in a soft limit of 64 descriptors
    mats = []
    for i in range(20):
        b = planted_bundle(4, [[0], [1, 2, 3]], 75.0, d=8, m=4, seed=i, layer=f"L{i}")
        mats += list(b.entries.values())
    write_bundle(GradientBundle.from_matrices(mats), tmp_path / "b")
    assert main(["plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "free")]) == 0
    proc = subprocess.run([sys.executable, "-c", DESCRIPTOR_LIMITED_PLAN, mode, "plan", "--bundle",
                           str(tmp_path / "b"), "--out", str(tmp_path / "limited")],
                          env=cli_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == returncode, proc.stderr
    if returncode:
        assert "Too many open files" in proc.stderr
        return
    free, limited = tmp_path / "free", tmp_path / "limited"
    assert (limited / "plan.json").read_bytes() == (free / "plan.json").read_bytes()
    assert (read_json(limited / "report.json")["bundle_fingerprint"]
            == read_json(free / "report.json")["bundle_fingerprint"])


def test_decompose_non_finite_weight_exit_1_names_the_file(tmp_path, capsys, rng):
    w1, _ = write_desk_weights(tmp_path, rng)
    w1[2, 5] = np.inf
    write_matrix_file(tmp_path / "w1.gdm", w1)
    _, plan_path = write_plan_file(tmp_path)
    rc = main([
        "decompose", "--w1", str(tmp_path / "w1.gdm"), "--w2", str(tmp_path / "w2.gdm"),
        "--plan", str(plan_path), "--out", str(tmp_path / "ffn"),
    ])
    assert rc == 1
    assert f"{tmp_path / 'w1.gdm'}: non-finite entry at row 2, col 5" in capsys.readouterr().err
    assert not (tmp_path / "ffn").exists()


@pytest.mark.parametrize("where", ["flag", "plan"])
def test_decompose_noise_beyond_float32_exit_2_writes_nothing(tmp_path, capsys, rng, where):
    # 1e39 is a finite float64 that float32 storage would make infinite
    write_desk_weights(tmp_path, rng)
    _, plan_path = write_plan_file(tmp_path, noise=1e39 if where == "plan" else 1e-4)
    rc = main([
        "decompose", "--w1", str(tmp_path / "w1.gdm"), "--w2", str(tmp_path / "w2.gdm"),
        "--plan", str(plan_path), "--out", str(tmp_path / "ffn"),
        *(["--noise", "1e39"] if where == "flag" else []),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"analysis error: refusing to write shared_up\.gdm as float32: "
                        r"non-finite entry at row \d+, col \d+\n", err), err
    assert not (tmp_path / "ffn").exists()


# A reader that copied /dev/zero would never reach its end: the run is capped
# at 1 GiB of address space, so such a reader fails in seconds.
ADDRESS_LIMITED_MAIN = """
import resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(hard, 1 << 30)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
from gdps.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_decompose_device_weight_exit_1_names_the_file(tmp_path, rng):
    write_desk_weights(tmp_path, rng)
    _, plan_path = write_plan_file(tmp_path)
    proc = subprocess.run([sys.executable, "-c", ADDRESS_LIMITED_MAIN, "decompose",
                           "--w1", "/dev/zero", "--w2", str(tmp_path / "w2.gdm"),
                           "--plan", str(plan_path), "--out", str(tmp_path / "ffn")],
                          env=cli_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: cannot read matrix file /dev/zero: not a regular file\n"
    assert not (tmp_path / "ffn").exists()


def test_report_malformed_plan_report_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"conflict": {"delta": 0.1}}))
    rc = main(["report", "--inputs", str(bad), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    assert str(bad) in err and "conflict.thresholds" in err
    assert "Traceback" not in err


def test_report_plan_report_wrong_types_exit_1(tmp_path, capsys):
    make_disk_bundle(tmp_path / "b")
    main(["plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "p")])
    report = read_json(tmp_path / "p" / "report.json")
    report["conflict"]["delta"] = "high"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    rc = main(["report", "--inputs", str(bad), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    assert str(bad) in err and "Traceback" not in err


def test_report_plan_report_non_finite_exit_1(tmp_path, capsys):
    # json.dumps writes NaN unasked; a NaN read back would reach consolidated.json
    make_disk_bundle(tmp_path / "b")
    main(["plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "p")])
    report = read_json(tmp_path / "p" / "report.json")
    report["conflict"]["delta"] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    rc = main(["report", "--inputs", str(bad), "--format", "json", "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("error:")
    assert str(bad) in err and "NaN" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("edit,field", [
    (lambda plan: {**plan, "d_model": "abc"}, "d_model"),
    (lambda plan: [plan], "JSON object"),
    (lambda plan: {k: v for k, v in plan.items() if k != "p_g"}, "p_g"),
    (lambda plan: {**plan, "seed": -1}, "'seed'"),
    (lambda plan: {**plan, "seed": "7"}, "'seed'"),
    (lambda plan: {**plan, "d_s": plan["d_s"] + 0.7}, "'d_s'"),
    (lambda plan: {**plan, "d_p": float(plan["d_p"])}, "'d_p'"),
    (lambda plan: {**plan, "r": True}, "'r'"),
    (lambda plan: "[" * 100_000, "unreadable plan"),
    (lambda plan: json.dumps(plan).replace('"p_g": [0.4, 0.6]', '"p_g": [NaN, 0.6]'), "NaN"),
    (lambda plan: {**plan, "grouping": {**plan["grouping"], "groups": ["ab", "c"]}}, "'groups'"),
    (lambda plan: {**plan, "grouping": {**plan["grouping"], "k": 2.9}}, "'k'"),
    (lambda plan: {**plan, "grouping": {**plan["grouping"], "k": "2"}}, "'k'"),
    (lambda plan: {**plan, "grouping": {**plan["grouping"], "method": 3}}, "'method'"),
    (lambda plan: {**plan, "p_g": ["0.4", "0.6"]}, "'p_g'"),
    (lambda plan: json.dumps(plan).replace('"shared_ratio": 0.5', '"shared_ratio": NaN'), "NaN"),
    (lambda plan: {**plan, "shared_ratio": 5.0}, "shared_ratio"),
])
def test_decompose_malformed_plan_exit_1(tmp_path, capsys, rng, edit, field):
    write_desk_weights(tmp_path, rng)
    plan, plan_path = write_plan_file(tmp_path)
    edited = edit(plan.to_dict())
    plan_path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    rc = main([
        "decompose", "--w1", str(tmp_path / "w1.gdm"), "--w2", str(tmp_path / "w2.gdm"),
        "--plan", str(plan_path), "--out", str(tmp_path / "ffn"),
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert str(plan_path) in err and field in err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize("summary,field", [
    ({"runs": [1], "params": {}}, "runs[0]"),
    ({"runs": [{"seed": 1}]}, "params"),
    ({"runs": {"seed": 1}, "params": {}}, "runs"),
    ({"runs": [{"unified": {}}], "params": {}}, "runs[0].seed"),
    ({"runs": [{"seed": "one"}], "params": {}}, "runs[0].seed"),
    ({"runs": [{"seed": 1, "unified": 0.5}], "params": {}}, "runs[0].unified"),
    ({"runs": [{"seed": 1, "unified": {"final_mean_loss": "abc"}}], "params": {}},
     "runs[0].unified.final_mean_loss"),
    pytest.param(b"{\"params\": {}, \"runs\": [{\"seed\": 1, "
                 b"\"unified\": {\"final_mean_loss\": NaN}}]}", "NaN", id="nan-loss"),
    pytest.param(b"{\"runs\": \xff}", "unreadable JSON", id="not-utf8"),
    pytest.param(b"[" * 200_000, "unreadable JSON", id="too-deep"),
])
def test_report_malformed_simulate_summary_exit_1(tmp_path, capsys, summary, field):
    bad = tmp_path / "summary.json"
    bad.write_bytes(summary if isinstance(summary, bytes) else json.dumps(summary).encode())
    rc = main(["report", "--inputs", str(bad), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(bad) in err and field in err


def test_report_simulate_summary_missing_losses(tmp_path, capsys):
    # a diverged or skipped mode reads as n/a, not as an error
    ok = tmp_path / "summary.json"
    ok.write_text(json.dumps({
        "params": {},
        "runs": [{"seed": 2, "unified": {"final_mean_loss": 0.25}, "specialized": {"diverged": "x"}}],
    }))
    assert main(["report", "--inputs", str(ok), "--out", str(tmp_path / "r")]) == 0
    assert "| 2 | 0.25 | n/a |" in (tmp_path / "r" / "consolidated.md").read_text()
    assert main(["report", "--inputs", str(ok), "--out", str(tmp_path / "c"),
                 "--format", "csv"]) == 0
    assert "simulate,{},,,,2,0.25,\n".format(ok) in (tmp_path / "c" / "consolidated.csv").read_text()


def test_every_written_json_file_reads_back(tmp_path, rng, capsys):
    # every JSON file a command writes is strict JSON that the one reader accepts
    make_disk_bundle(tmp_path / "b")
    bundle = ["--bundle", str(tmp_path / "b")]
    out = tmp_path / "out"
    write_desk_weights(tmp_path, rng, d_model=16, d_ff=32)
    for argv in (["inspect", *bundle, "--out", str(out / "inspect")],
                 *([cmd, *bundle, "--out", str(out / cmd)]
                   for cmd in ("group", "conflict", "subspace", "plan")),
                 ["decompose", "--w1", str(tmp_path / "w1.gdm"), "--w2", str(tmp_path / "w2.gdm"),
                  "--plan", str(out / "plan" / "plan.json"), "--out", str(out / "ffn")],
                 ["simulate", "--theta", "80", "--steps", "2", "--seeds", "3",
                  "--out", str(out / "sim")],
                 ["report", "--inputs", f"{out / 'plan'},{out / 'sim'}", "--format", "json",
                  "--out", str(out / "report")]):
        assert main(argv) == 0, capsys.readouterr().err
    written = {p.name for p in out.rglob("*.json")}
    assert written >= {"inspect.json", "plan.json", "report.json", "summary.json", "ffn.json",
                       "consolidated.json"}
    for path in out.rglob("*.json"):
        assert bundle_read_json(path, "output") == json.loads(path.read_text())


@pytest.mark.parametrize("command", ["inspect", "plan"])
def test_each_gdm_file_read_once(tmp_path, monkeypatch, command):
    # every payload, mapped or copied, is opened by the reader
    make_disk_bundle(tmp_path / "b")
    reads = []

    def counting_open(file, *args, **kwargs):
        if Path(file).suffix == ".gdm":
            reads.append(Path(file).name)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(gdps_bundle, "open", counting_open, raising=False)
    argv = [command, "--bundle", str(tmp_path / "b")]
    if command == "plan":
        argv += ["--out", str(tmp_path / "p")]
    assert main(argv) == 0
    assert sorted(reads) == sorted(p.name for p in (tmp_path / "b").glob("*.gdm"))


@pytest.mark.parametrize("argv", [
    ["plan", "--lambda", "nan"],
    ["plan", "--lambda", "inf"],
    ["subspace", "--lambda", "nan"],
    ["subspace", "--lambda", "-1"],
    ["plan", "--ratio", "nan"],
    ["plan", "--ratio", "0"],
    ["plan", "--ratio", "1.5"],
    ["plan", "--ratio", "-0.5"],
    ["plan", "--noise", "nan"],
    ["plan", "--noise", "inf"],
    ["plan", "--noise", "-1"],
    ["plan", "--private-rank", "-2"],
    ["plan", "--private-rank", "1.5"],
    ["plan", "--thresholds", "0.05,inf"],
    ["plan", "--thresholds", "-inf,0.15"],
    ["simulate", "--groups", "a|b"],
    ["simulate", "--groups", "0|1,x"],
    ["simulate", "--samples", "0"],
    ["simulate", "--batch-size", "-3"],
    ["simulate", "--batch-size", "0"],
    ["simulate", "--private-rank", "-1"],
    ["simulate", "--lr", "nan"],
    ["simulate", "--lr", "inf"],
    ["simulate", "--lr", "-1"],
    ["simulate", "--target-noise", "nan"],
    ["simulate", "--target-noise", "inf"],
    ["simulate", "--target-noise", "-1"],
])
def test_hostile_flag_exit_1(tmp_path, capsys, argv):
    if argv[0] == "simulate":
        argv = argv + ["--theta", "80", "--steps", "2", "--seeds", "3"]
    else:
        make_disk_bundle(tmp_path / "b")
        argv = argv + ["--bundle", str(tmp_path / "b")]
    rc = main(argv + ["--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert not (tmp_path / "o").exists()


def test_stage_prefix_keeps_error_type_and_exit_code(tmp_path, capsys):
    make_disk_bundle(tmp_path / "b")
    # a validation error inside a stage: prefixed, still exit 1
    rc = main(["subspace", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "o"),
               "--top-k", "0"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: [stage: subspace] top-k")
    # an analysis error inside a stage (singular covariance at lambda 0): prefixed, exit 2
    rc = main(["plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "o"),
               "--lambda", "0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("analysis error: [stage: subspace] ")
    # a bundle that fails to load
    rc = main(["group", "--bundle", str(tmp_path / "none"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: [stage: bundle-load] ")


@pytest.mark.parametrize("where", ["file", "file/sub"])
@pytest.mark.parametrize("command", ["inspect", "group", "conflict", "subspace", "plan",
                                     "decompose", "simulate", "report"])
def test_out_naming_a_file_exit_1(tmp_path, capsys, monkeypatch, rng, command, where):
    import gdps.synth as synth

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    # --out is judged before any work: simulate builds no suite, inspect prints nothing
    monkeypatch.setattr(synth, "make_suite", no_work)
    make_disk_bundle(tmp_path / "b")
    write_desk_weights(tmp_path, rng)
    _, plan_path = write_plan_file(tmp_path)
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"params": {}, "runs": []}))
    (tmp_path / "file").write_text("keep")
    out = tmp_path / where
    argv = {
        "decompose": ["--w1", str(tmp_path / "w1.gdm"), "--w2", str(tmp_path / "w2.gdm"),
                      "--plan", str(plan_path)],
        "simulate": ["--theta", "80", "--steps", "2", "--seeds", "3"],
        "report": ["--inputs", str(summary)],
    }.get(command, ["--bundle", str(tmp_path / "b")])
    rc = main([command, *argv, "--out", str(out)])
    captured = capsys.readouterr()
    err = captured.err
    assert rc == 1 and captured.out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot write ")
    assert str(out) in err and "Traceback" not in err
    assert (tmp_path / "file").read_text() == "keep"


def test_non_finite_output_exit_2(tmp_path, capsys, monkeypatch):
    from gdps.conflict import ConflictReport

    make_disk_bundle(tmp_path / "b")
    monkeypatch.setattr(ConflictReport, "to_dict", lambda self: {"delta": float("nan")})
    rc = main(["conflict", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("analysis error: refusing to write JSON")
    assert not (tmp_path / "o" / "conflict.json").exists()
