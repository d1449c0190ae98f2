import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import qwalk.analysis
import qwalk.cli
import qwalk.evolution
from qwalk.analysis import distribution, marginal, variance
from qwalk.cli import (
    DEFAULT_STEP_CAP,
    ConfigError,
    MAX_LATTICE_SITES,
    MAX_SWEEP_POINTS,
    MAX_THREADS,
    MAX_TRIALS,
    _openblas,
    main,
    parse_angle,
    read_distribution_csv,
    write_distribution_csv,
)
from qwalk.coins import hadamard, tensor
from qwalk.evolution import WalkSpec, _Stack, evolve, run_walk


def write_config(path, **overrides):
    cfg = {
        "dimensionality": 2,
        "steps": 10,
        "coin": "hadamard",
        "defect": {"kind": "cross_xy", "phi": "pi:1"},
        "initial": {"position": [0, 0], "coin": "symmetric"},
        "out_dir": str(path.parent / "out"),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_parse_angle():
    assert parse_angle(1.5, "k") == 1.5
    assert parse_angle("pi:0.75", "k") == pytest.approx(0.75 * np.pi)
    for bad in ("0.75", "pi:x", float("nan"), None):
        with pytest.raises(ValueError):
            parse_angle(bad, "k")


def test_run_reproduces_localization(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"

    summary = json.loads((out / "summary.json").read_text())
    assert summary["final"]["recurrence"] == pytest.approx(0.441, abs=0.005)
    assert len(summary["per_step"]) == 10
    assert all(s["norm_residual"] < 1e-12 for s in summary["per_step"])

    dist = read_distribution_csv(str(out / "distribution.csv"))
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert dist.at(0, 0) == pytest.approx(0.441, abs=0.005)


def test_run_emit_per_step_and_factorization(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, defect="none", emit_per_step=True, steps=4)
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    for i in range(1, 5):
        assert (out / f"step_{i:04d}.csv").exists()
    p = read_distribution_csv(str(out / "distribution.csv"))
    px = marginal(p, "x").probs
    py = marginal(p, "y").probs
    assert np.abs(p.probs - np.outer(px, py)).max() < 1e-9


@pytest.mark.parametrize("coin, defect", [({"kind": "fractional_swap", "tau": 0.5}, "point"),
                                          ("hadamard", "cross_xy")],
                         ids=["2d-kernel", "two-1d-walks"])
def test_a_run_takes_each_steps_site_probabilities_once(tmp_path, monkeypatch, coin, defect):
    # The step guard takes a stack's site probabilities once a step, for its
    # norms; the summaries and every CSV read those.  The Hadamard pair's two
    # 1D walks share one stack, so both runs take them steps + 1 times.
    calls = []
    site_probs = qwalk.analysis._site_probs

    def counted(*args, **kwargs):
        calls.append(args[0].shape)  # the failure message lists them
        return site_probs(*args, **kwargs)

    monkeypatch.setattr(qwalk.analysis, "_site_probs", counted)
    monkeypatch.setattr(qwalk.evolution, "_site_probs", counted)
    steps, cfg_path = 20, tmp_path / "cfg.json"
    write_config(cfg_path, steps=steps, coin=coin, defect={"kind": defect, "phi": "pi:1"},
                 emit_per_step=True)
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert len(list(out.glob("step_*.csv"))) == steps
    assert (out / f"step_{steps:04d}.csv").read_bytes() == (out / "distribution.csv").read_bytes()
    assert len(calls) == steps + 1


def test_run_validation_errors(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=-1)
    assert main(["run", "--config", str(cfg_path)]) == 1

    write_config(cfg_path, defect={"kind": "hexagonal"})
    assert main(["run", "--config", str(cfg_path)]) == 1

    write_config(cfg_path, steps=5000)
    assert main(["run", "--config", str(cfg_path)]) == 1

    cfg_path.write_text("{not json")
    assert main(["run", "--config", str(cfg_path)]) == 1

    cfg_path.write_text("[1]")
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "error: config: top level must be a JSON object" in capsys.readouterr().err

    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1


def test_run_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "out" / "distribution.csv").read_bytes()
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "distribution.csv").read_bytes() == first


def test_run_reference_discrepancy(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=6)
    assert main(["run", "--config", str(cfg_path)]) == 0
    ref = tmp_path / "out" / "distribution.csv"
    assert (
        main(["run", "--config", str(cfg_path), "--reference", str(ref)]) == 0
    )
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["final"]["s_t"] == pytest.approx(0.0, abs=1e-12)


def test_run_cli_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=4)
    out2 = tmp_path / "override_out"
    assert (
        main(
            [
                "run", "--config", str(cfg_path),
                "--steps", "2", "--phi", "pi:0.5", "--out", str(out2),
            ]
        )
        == 0
    )
    summary = json.loads((out2 / "summary.json").read_text())
    assert summary["config"]["steps"] == 2
    assert summary["config"]["defect"]["phi"] == pytest.approx(np.pi / 2)


def test_sweep_monotone_localization(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        sweep={"phi": ["pi:0.25", "pi:0.5", "pi:0.75", "pi:1"]},
    )
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    rows = read_rows(tmp_path / "out" / "sweep.csv")
    assert [r["phi"] for r in rows] == ["pi:0.25", "pi:0.5", "pi:0.75", "pi:1"]
    rec = [float(r["recurrence"]) for r in rows]
    assert all(a < b for a, b in zip(rec, rec[1:]))


def test_sweep_line_defect_variances(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, defect={"kind": "line_y", "phi": 0.0}, sweep={"phi": ["pi:1"]})
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    row = read_rows(tmp_path / "out" / "sweep.csv")[0]
    assert float(row["variance_y"]) < 10.0
    homogeneous = run_walk(WalkSpec(2, 10, tensor(hadamard(), hadamard())))
    var_x = variance(distribution(homogeneous), "x")
    assert float(row["variance_x"]) == pytest.approx(var_x, abs=1e-9)


def test_sweep_empty_grid_is_validation_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, sweep={"phi": []})
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    write_config(cfg_path)  # no sweep key at all
    assert main(["sweep", "--config", str(cfg_path)]) == 1


def test_sweep_threads_do_not_change_output(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, sweep={"phi": ["pi:0.25", "pi:0.5", "pi:1"]})
    assert main(["sweep", "--config", str(cfg_path), "--threads", "1"]) == 0
    serial = (tmp_path / "out" / "sweep.csv").read_bytes()
    assert main(["sweep", "--config", str(cfg_path), "--threads", "3"]) == 0
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == serial


def test_isocheck_passes_and_is_deterministic(tmp_path):
    out = tmp_path / "iso"
    args = [
        "isocheck", "--halfwidth", "2", "--trials", "10",
        "--seed", "7", "--out", str(out),
    ]
    assert main(args) == 0
    report = json.loads((out / "isocheck.json").read_text())
    assert report["passed"] is True
    assert report["max_deviation"] < 1e-12
    assert report["translation_deviation"] == 0.0
    assert (
        report["decomposition_claims"]["entangled"]["finding"]
        == "matches -(Z x Z) @ fractional_swap(tau) exactly"
    )
    first = (out / "isocheck.json").read_bytes()
    assert main(args) == 0
    assert (out / "isocheck.json").read_bytes() == first


@pytest.mark.parametrize("call", [2, 4], ids=["second-named-coin", "second-trial"])
def test_a_nan_deviation_fails_the_isocheck(tmp_path, monkeypatch, call):
    # Python's max drops a NaN that does not come first: a NaN second trial
    # once passed with max_trial_deviation 0.0.
    calls = []
    verify = qwalk.cli.verify_isomorphism

    def nan_once(*args):
        calls.append(args)
        return float("nan") if len(calls) == call else verify(*args)

    monkeypatch.setattr(qwalk.cli, "verify_isomorphism", nan_once)
    out = tmp_path / "iso"
    assert main(["isocheck", "--trials", "5", "--out", str(out)]) == 2
    report = json.loads((out / "isocheck.json").read_text())
    assert report["passed"] is False
    assert np.isnan(report["max_deviation"])
    assert np.isnan(report["max_trial_deviation"]) == (call == 4)


def test_isocheck_size_cap(tmp_path, capsys):
    # 31 is the largest L with 4(2L+1)^2 <= MAX_MATRIX_DIM.
    out = tmp_path / "iso"
    assert main(["isocheck", "--halfwidth", "40", "--out", str(out)]) == 1
    assert main(["isocheck", "-L", "32", "--out", str(out)]) == 1
    assert "error: halfwidth: must be an integer in 1..31, got 32" in capsys.readouterr().err
    assert not out.exists()
    assert main(["isocheck", "-L", "31", "--trials", "1", "--out", str(out)]) == 0
    assert json.loads((out / "isocheck.json").read_text())["halfwidth"] == 31


def test_sweep_points_are_capped(tmp_path, capsys, monkeypatch):
    # An uncapped 2-step sweep of 30,000 points took 9.7 s and 188 MB before
    # it wrote a row.
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    phis = [0.1] * (MAX_SWEEP_POINTS // 2 + 1)
    write_config(cfg_path, steps=2, sweep={"phi": phis, "defect": ["cross_xy", "line_y"]})
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert f"error: sweep: {len(phis) * 2} points, cap {MAX_SWEEP_POINTS}" in err
    assert not out.exists()
    monkeypatch.setattr("qwalk.cli.MAX_SWEEP_POINTS", 4)
    write_config(cfg_path, steps=2, sweep={"phi": [0.1, 0.2], "defect": ["cross_xy", "line_y"]})
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert len(read_rows(out / "sweep.csv")) == 4
    for flags in (["--phi", "0.3"], ["--defect", "none"]):  # a flag sets one axis; 2 x 3 > 4
        write_config(cfg_path, steps=2, out_dir=str(tmp_path / "over"),
                     sweep={"phi": [0.1, 0.2, 0.3], "defect": ["cross_xy", "line_y"]})
        assert main(["sweep", "--config", str(cfg_path)] + flags) == 0
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    assert "error: sweep: 6 points, cap 4" in capsys.readouterr().err


def test_isocheck_trials_are_capped(tmp_path, capsys, monkeypatch):
    # An uncapped --trials 1000000000 created the output directory and then
    # ran for days.
    out = tmp_path / "iso"
    assert main(["isocheck", "--trials", str(MAX_TRIALS + 1), "--out", str(out)]) == 1
    assert "error: trials: " in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setattr("qwalk.cli.MAX_TRIALS", 3)
    assert main(["isocheck", "--trials", "4", "--out", str(out)]) == 1
    assert main(["isocheck", "--trials", "3", "--out", str(out)]) == 0
    assert json.loads((out / "isocheck.json").read_text())["trials"] == 3


@pytest.mark.parametrize(
    "flag, key, value",
    [("-L", "halfwidth", 3), ("--trials", "trials", 2), ("--seed", "seed", 9),
     ("--out", "out_dir", "flag_out")],
)
def test_isocheck_flags_beat_the_config(tmp_path, monkeypatch, flag, key, value):
    monkeypatch.chdir(tmp_path)
    cfg = {"halfwidth": 2, "trials": 1, "seed": 4, "out_dir": "cfg_out"}
    (tmp_path / "iso.json").write_text(json.dumps(cfg))
    assert main(["isocheck", "--config", "iso.json", flag, str(value)]) == 0
    cfg[key] = value
    report = json.loads((tmp_path / cfg["out_dir"] / "isocheck.json").read_text())
    assert {k: report[k] for k in ("halfwidth", "trials", "seed")} == {
        k: cfg[k] for k in ("halfwidth", "trials", "seed")
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["iso.json", cfg["out_dir"]])


@pytest.mark.parametrize(
    "overrides, site",
    [
        ({"dimensionality": 1, "defect": "point", "initial": {"position": 0}}, ["0"]),
        ({"halfwidth": 3, "initial": {"position": [1, -2]}}, ["1", "-2"]),
        ({"boundary": "periodic", "initial": {"position": [-1, 1]}}, ["-1", "1"]),
    ],
    ids=["1d", "2d-open", "2d-periodic"],
)
def test_run_of_zero_steps_writes_the_start(tmp_path, overrides, site):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=0, **overrides)
    assert main(["run", "--config", str(cfg_path)]) == 0
    with open(tmp_path / "out" / "distribution.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert [row for row in rows if row[-1] != "0"] == [site + ["1"]]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["per_step"] == []
    assert summary["final"] == dict.fromkeys(["recurrence", "s_t", "variance_x", "variance_y"])


def test_sweep_of_zero_steps_summarizes_the_start(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=0, sweep={"phi": ["pi:0.5"]})
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "sweep.csv").read_text().splitlines() == [
        "defect,phi,recurrence,variance_x,variance_y",
        "cross_xy,pi:0.5,1,0,0",
    ]


@pytest.mark.parametrize(
    "flags, sweep, rows",
    [
        (["--defect", "line_y"], {"phi": ["pi:1"], "defect": ["cross_xy"]},
         [["line_y", "pi:1"]]),
        (["--phi", "pi:0.25"], {"phi": ["pi:1"], "defect": ["cross_xy", "line_y"]},
         [["cross_xy", "pi:0.25"], ["line_y", "pi:0.25"]]),
        (["--defect", "point", "--phi", "0.5"], {"phi": ["pi:1", "pi:0.5"], "defect": ["line_y"]},
         [["point", "0.5"]]),
    ],
    ids=["defect", "phi-without-top-level-defect", "both"],
)
def test_sweep_flags_replace_the_grid_axis(tmp_path, flags, sweep, rows):
    # --defect used to be dropped when the config listed sweep.defect, and
    # --phi exited 1 on a config without a top-level defect.
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path, steps=2, sweep=sweep)
    del cfg["defect"]
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path), *flags]) == 0
    got = read_rows(tmp_path / "out" / "sweep.csv")
    assert [[r["defect"], r["phi"]] for r in got] == rows


def test_distribution_csv_roundtrip(tmp_path):
    final = run_walk(WalkSpec(2, 5, tensor(hadamard(), hadamard())))
    dist = distribution(final)
    path = tmp_path / "d.csv"
    write_distribution_csv(path, dist)
    back = read_distribution_csv(str(path))
    assert back.probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.abs(back.probs - dist.probs).max() < 1e-9


def test_a_reference_is_read_into_typed_arrays(tmp_path):
    # Each row used to be kept as Python lists plus a site tuple in a set:
    # about 540 bytes a row at the peak, against about 75 now.
    dist = distribution(run_walk(WalkSpec(2, 40, tensor(hadamard(), hadamard()))))
    path = tmp_path / "d.csv"
    write_distribution_csv(path, dist)
    tracemalloc.start()
    try:
        back = read_distribution_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * dist.probs.size
    assert back.halfwidth == dist.halfwidth
    assert np.abs(back.probs - dist.probs).max() < 1e-12


def test_a_reference_names_the_first_site_it_lists_again(tmp_path):
    ref = tmp_path / "ref.csv"
    ref.write_text("x,y,p\n0,0,0.25\n1,1,0.25\n2,0,0.25\n01,+1,0.25\n0,0,0\n")
    with pytest.raises(ConfigError, match=r"lists site \(1, 1\) twice"):
        read_distribution_csv(str(ref))


def test_unknown_flag_is_validation_error():
    assert main(["run", "--frobnicate"]) == 1


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_run_rejects_nan_initial_coin(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    nan_coin = [[float("nan"), 0], [0.5, 0], [0.5, 0], [0.5, 0]]
    write_config(cfg_path, initial={"position": [0, 0], "coin": nan_coin})
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert not (tmp_path / "out" / "distribution.csv").exists()


@pytest.mark.parametrize(
    "rows, error",
    [("x,y,p\n0,abc,1\n", "line 2: expected 3 numbers"), ("x,y,p\n0,0\n", "line 2: expected"),
     ("x,y,p\n0,0,nan\n", r"^reference: .*ref\.csv: probability is NaN$"), ("x,y,q\n0,0,1\n", "must have header"),
     ("", "must have header"), ("x,y,p\n", "no data rows"), ("x,y,p\n\n\n", "no data rows")],
    ids=["non-numeric", "short-row", "nan", "bad-header", "empty", "header-only",
         "blank-rows-only"],
)
def test_run_rejects_malformed_reference(tmp_path, rows, error):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2)
    ref = tmp_path / "ref.csv"
    ref.write_text(rows)
    with pytest.raises(ConfigError, match=error):
        read_distribution_csv(str(ref))
    assert main(["run", "--config", str(cfg_path), "--reference", str(ref)]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides",
    [{},
     {"defect": {"kind": "line_y", "phi": "pi:0.5"}},
     {"dimensionality": 1, "defect": {"kind": "point", "phi": "pi:0.7"}, "initial": {"position": 0}}],
    ids=["2d-cross", "2d-line", "1d-point"],
)
def test_a_periodic_run_whose_cone_fits_prints_the_open_run(overrides, tmp_path):
    # The open walk steps its light cone, the periodic one the full lattice;
    # with the cone on the lattice neither wraps, so they print the same
    # distribution.csv bytes and the same recurrences.  The variances and
    # norm_residual are sums taken in each kernel's own order (README
    # "Numerical contracts"), so they agree only to rounding.
    runs = {}
    for boundary in ("open", "periodic"):
        cfg_path = tmp_path / f"{boundary}.json"
        write_config(cfg_path, steps=20, boundary=boundary, out_dir=str(tmp_path / boundary),
                     **overrides)
        assert main(["run", "--config", str(cfg_path)]) == 0
        summary = json.loads((tmp_path / boundary / "summary.json").read_text())
        assert summary["config"].pop("boundary") == boundary
        summary.pop("timing_seconds")
        runs[boundary] = summary, (tmp_path / boundary / "distribution.csv").read_bytes()
    (open_run, open_csv), (periodic, periodic_csv) = runs["open"], runs["periodic"]
    assert open_csv == periodic_csv
    assert open_run["config"] == periodic["config"]
    rows = zip([open_run["final"], *open_run["per_step"]],
               [periodic["final"], *periodic["per_step"]], strict=True)
    for a, b in rows:
        assert a["recurrence"] == b["recurrence"]
        assert a == pytest.approx(b, rel=1e-13, abs=1e-13)


def test_a_reference_skips_blank_rows(tmp_path):
    ref = tmp_path / "ref.csv"
    ref.write_text("x,p\n\n-1,0.25\n\n1,0.75\n")
    dist = read_distribution_csv(str(ref))
    assert dist.halfwidth == 1 and dist.probs.tolist() == [0.25, 0.0, 0.75]


@pytest.mark.parametrize(
    "command, overrides, flags",
    [
        ("run", {"step": 5}, []),
        ("run", {"defect": {"kind": "cross_xy", "phy": 1.0}}, []),
        ("run", {"initial": {"postion": [3, 0]}}, []),
        ("run", {"coin": {"kind": "fractional_swap", "tau": 0.5, "tua": 0.1}}, []),
        ("run", {"coin": {"kind": "tensor", "first": {"kind": "su2", "theta": 1, "pis": 2}}}, []),
        ("sweep", {"sweep": {"phi": ["pi:1"], "defects": ["line_y"]}}, []),
        ("isocheck", {"trails": 3}, []),
        ("run", {"defect": {"kind": "custom", "table": {"0,0": 1.0}}}, ["--phi", "2.0"]),
        ("run", {"defect": {"kind": "custom", "phi": 1.0, "table": {"0,0": 1.0}}}, []),
    ],
    ids=[
        "steps-misspelt", "defect-phi-misspelt", "initial-position-misspelt",
        "coin-tau-misspelt", "nested-coin-key", "sweep-defect-misspelt",
        "isocheck-trials-misspelt", "phi-flag-on-custom", "phi-key-on-custom",
    ],
)
def test_a_key_nothing_reads_exits_1_and_creates_nothing(
    tmp_path, monkeypatch, capsys, command, overrides, flags
):
    # Each of these used to run another walk than the config says (10
    # steps, phi = 0, a start at the origin, a cross_xy sweep) and exit 0.
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, **overrides)
    assert main([command, "--config", str(cfg_path), *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "overrides",
    [
        {"halfwidth": True},
        {"max_steps": True},
        {"steps": True},
        {"dimensionality": True, "defect": "none", "initial": {"position": 0}},
        {"halfwidth": 3, "initial": {"position": [True, 0]}},
    ],
    ids=["halfwidth", "max_steps", "steps", "dimensionality", "position"],
)
def test_run_rejects_bool_for_integer_keys(tmp_path, overrides):
    # Each config would be valid with 1 in place of true.
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path, **{"steps": 1, **overrides})
    assert main(["run", "--config", str(cfg_path)]) == 1
    cfg_path.write_text(json.dumps(cfg).replace("true", "1"))
    assert main(["run", "--config", str(cfg_path)]) == 0


@pytest.mark.parametrize("key", ["halfwidth", "trials", "seed"])
def test_isocheck_rejects_bool_config_values(tmp_path, key):
    cfg_path = tmp_path / "iso.json"
    cfg_path.write_text(json.dumps({key: True}))
    assert main(["isocheck", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1


def test_custom_defect_echo_reproduces_the_run(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    table = {"0,0": "pi:0.5", "1,-1": 0.25, "-2,2": "pi:1"}
    write_config(cfg_path, steps=6, defect={"kind": "custom", "table": table})
    assert main(["run", "--config", str(cfg_path)]) == 0
    first = tmp_path / "out"
    echo = json.loads((first / "summary.json").read_text())["config"]
    assert echo["defect"]["table"] == {
        "0,0": pytest.approx(np.pi / 2), "1,-1": 0.25, "-2,2": pytest.approx(np.pi)
    }

    again = tmp_path / "again.json"
    again.write_text(json.dumps({**echo, "out_dir": str(tmp_path / "again")}))
    assert main(["run", "--config", str(again)]) == 0
    assert (tmp_path / "again" / "distribution.csv").read_bytes() == (
        first / "distribution.csv"
    ).read_bytes()


def test_builtin_defect_echo_has_no_table(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2)
    assert main(["run", "--config", str(cfg_path)]) == 0
    echo = json.loads((tmp_path / "out" / "summary.json").read_text())["config"]
    assert echo["defect"] == {"kind": "cross_xy", "phi": np.pi}


ECHO_COINS = {
    "hadamard": (2, "hadamard"),
    "identity": (1, "identity"),
    "su2": (1, {"kind": "su2", "theta": "pi:0.3", "psi": "pi:-0.25", "phi": 0.4}),
    "tensor": (2, {"kind": "tensor", "first": {"kind": "su2", "theta": "pi:0.2"}}),
    "fractional_swap": (2, {"kind": "fractional_swap", "tau": 0.3}),
}
ECHO_STARTS = {
    "none": lambda d: None,
    "position": lambda d: {"position": 1 if d == 1 else [1, -1]},
    "coin-pairs": lambda d: {"coin": [[0.6, 0], [0, 0.8]] if d == 1
                             else [[0.5, 0], [0, 0.5], [0.5, 0], [0, -0.5]]},
}
ECHO_DEFECTS = {
    "builtin": lambda d: {"kind": "point" if d == 1 else "line_y", "phi": "pi:0.5"},
    "custom": lambda d: {"kind": "custom", "table": {"1" if d == 1 else "1,0": "pi:0.25"}},
    "none-negative-zero-phi": lambda d: {"kind": "none", "phi": -0.0},
    "custom-noncanonical-key": lambda d: {"kind": "custom",
                                          "table": {"01" if d == 1 else "01,0": 0.5}},
}


@pytest.mark.parametrize("defect", ECHO_DEFECTS)
@pytest.mark.parametrize("start", ECHO_STARTS)
@pytest.mark.parametrize("coin", ECHO_COINS)
def test_the_echo_reruns_the_same_walk(tmp_path, coin, start, defect):
    # The echo is the resolved config: running it again writes the same
    # distribution, and echoes itself.
    dim, coin_cfg = ECHO_COINS[coin]
    cfg = {"dimensionality": dim, "steps": 4, "halfwidth": 6, "coin": coin_cfg,
           "defect": ECHO_DEFECTS[defect](dim), "out_dir": str(tmp_path / "first")}
    if ECHO_STARTS[start](dim) is not None:
        cfg["initial"] = ECHO_STARTS[start](dim)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
    echo = json.loads((tmp_path / "first" / "summary.json").read_text())["config"]
    (tmp_path / "again.json").write_text(json.dumps({**echo, "out_dir": str(tmp_path / "again")}))
    assert main(["run", "--config", str(tmp_path / "again.json")]) == 0
    for name in ("distribution.csv", "summary.json"):
        first, again = ((tmp_path / d / name).read_bytes() for d in ("first", "again"))
        if name == "summary.json":
            first, again = (json.loads(b)["config"] for b in (first, again))
        assert first == again


def test_configs_of_one_walk_echo_the_same_bytes(tmp_path):
    # {} used to echo "position": null, the README's default [0, 0], and a
    # coin object itself.
    readme_default = {
        "dimensionality": 2, "steps": 10, "halfwidth": None, "coin": "hadamard",
        "defect": "none", "initial": {"position": [0, 0], "coin": "symmetric"},
        "boundary": "open", "formats": ["csv", "json"], "emit_per_step": False,
        "reference": None, "threads": 1, "max_steps": 2000,
    }
    configs = [{}, readme_default, {"coin": {"kind": "hadamard"}, "initial": {}}]
    echoes = []
    for i, cfg in enumerate(configs):
        (tmp_path / "cfg.json").write_text(json.dumps({**cfg, "out_dir": str(tmp_path / str(i))}))
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
        summary = json.loads((tmp_path / str(i) / "summary.json").read_text())
        echoes.append(json.dumps(summary["config"], sort_keys=True))
    assert echoes[0] == echoes[1] == echoes[2]

    # A none defect echoes "phi": 0.0, whatever the sign of its zero; a
    # custom table echoes each site under its canonical key, in 1D and 2D.
    one_d = {"dimensionality": 1, "initial": {"position": 0}}
    for group in (
        [{}, {"defect": {"kind": "none", "phi": -0.0}}],
        [{"defect": {"kind": "custom", "table": {"1,0": 0.5}}},
         {"defect": {"kind": "custom", "phi": -0.0, "table": {"01,0": 0.5}}}],
        [{**one_d, "defect": {"kind": "custom", "table": {"-1": 0.5}}},
         {**one_d, "defect": {"kind": "custom", "table": {"-01": 0.5}}}],
    ):
        echoes = []
        for i, cfg in enumerate(group):
            out = tmp_path / f"group{i}"
            (tmp_path / "cfg.json").write_text(json.dumps({**cfg, "out_dir": str(out)}))
            assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
            summary = json.loads((out / "summary.json").read_text())
            echoes.append(json.dumps(summary["config"], sort_keys=True))
        assert echoes[0] == echoes[1]


def test_a_none_defect_takes_no_phase(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, defect={"kind": "none", "phi": 1.0})
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "error: defect.phi" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # --defect none names a kind without a phase: the config's phase goes.
    write_config(cfg_path, steps=2, defect={"kind": "cross_xy", "phi": "pi:1"})
    assert main(["run", "--config", str(cfg_path), "--defect", "none"]) == 0
    echo = json.loads((tmp_path / "out" / "summary.json").read_text())["config"]
    assert echo["defect"] == {"kind": "none", "phi": 0.0}


@pytest.mark.parametrize(
    "defect",
    [{"kind": "cross_xy", "phy": 1.0}, {"kind": "cross_xy", "phi": "garbage"}, {"kind": "custom"}],
    ids=["misspelt-phi", "garbage-phi", "custom-without-table"],
)
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_sweep_reads_the_top_level_defect_as_run_does(tmp_path, capsys, command, defect):
    # The sweep used to read only the kind, and none of it with a kind axis: exit 0.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, defect=defect, sweep={"phi": ["pi:1"], "defect": ["line_y"]})
    assert main([command, "--config", str(cfg_path)]) == 1
    assert "error: defect" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_sweep_point_takes_its_phase_from_the_grid(tmp_path):
    # defect.phi is read by run; a sweep point is the grid's (kind, phi).
    cfg_path = tmp_path / "cfg.json"
    rows = []
    for phi in ("pi:0.5", 0.0):
        defect = {"kind": "line_y", "phi": phi}
        write_config(cfg_path, steps=4, defect=defect, sweep={"phi": ["pi:1"]})
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        rows.append(read_rows(tmp_path / "out" / "sweep.csv"))
    assert rows[0] == rows[1]
    assert main(["run", "--config", str(cfg_path), "--phi", "pi:1"]) == 0
    final = json.loads((tmp_path / "out" / "summary.json").read_text())["final"]
    assert rows[0][0]["recurrence"] == f"{final['recurrence']:.12g}"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_oversize_lattice_exits_1_before_allocating(tmp_path, command):
    # (2 * 100000 + 1)^2 sites: the full distribution alone would be 320 GB.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, halfwidth=100000, sweep={"phi": ["pi:1"]})
    tracemalloc.start()
    try:
        assert main([command, "--config", str(cfg_path)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "overrides, flags, error",
    [
        ({"halfwidth": 100000, "sweep": {"phi": ["pi:1"]}}, [], "halfwidth: "),
        ({"sweep": {"phi": ["pi:1", "pi:x"]}}, [], "sweep.phi: "),
        ({"sweep": {"phi": ["pi:1"], "defect": ["line_y", "bogus"]}}, [], "sweep.defect.kind: "),
        ({"sweep": {"phi": ["pi:1"], "defect": ["custom"]}}, [], "sweep.defect.table: "),
        ({"sweep": {"phi": ["pi:1"], "defect": [None]}}, [], "sweep.defect.kind: "),
        ({"sweep": {"phi": ["pi:1"], "defect": [3]}}, [], "sweep.defect.kind: "),
        ({"sweep": {"phi": ["pi:1"], "defect": ["line_y"]}}, ["--defect", "bogus"],
         "sweep.defect.kind: "),
    ],
    ids=["oversize-halfwidth", "malformed-phi", "unknown-kind", "custom-kind", "null-kind",
         "number-kind", "unknown-kind-flag"],
)
def test_invalid_sweep_exits_1_without_creating_out_dir(tmp_path, capsys, overrides, flags, error):
    # A sweep.defect entry is read as run reads a defect kind.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **overrides)
    assert main(["sweep", "--config", str(cfg_path), *flags]) == 1
    assert f"error: {error}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lattice_cap_admits_the_default_step_cap():
    assert (2 * DEFAULT_STEP_CAP + 1) ** 2 <= MAX_LATTICE_SITES


@pytest.mark.parametrize("dim, cap", [(2, 2047), (1, 8_388_607)], ids=["2d", "1d"])
def test_halfwidth_is_bounded_by_the_largest_lattice_under_the_site_cap(dim, cap):
    # Read by _walk, which checks the walk and allocates no lattice.
    assert (2 * cap + 1) ** dim <= MAX_LATTICE_SITES < (2 * cap + 3) ** dim
    cfg = {"dimensionality": dim, "defect": "none"}
    tracemalloc.start()
    try:
        spec, echo = qwalk.cli._walk({**cfg, "halfwidth": cap})
        with pytest.raises(ConfigError, match=f"^halfwidth: must be an integer in 1..{cap}, "
                                              f"got {cap + 1}$"):
            qwalk.cli._walk({**cfg, "halfwidth": cap + 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.halfwidth == echo["halfwidth"] == cap
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "overrides",
    [
        {"formats": ["CSV"]},
        {"formats": 5},
        {"formats": "csvjson"},
        {"formats": []},
        {"emit_per_step": "false"},
        {"emit_per_step": 1},
    ],
    ids=["upper-case-format", "formats-not-a-list", "formats-string", "no-formats",
         "emit-per-step-string", "emit-per-step-int"],
)
def test_run_rejects_malformed_output_options(tmp_path, overrides, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, **overrides)
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_missing_reference_exits_1_without_creating_out_dir(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2)
    missing = tmp_path / "missing.csv"
    assert main(["run", "--config", str(cfg_path), "--reference", str(missing)]) == 1
    assert not (tmp_path / "out").exists()


def test_empty_reference_flag_exits_1_and_creates_nothing(tmp_path):
    # An empty --reference used to fall back to the config's reference.
    cfg_path = tmp_path / "cfg.json"
    ref = tmp_path / "ref.csv"
    ref.write_text("x,y,p\n0,0,1\n")
    write_config(cfg_path, steps=2, reference=str(ref))
    assert main(["run", "--config", str(cfg_path)]) == 0
    (tmp_path / "out").rename(tmp_path / "first")
    assert main(["run", "--config", str(cfg_path), "--reference", ""]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reference", [0, 1, True, ""], ids=["0", "1", "true", "empty"])
def test_run_rejects_a_reference_that_is_not_a_path(tmp_path, reference):
    # An int would be opened as a file descriptor (1 is stdout), and 0 or ""
    # used to skip the comparison silently.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, reference=reference)
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "formats, written",
    [(["csv"], {"distribution.csv"}), (["json"], {"summary.json"}),
     (["json", "csv"], {"distribution.csv", "summary.json"})],
)
def test_run_writes_exactly_the_listed_formats(tmp_path, formats, written):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, formats=formats, emit_per_step=False)
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert {p.name for p in (tmp_path / "out").iterdir()} == written


@pytest.mark.parametrize("coin", ["hadamard", {"kind": "fractional_swap", "tau": 0.5}],
                         ids=["separable", "2d-kernel"])
def test_the_final_distribution_is_built_only_for_the_csv_or_s_t(tmp_path, monkeypatch, coin):
    built, original = [], qwalk.cli._distribution

    def spy(grids):
        built.append(len(grids))
        return original(grids)

    monkeypatch.setattr(qwalk.cli, "_distribution", spy)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=4, coin=coin, formats=["json"], emit_per_step=True)
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert built == []
    ref = tmp_path / "ref.csv"
    free = run_walk(WalkSpec(2, 4, tensor(hadamard(), hadamard())))
    write_distribution_csv(ref, distribution(free))
    assert main(["run", "--config", str(cfg_path), "--reference", str(ref)]) == 0
    assert len(built) == 1
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["final"]["s_t"] > 0


@pytest.mark.parametrize("out_dir", [5, ["a"], None], ids=["int", "list", "null"])
@pytest.mark.parametrize("command", ["run", "sweep", "isocheck"])
def test_non_string_out_dir_exits_1_and_creates_nothing(
    tmp_path, monkeypatch, capsys, command, out_dir
):
    # Bad input, not a runtime error: Path(5) used to raise TypeError (exit 2).
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, sweep={"phi": ["pi:1"]}, out_dir=out_dir)
    assert main([command, "--config", str(cfg_path)]) == 1
    assert "error: out_dir" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("dim, x0, coin", [(1, 10**3, "hadamard"), (1, 10**5, "hadamard"),
                                           (2, 10**3, "hadamard"),
                                           (2, 10**3, {"kind": "fractional_swap", "tau": 0.5})],
                         ids=["1d-1e3", "1d-1e5", "2d-1e3-product", "2d-1e3-kernel"])
def test_a_run_off_the_origin_writes_the_origin_runs_variances(tmp_path, dim, x0, coin):
    # The 2D lattice cap (halfwidth 2047) admits no start at 1e5.  A product
    # walk's variances are its 1D factors', the kernel's its grid's.
    variances = []
    for start in (0, x0):
        cfg_path = tmp_path / f"{start}.json"
        position = start if dim == 1 else [start, -start]
        write_config(cfg_path, dimensionality=dim, steps=50, coin=coin, defect="none",
                     halfwidth=x0 + 50, initial={"position": position}, formats=["json"],
                     out_dir=str(tmp_path / str(start)))
        assert main(["run", "--config", str(cfg_path)]) == 0
        summary = json.loads((tmp_path / str(start) / "summary.json").read_text())
        variances.append([(s["variance_x"], s["variance_y"])
                          for s in summary["per_step"] + [summary["final"]]])
    assert variances[1] == variances[0]


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", ["run", "sweep", "isocheck"])
def test_an_out_dir_that_cannot_be_a_directory_exits_1(tmp_path, capsys, command, under):
    # Bad input, not a runtime error: mkdir's FileExistsError and
    # NotADirectoryError used to exit 2.
    (tmp_path / "file").write_text("kept")
    out_dir = tmp_path / "file" / "out" if under else tmp_path / "file"
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, sweep={"phi": ["pi:1"]}, out_dir=str(out_dir))
    assert main([command, "--config", str(cfg_path)]) == 1
    assert "error: out_dir: cannot create" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "file"]
    assert (tmp_path / "file").read_text() == "kept"


@pytest.mark.parametrize(
    "overrides",
    [
        {"initial": {"position": [0.7, 0]}},
        {"initial": {"position": [0, 0, 0]}},
        {"dimensionality": 1, "defect": "none", "initial": {"position": 1.9}},
        {"boundary": "reflecting"},
    ],
    ids=["2d-float", "2d-triple", "1d-float", "boundary"],
)
def test_run_rejects_malformed_start_and_boundary(tmp_path, overrides):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, **overrides)
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"initial": {"position": [100, 0]}},
        {"initial": {"position": [0, -3]}},
        {"dimensionality": 1, "defect": "none", "initial": {"position": 3}},
    ],
    ids=["2d-far", "2d-one-past-the-edge", "1d"],
)
def test_run_start_off_the_lattice_exits_1_and_creates_nothing(tmp_path, overrides, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, **overrides)
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "outside" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", [True, False, 2.7, 2.0, "2.7", "two", "2", 0],
                         ids=["true", "false", "2.7", "2.0", "str-2.7", "str-two", "str-2", "0"])
@pytest.mark.parametrize("command", ["run", "sweep", "isocheck"])
def test_non_integer_threads_exit_1_and_create_nothing(tmp_path, capsys, command, threads):
    # 2.7 used to run as 2 threads and true as 1, echoed as such.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, sweep={"phi": ["pi:1"]}, threads=threads)
    assert main([command, "--config", str(cfg_path)]) == 1
    assert "error: threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_the_environment_does_not_set_threads(tmp_path, monkeypatch, command):
    # QWALK_THREADS was read when the config had no threads; "abc" exited 1.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, sweep={"phi": ["pi:1"]})
    monkeypatch.setenv("QWALK_THREADS", "abc")
    assert main([command, "--config", str(cfg_path)]) == 0
    if command == "run":
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["threads"] == 1


def test_config_threads_echo_the_integer(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, threads=3)
    assert main(["run", "--config", str(cfg_path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["threads"] == 3


@pytest.mark.parametrize("command, source", [("run", "flag"), ("run", "config"), ("sweep", "flag"),
                                             ("sweep", "config"), ("isocheck", "config")])
def test_threads_above_the_cap_exit_1_and_create_nothing(tmp_path, capsys, command, source):
    # Checked before any BLAS count is set: no test starts 65 BLAS threads.
    cfg_path = tmp_path / "cfg.json"
    extra = {"threads": MAX_THREADS + 1} if source == "config" else {}
    write_config(cfg_path, steps=2, sweep={"phi": ["pi:1"]}, **extra)
    flag = ["--threads", str(MAX_THREADS + 1)] if source == "flag" else []
    assert main([command, "--config", str(cfg_path), *flag]) == 1
    assert f"error: threads: must be an integer in 1..{MAX_THREADS}, got {MAX_THREADS + 1}" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "out").exists()


def test_the_cap_admits_the_host_cpu_count(tmp_path):
    # `--threads $(nproc)` runs on any host, 64 cores or more.
    assert MAX_THREADS >= max(64, os.cpu_count() or 1)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, sweep={"phi": ["pi:1"]})
    for command in ("run", "sweep"):
        assert main([command, "--config", str(cfg_path), "--threads", str(os.cpu_count())]) == 0


requires_openblas = pytest.mark.skipif(not _openblas(), reason="no OpenBLAS thread control found")


@requires_openblas
def test_a_command_holds_openblas_at_threads_only_for_walks_it_can_split(tmp_path, monkeypatch):
    # threads is the BLAS thread count of a command's 2D-kernel and periodic
    # walks, from their first step to their last, whatever the grid.  An open
    # 1D walk's GEMM is below the size OpenBLAS splits: a command whose walks
    # are all open 1D (and the isocheck) leaves every OpenBLAS as it found it,
    # and never looks for one.  The caller's counts come back after exit 0, 1, 2.
    controls = _openblas()
    seen = []  # (reads the caller's counts, the counts of every OpenBLAS) a step or check
    looked = []  # one entry a call of _openblas

    def counts():
        return {get() for get, _ in controls}

    def noted(stack, advance=_Stack.advance):
        seen.append((stack.specs[0].dimensionality == 1 and stack.moves is None, counts()))
        kinds.add((stack.specs[0].dimensionality, stack.moves is None))
        advance(stack)
    monkeypatch.setattr(_Stack, "advance", noted)
    for name in ("verify_isomorphism", "check_translation_equivalence",
                 "check_decomposition_claims"):  # the isocheck's checks

        def checked(*args, call=getattr(qwalk.cli, name), **kwargs):
            seen.append((True, counts()))
            return call(*args, **kwargs)
        monkeypatch.setattr(qwalk.cli, name, checked)

    def spy():
        looked.append(True)
        return controls
    monkeypatch.setattr(qwalk.cli, "_openblas", spy)
    kinds = set()  # (dimensionality, on the light cone) of every stack stepped
    swap = {"kind": "fractional_swap", "tau": 0.5}  # not a product: the 2D kernel steps it
    line = {"dimensionality": 1, "defect": {"kind": "point", "phi": "pi:1"},
            "initial": {"position": 0}}
    walks = [({"steps": 130, "coin": swap}, False),  # its grids grow past 128 sites a side
             ({"steps": 2, "boundary": "periodic", "halfwidth": 64, "coin": swap}, False),
             ({**line, "steps": 2, "boundary": "periodic", "halfwidth": 64}, False),
             ({"steps": 20}, True),  # two 1D walks
             ({**line, "steps": 20}, True)]
    commands = [(c, walk, open_1d) for c in ("run", "sweep") for walk, open_1d in walks]
    commands.append(("isocheck", {"trials": 3}, True))
    cfg_path = tmp_path / "cfg.json"

    def run(command, threads, **cfg):
        write_config(cfg_path, sweep={"phi": ["pi:1", "pi:0.5"]}, threads=threads, **cfg)
        seen.clear()
        looked.clear()
        return main([command, "--config", str(cfg_path)])

    def put(n):
        for _, set_count in controls:
            set_count(n)

    found = [get() for get, _ in controls]
    try:
        for outer, threads in ((2, 1), (1, 2)):
            put(outer)
            for command, walk, open_1d in commands:
                assert run(command, threads, **walk) == 0
                assert seen and all(n == {outer if caller else threads} for caller, n in seen)
                assert bool(looked) is not open_1d, (command, walk)
                assert counts() == {outer}  # after the command
        assert kinds == {(1, True), (1, False), (2, True), (2, False)}
        monkeypatch.setattr(qwalk.evolution, "STEP_NORM_TOL", -1.0)  # the first step fails
        monkeypatch.setattr(qwalk.cli, "ISO_TOL", 0.0)  # fails: every deviation is 0.0
        for command, walk, open_1d in commands:
            assert run(command, 2, **walk) == 2
            assert seen and all(n == {1 if caller else 2} for caller, n in seen)
            assert bool(looked) is not open_1d, (command, walk)
            assert counts() == {1}
            assert run(command, 2, **{**walk, "halfwidth": 0}) == 1
            assert not seen and not looked and counts() == {1}
    finally:
        for (_, set_count), n in zip(controls, found):
            set_count(n)


# The variables OpenBLAS sizes its pool from when numpy loads, first set wins.
POOL_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _child_env(**variables: str) -> dict[str, str]:
    """The environment of a fresh interpreter that imports this tree's ``qwalk``:
    the caller's, with ``variables`` as the only ones of :data:`POOL_VARIABLES`."""
    src = str(Path(qwalk.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {k: v for k, v in os.environ.items() if k not in POOL_VARIABLES}
    return {**env, **variables, "PYTHONPATH": os.pathsep.join(path)}


def _summary_without_timing(tmp_path, cfg: dict, openblas_threads: str | None) -> str:
    """``summary.json`` of a fresh ``qwalk run`` process, minus its timing;
    ``openblas_threads`` None sets none of :data:`POOL_VARIABLES`."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / f"out{openblas_threads}"
    variables = {} if openblas_threads is None else {"OPENBLAS_NUM_THREADS": openblas_threads}
    env = _child_env(**variables)
    subprocess.run([sys.executable, "-m", "qwalk.cli", "run", "--config", str(cfg_path),
                    "--out", str(out)], env=env, check=True, capture_output=True, timeout=120)
    summary = json.loads((out / "summary.json").read_text())
    summary.pop("timing_seconds")
    return json.dumps(summary)


@requires_openblas
@pytest.mark.parametrize("variables, numpy_first, count", [
    ({}, False, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, False, min(2, CORES)),  # OpenBLAS caps a start at the cores
    ({"GOTO_NUM_THREADS": "2"}, False, min(2, CORES)),
    ({"OMP_NUM_THREADS": "2"}, False, min(2, CORES)),
    ({}, True, min(CORES, 64)),  # numpy's own start: the cores, to its OpenBLAS's cap
], ids=["no-variable", *POOL_VARIABLES, "numpy-first"])
def test_importing_qwalk_cli_starts_openblas_at_one_thread_unless_a_count_is_set(
        variables, numpy_first, count):
    # Only a qwalk.cli that loads numpy itself, with no count set, starts the
    # pool at 1; every case leaves the environment as the process began it.
    code = ("import json, os\n" + "import numpy\n" * numpy_first + "import qwalk.cli\n"
            "counts = sorted({get() for get, _ in qwalk.cli._openblas()})\n"
            "print(json.dumps([counts, dict(os.environ)]))")
    env = _child_env(**variables)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True,
                         text=True, timeout=120).stdout
    counts, environ = json.loads(out)
    assert counts == [count]
    assert environ == env


def test_import_qwalk_loads_no_numpy():
    code = "import sys, qwalk; sys.exit('numpy' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True, timeout=120)


def test_the_lazy_package_gives_every_public_name_and_submodule():
    for name in qwalk.__all__:
        value = qwalk.__getattr__(name)
        assert getattr(sys.modules[value.__module__], name) is value is getattr(qwalk, name)
    submodules = [p.stem for p in Path(qwalk.__file__).parent.glob("*.py") if p.stem != "__init__"]
    for module in submodules:
        assert qwalk.__getattr__(module) is sys.modules[f"qwalk.{module}"] is getattr(qwalk, module)
    names: dict = {}
    exec("from qwalk import *", names)
    assert sorted(names.keys() - {"__builtins__"}) == sorted(qwalk.__all__)
    assert {*qwalk.__all__, *submodules} <= set(dir(qwalk))
    with pytest.raises(AttributeError, match="no_such_name"):
        qwalk.no_such_name


@requires_openblas
@pytest.mark.parametrize("coin", ["hadamard", {"kind": "fractional_swap", "tau": 0.5}],
                         ids=["two-1d-walks", "2d-kernel"])
def test_summary_bytes_do_not_follow_openblas_num_threads(tmp_path, coin):
    # The norm's zdotc splits its sum by the BLAS thread count; from about
    # step 50 the last bits of norm_residual used to follow the host's count.
    cfg = {"dimensionality": 2, "steps": 60, "coin": coin,
           "defect": {"kind": "cross_xy", "phi": "pi:1"}}
    assert len({_summary_without_timing(tmp_path, cfg, n) for n in ("1", "2")}) == 1


@requires_openblas
def test_a_two_thread_run_of_the_2d_kernel_does_not_follow_openblas_num_threads(tmp_path):
    cfg = {"dimensionality": 2, "steps": 140, "threads": 2, "formats": ["json"],
           "coin": {"kind": "fractional_swap", "tau": 0.5},  # the 2D kernel, not two 1D walks
           "defect": {"kind": "cross_xy", "phi": "pi:1"}}
    # None: a pool started at one thread, grown to two by the command.
    assert len({_summary_without_timing(tmp_path, cfg, n) for n in ("1", "2", None)}) == 1


@pytest.mark.parametrize("cfg", [
    {"coin": {"kind": "fractional_swap", "tau": 0.5}, "steps": 140,
     "sweep": {"phi": ["pi:1"], "defect": ["cross_xy", "line_y"]}},
    {"coin": "hadamard", "steps": 90,  # separable: two 1D walks a point
     "sweep": {"phi": [f"pi:{k / 8:g}" for k in range(9)], "defect": ["cross_xy", "line_y"]}},
    {"dimensionality": 1, "steps": 140, "defect": "point", "initial": {"position": 0},
     "sweep": {"phi": ["pi:0.5", "pi:1"]}},
], ids=["2d-kernel", "hadamard-pair", "1d-point"])
def test_a_sweep_gives_the_same_bytes_at_threads_1_and_2(tmp_path, cfg):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **cfg)
    rows = []
    for threads in ("1", "2"):
        assert main(["sweep", "--config", str(cfg_path), "--threads", threads]) == 0
        rows.append((tmp_path / "out" / "sweep.csv").read_bytes())
    assert rows[0] == rows[1]


@requires_openblas
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
@pytest.mark.parametrize("command, cfg, started", [
    ("sweep", {"steps": 90, "threads": 2,  # shaped like perfbench's sweep2d_phases
               "sweep": {"phi": [f"pi:{k / 8:g}" for k in range(9)],
                         "defect": ["cross_xy", "line_y"]}}, 0),
    ("run", {"dimensionality": 1, "steps": 20, "threads": 2, "defect": "none",
             "initial": {"position": 0}}, 0),
    ("isocheck", {"threads": 2, "trials": 3}, 0),
    ("run", {"steps": 10, "threads": 2, "coin": {"kind": "fractional_swap", "tau": 0.5}}, 1),
    ("run", {"dimensionality": 1, "steps": 4, "halfwidth": 8, "boundary": "periodic",
             "threads": 2, "defect": "none", "initial": {"position": 0}}, 1),
], ids=["separable-sweep", "1d-run", "isocheck", "2d-kernel-run", "1d-periodic-run"])
def test_only_a_walk_openblas_can_split_starts_a_thread(tmp_path, command, cfg, started):
    # A fresh process, its pool started at one thread: growing it to two
    # starts an OS thread, which then idles and spins for the rest of the process.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **cfg)
    code = ("import json, os, sys\n"
            "import qwalk.cli\n"
            "before = len(os.listdir('/proc/self/task'))\n"
            "rc = qwalk.cli.main(sys.argv[1:])\n"
            "print(json.dumps([rc, len(os.listdir('/proc/self/task')) - before]))")
    out = subprocess.run([sys.executable, "-c", code, command, "--config", str(cfg_path)],
                         env=_child_env(), check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert json.loads(out.splitlines()[-1]) == [0, started]


def test_a_2d_kernel_run_gives_the_same_summary_at_threads_1_and_2(tmp_path):
    # The step guard's norm is each walk's pairwise sum of its site
    # probabilities, which no thread count splits, so no summary byte but the
    # echoed threads follows --threads.  A norm through BLAS zdotc, which
    # splits its sum by thread, moves norm_residual on 47 of these 140 steps.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=140, coin={"kind": "fractional_swap", "tau": 0.5},
                 formats=["json"])
    summaries = []
    for threads in (1, 2):
        assert main(["run", "--config", str(cfg_path), "--threads", str(threads)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        summary.pop("timing_seconds")
        assert summary["config"].pop("threads") == threads
        summaries.append(json.dumps(summary))
    assert summaries[0] == summaries[1]


def test_defect_flag_of_the_config_kind_keeps_its_table(tmp_path):
    # --defect custom used to drop the config's table: exit 1.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=3, defect={"kind": "custom", "table": {"0,0": 1.0}})
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(cfg_path), "--defect", "custom",
                 "--out", str(tmp_path / "b")]) == 0
    a, b = ((tmp_path / run / "distribution.csv").read_bytes() for run in "ab")
    assert a == b
    echo = json.loads((tmp_path / "b" / "summary.json").read_text())["config"]
    assert echo["defect"] == {"kind": "custom", "phi": 0.0, "table": {"0,0": 1.0}}


def test_defect_none_over_a_none_defect_with_a_phase_drops_the_phase(tmp_path):
    # The config alone exits 1 (a none defect takes no phase); --defect none
    # names a kind without a phase, so the config's phase goes, as for any kind.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, defect={"kind": "none", "phi": 1.0})
    assert main(["run", "--config", str(cfg_path), "--defect", "none"]) == 0
    echo = json.loads((tmp_path / "out" / "summary.json").read_text())["config"]
    assert echo["defect"] == {"kind": "none", "phi": 0.0}


@pytest.mark.parametrize(
    "walk_dim, rows",
    [(2, "x,p\n0,1\n"), (1, "x,y,p\n0,0,1\n")],
    ids=["1d-reference-on-2d-run", "2d-reference-on-1d-run"],
)
def test_reference_of_the_wrong_dimensionality_exits_1_and_creates_nothing(
    tmp_path, capsys, walk_dim, rows
):
    # A 1D reference on a 2D run used to exit 2 after the whole run, with
    # distribution.csv written and no summary.json.
    cfg_path = tmp_path / "cfg.json"
    overrides = {} if walk_dim == 2 else {"dimensionality": 1, "defect": "none",
                                          "initial": {"position": 0}}
    write_config(cfg_path, steps=2, **overrides)
    ref = tmp_path / "ref.csv"
    ref.write_text(rows)
    assert main(["run", "--config", str(cfg_path), "--reference", str(ref)]) == 1
    assert "error: reference" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "rows",
    ["x,y,p\n0,0,1,7\n", "x,y,p\n0,0,1,\n", "x,p\n0,1,0\n", "x,p\n0\n"],
    ids=["2d-extra-value", "2d-trailing-comma", "1d-extra-value", "1d-short"],
)
def test_reference_rows_of_the_wrong_length_exit_1(tmp_path, rows):
    # The row 0,0,1,7 under x,y,p used to be read as p = 1.
    ref = tmp_path / "ref.csv"
    ref.write_text(rows)
    with pytest.raises(ConfigError, match="expected"):
        read_distribution_csv(str(ref))
    cfg_path = tmp_path / "cfg.json"
    dim = rows.count(",", 0, rows.index("\n"))
    overrides = {} if dim == 2 else {"dimensionality": 1, "defect": "none",
                                     "initial": {"position": 0}}
    write_config(cfg_path, steps=2, **overrides)
    assert main(["run", "--config", str(cfg_path), "--reference", str(ref)]) == 1
    assert not (tmp_path / "out").exists()


def test_reference_that_lists_a_site_twice_exits_1_and_creates_nothing(tmp_path, capsys):
    # These rows list a total of 1.5, but were read as p(0,0) = p(1,1) = 0.5.
    ref = tmp_path / "ref.csv"
    ref.write_text("x,y,p\n0,0,0.5\n0,0,0.5\n1,1,0.5\n")
    with pytest.raises(ConfigError, match="twice"):
        read_distribution_csv(str(ref))
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2)
    assert main(["run", "--config", str(cfg_path), "--reference", str(ref)]) == 1
    assert "error: reference" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "rows", ["x,p\n0,0.5\n4611686018427387904,0.5\n", "x,y,p\n0,0,0.5\n100000000000,0,0.5\n"],
    ids=["1d-site-2-to-the-62", "2d-site-10-to-the-11"],
)
def test_reference_above_the_lattice_cap_exits_1_before_allocating(tmp_path, capsys, rows):
    # These used to exit 2 with numpy's "array is too big" or "Maximum
    # allowed dimension exceeded", after the run's parse; a 1D site near
    # 10^7 allocated hundreds of MB and exited 0.
    ref = tmp_path / "ref.csv"
    ref.write_text(rows)
    cfg_path = tmp_path / "cfg.json"
    dim = rows.count(",", 0, rows.index("\n"))
    overrides = {} if dim == 2 else {"dimensionality": 1, "defect": "none",
                                     "initial": {"position": 0}}
    write_config(cfg_path, steps=2, **overrides)
    tracemalloc.start()
    try:
        assert main(["run", "--config", str(cfg_path), "--reference", str(ref)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert f"error: reference: {ref} has a coordinate of magnitude" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match=f"above the cap of {MAX_LATTICE_SITES} sites"):
        read_distribution_csv(str(ref))


@pytest.mark.parametrize("defect", [[1], 7, 0], ids=["list", "number", "zero"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_phi_on_a_malformed_defect_exits_1_and_creates_nothing(tmp_path, capsys, command, defect):
    # This used to exit 2 with AttributeError: 'list' object has no attribute 'get'.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, sweep={"phi": ["pi:1"]}, defect=defect)
    assert main([command, "--config", str(cfg_path), "--phi", "1"]) == 1
    assert "error: defect" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("defect", ["absent", None, "none"], ids=["absent", "null", "none"])
def test_phi_without_a_defect_kind_exits_1_and_creates_nothing(tmp_path, capsys, defect):
    # A null defect is read as none, as run reads it without --phi; --phi
    # over it used to say "defect: expected a kind string or an object".
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path, steps=2, defect=defect)
    if defect == "absent":
        del cfg["defect"]
        cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--phi", "1"]) == 1
    assert "error: --phi: set a defect kind first" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_phi_sets_the_phase_of_a_defect_kind_string(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, defect="line_y")
    assert main(["run", "--config", str(cfg_path), "--phi", "1"]) == 0
    echo = json.loads((tmp_path / "out" / "summary.json").read_text())["config"]
    assert echo["defect"] == {"kind": "line_y", "phi": 1.0}


@pytest.mark.parametrize(
    "command, overrides, error",
    [
        ("run", {"coin": 5}, "coin: expected 'hadamard', 'identity', or an object with 'kind'"),
        ("run", {"coin": {"kind": "grover"}}, "coin.kind: unknown coin kind 'grover'"),
        ("run", {"coin": {"kind": "su2"}}, "coin: 'su2' is a 1D coin"),
        ("run", {"dimensionality": 1, "defect": "none", "initial": {"position": 0},
                 "coin": {"kind": "tensor"}}, "coin: 'tensor' is a 2D coin"),
        ("run", {"dimensionality": 1, "defect": "none", "initial": {"position": 0},
                 "coin": {"kind": "fractional_swap", "tau": 0.5}},
         "coin: 'fractional_swap' is a 2D coin"),
        ("run", {"defect": {"kind": "custom", "table": {"a,b": 1.0}}},
         "defect.table: bad site key 'a,b'"),
        ("run", {"initial": [0, 0]}, "initial: expected an object"),
        ("sweep", {"sweep": {"phi": ["pi:1"], "defect": []}},
         "sweep.defect: expected a nonempty list of defect kinds"),
        ("sweep", {"sweep": {"phi": ["pi:1"], "defect": "line_y"}},
         "sweep.defect: expected a nonempty list of defect kinds"),
    ],
    ids=["coin-not-an-object", "coin-kind-unknown", "su2-in-2d", "tensor-in-1d",
         "fractional-swap-in-1d", "custom-site-key", "initial-not-an-object",
         "sweep-defect-empty", "sweep-defect-string"],
)
def test_a_malformed_config_value_is_named_and_creates_nothing(
    tmp_path, capsys, command, overrides, error
):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, **overrides)
    assert main([command, "--config", str(cfg_path)]) == 1
    assert f"error: {error}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_on_a_defect_object_without_kind_exits_1(tmp_path, capsys):
    # This used to exit 2 with KeyError: 'kind'.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, steps=2, sweep={"phi": ["pi:1"]}, defect={"phi": "pi:1"})
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    assert "error: sweep.defect" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "entry",
    [[1, 0, 9], [True, 0], [1], ["1", 0], 1],
    ids=["triple", "bool", "single", "string", "number"],
)
def test_initial_coin_entries_must_be_two_numbers(tmp_path, capsys, entry):
    # [1, 0, 9] used to run with the 9 dropped, and [true, 0] as [1, 0].
    cfg_path = tmp_path / "cfg.json"
    coin = [entry, [0, 0], [0, 0], [0, 0]]
    write_config(cfg_path, steps=2, initial={"position": [0, 0], "coin": coin})
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "error: initial.coin" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    write_config(cfg_path, steps=2, initial={"position": [0, 0], "coin": [[1, 0]] + coin[1:]})
    assert main(["run", "--config", str(cfg_path)]) == 0


BIG = 10**400  # a JSON integer of 401 digits: too large for a float
HUGE = 10**3999  # 4000 digits, inside Python's int-string limit


@pytest.mark.parametrize(
    "command, overrides, error",
    [
        ("run", {"halfwidth": 10, "initial": {"position": [3, 0]}},
         "config: open boundary needs halfwidth >= max|start| + steps = 13, got 10"),
        ("run", {"steps": 4, "defect": {"kind": "custom", "table": {"50,0": 1.0}}},
         "config: custom defect site (50, 0) outside [-4, 4]^2"),
        ("run", {"defect": {"kind": "cross_xy", "phi": BIG}}, "defect.phi: integer too large"),
        ("run", {"coin": {"kind": "fractional_swap", "tau": BIG}}, "coin.tau: integer too large"),
        ("run", {"initial": {"coin": [[BIG, 0], [0, 0], [0, 0], [0, 0]]}},
         "initial.coin: integer too large"),
        ("sweep", {"sweep": {"phi": ["pi:1", BIG]}}, "sweep.phi: integer too large"),
        ("run", {"defect": {"kind": "cross_xy", "phi": "pi:1e308"}}, "defect.phi: bad pi-multiple"),
        ("run", {"steps": HUGE}, "steps: "),
        ("run", {"halfwidth": HUGE}, "halfwidth: must be an integer in 1..2047, got 1000"),
        ("run", {"defect": {"kind": "custom", "table": {f"{10**19},0": 1.0}}},
         f"config: custom defect site ({10**19}, 0) outside [-10, 10]^2"),
        ("sweep", {"steps": HUGE, "sweep": {"phi": ["pi:1"]}}, "steps: "),
        ("sweep", {"halfwidth": HUGE, "sweep": {"phi": ["pi:1"]}},
         "halfwidth: must be an integer in 1..2047, got 1000"),
        ("run", {"steps": 3, "defect": {"kind": "custom", "table": {"1,0": 0.5, "01,0": 2.0}}},
         "defect.table: lists site (1, 0) twice"),
        ("run", {"steps": 3, "max_steps": DEFAULT_STEP_CAP + 1},
         f"max_steps: must be an integer in 0..{DEFAULT_STEP_CAP}, got {DEFAULT_STEP_CAP + 1}"),
        ("sweep", {"steps": 3, "max_steps": 10**8, "sweep": {"phi": ["pi:1"]}}, "max_steps: "),
    ],
    ids=["off-centre-cone", "custom-site", "phi-401-digits", "tau-401-digits",
         "initial-coin-401-digits", "sweep-phi-401-digits", "pi-multiple-to-inf",
         "run-steps-4000-digits", "run-halfwidth-4000-digits", "custom-site-past-int64",
         "sweep-steps-4000-digits", "sweep-halfwidth-4000-digits", "custom-site-twice",
         "max-steps-above-the-cap", "sweep-max-steps-above-the-cap"],
)
def test_input_that_failed_mid_run_exits_1_and_creates_nothing(
    tmp_path, capsys, command, overrides, error
):
    # Each of these used to exit 2: a walk that died mid-run, or an
    # OverflowError, a TypeError or an int-to-string ValueError out of the
    # parser.  The last three used to exit 0: the second listing of a site
    # replaced the first, and max_steps raised the step cap.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **overrides)
    assert main([command, "--config", str(cfg_path)]) == 1
    assert f"error: {error}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_halfwidth_past_int64_indices_is_named(tmp_path, capsys, command):
    # It used to say "Python int too large to convert to C long".
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, halfwidth=10**19, sweep={"phi": ["pi:1"]})
    assert main([command, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "error: halfwidth: must be an integer in 1..2047, got 10000000000000000000" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "body, key",
    [('"steps": 3, "steps": 5', "steps"),
     ('"steps": 3, "defect": {"kind": "custom", "table": {"1,0": 0.5, "1,0": 2.0}}', "1,0")],
    ids=["top-level", "nested"],
)
def test_a_config_key_given_twice_exits_1_and_creates_nothing(tmp_path, capsys, body, key):
    # json keeps the last of a repeated key: the walk ran 5 steps, or put
    # phase 2.0 on (1, 0), and exited 0.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{{body}, "out_dir": {json.dumps(str(tmp_path / "out"))}}}')
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert f"error: config: key '{key}' is given twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "literal, error",
    [("1e400", "coin.tau: expected a finite number, got inf"), ("9" * 4400, "config: invalid JSON")],
    ids=["tau-1e400", "tau-4400-digits"],
)
def test_number_literals_past_the_float_and_int_limits_exit_1(tmp_path, capsys, literal, error):
    # 1e400 used to report "default coin is not unitary" after a numpy
    # RuntimeWarning; 4400 digits passed Python's int-string limit, exit 2.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, coin={"kind": "fractional_swap", "tau": "TAU"})
    cfg_path.write_text(cfg_path.read_text().replace('"TAU"', literal))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg_path)]) == 1
    assert f"error: {error}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_isocheck_halfwidth_of_4000_digits_exits_1(tmp_path, capsys):
    # Formatting its matrix dimension (8,000 digits) into the cap message
    # used to pass Python's int-string limit: a ValueError, exit 2.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"halfwidth": HUGE, "out_dir": str(tmp_path / "out")}))
    assert main(["isocheck", "--config", str(cfg_path)]) == 1
    assert "error: halfwidth: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
