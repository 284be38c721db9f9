import csv
import io
import json
import math
import platform
from dataclasses import replace

import numpy as np
import pytest

from boxprec import ConfigError, SolverError, cli, montecarlo
from boxprec.cli import emit_csv, main, run, verify_file
from boxprec.config import parse_config
from boxprec.presets import preset_config


def write_config(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return str(p)


def _no_constant(name):
    raise ValueError(f"non-strict JSON literal {name}")


def strict_loads(text):
    """``json.loads`` that rejects the NaN and Infinity literals."""
    return json.loads(text, parse_constant=_no_constant)


def base_config(mode="theory", **extra):
    data = {
        "schema_version": 1,
        "mode": mode,
        "params": {
            "user_ratio": 0.2,
            "reg": 1.0,
            "amp": 1.0,
            "noise_var": 0.09,
        },
    }
    data.update(extra)
    return data


SIM = base_config(
    "simulate",
    trials=3,
    base_seed=17,
    sweep={"parameter": "amp", "values": [0.8, 1.6]},
)
SIM["params"]["n_antennas"] = 120

# Public column order of a simulate table at unit target power.
SIM_HEADER = (
    "user_ratio,reg,amp,level,noise_var,target_power,n_antennas,tau,"
    "beta,alpha,phi,residual_power,residual_beta,e_abs,e_sq,e_xh,"
    "box_power,box_sig_coef,box_dist_std,box_sdnr_lb,box_ber,"
    "box_rx_scale,quant_sig_coef,quant_dist_var,quant_sdnr_lb,"
    "quant_ber,quant_rx_scale,buss_gain,buss_resid_var,buss_sig_coef,"
    "buss_noise_var,buss_ber,emp_trials,emp_base_seed,emp_ber_box,"
    "emp_ber_box_se,emp_sdnr_lb_box,emp_sdnr_avg_box,emp_power_box,"
    "emp_w2_box,emp_ber_quant,emp_ber_quant_se,emp_sdnr_lb_quant,"
    "emp_sdnr_avg_quant,emp_power_quant,emp_w2_quant"
)


def _mode_configs():
    """One config per kind of table: each mode, the quant gate, amp = inf."""
    rho2 = base_config()
    rho2["params"]["target_power"] = 2.0
    free = base_config()
    free["params"]["amp"] = "inf"
    tune_box = base_config("tune-box", target_snr_db=5.0, reg_grid=[1.0])
    tune_box["params"]["amp"] = 2.0
    tuned_sim = base_config(
        "simulate",
        trials=2,
        base_seed=17,
        sweep={"parameter": "noise_var", "values": [0.05]},
        tuned="both",
        target_snr_db=5.0,
        reg_grid=[1.0],
        amp_grid=[0.5],
    )
    tuned_sim["params"].update(amp=2.0, n_antennas=60)
    return [
        base_config("saddle"),
        base_config(),
        rho2,
        free,
        tune_box,
        base_config(
            "tune-quant", target_snr_db=5.0, reg_grid=[1.0], amp_grid=[0.5]
        ),
        tuned_sim,
    ]


def test_saddle_json_to_stdout(tmp_path, capsys):
    path = write_config(tmp_path, base_config("saddle"))
    assert main(["run", "--config", path, "--format", "json"]) == 0
    doc = strict_loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    for col in ("tau", "beta", "alpha", "phi"):
        assert col in doc["columns"]
    row = doc["rows"][0]
    assert row["tau"] > 0.0 and row["beta"] > 0.0
    assert abs(row["residual_power"]) < 1e-9
    # Theory-only pipeline columns stay out of a saddle table.
    assert "box_ber" not in doc["columns"]


def test_emit_csv_shapes():
    buf = io.StringIO()
    emit_csv([], ("a", "b"), buf)
    assert buf.getvalue() == "a,b\n"
    buf = io.StringIO()
    emit_csv([{"a": 1.5, "b": None}], ("a", "b"), buf)
    assert buf.getvalue() == "a,b\n1.5,\n"


def test_csv_cells_round_trip_floats(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "t.csv"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    header, line = out.read_text().splitlines()
    cells = dict(zip(header.split(","), line.split(",")))
    cfg = parse_config(base_config())
    got = run(cfg).rows[0]
    assert float(cells["box_ber"]) == got["box_ber"]
    assert float(cells["tau"]) == got["tau"]


def test_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path, SIM)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", path, "--out", str(a)]) == 0
    assert main(["run", "--config", path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # Sidecars agree except for the destination path they record.
    ma = strict_loads((tmp_path / "a.csv.meta.json").read_text())
    mb = strict_loads((tmp_path / "b.csv.meta.json").read_text())
    ma["config"].pop("output"), mb["config"].pop("output")
    assert ma == mb


def test_sidecar_meta_contents(tmp_path):
    path = write_config(tmp_path, SIM)
    out = tmp_path / "r.csv"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    meta = strict_loads((tmp_path / "r.csv.meta.json").read_text())
    assert meta["generator"].startswith("boxprec ")
    assert meta["config"]["mode"] == "simulate"
    assert meta["n_rows"] == 2
    assert "emp_ber_box" in meta["column_semantics"]
    # Reproducible output: no clocks or hostnames in the sidecar.
    assert not any("time" in k or "host" in k for k in meta)
    env = meta["environment"]
    assert env["numpy"] == np.__version__
    # The W2 quantiles come from the standard library, not scipy.
    assert "scipy" not in env
    assert env["python"] == platform.python_version()
    assert not any("time" in k or "host" in k for k in env)


def test_seed_flag_moves_empirics_not_theory(tmp_path):
    path = write_config(tmp_path, SIM)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--config", path, "--out", str(a),
                 "--format", "json"]) == 0
    assert main(["run", "--config", path, "--out", str(b),
                 "--format", "json", "--seed", "99"]) == 0
    ra = strict_loads(a.read_text())["rows"]
    rb = strict_loads(b.read_text())["rows"]
    for x, y in zip(ra, rb):
        assert x["box_ber"] == y["box_ber"]
        assert x["tau"] == y["tau"]
        assert x["emp_base_seed"] != y["emp_base_seed"]
    assert any(x["emp_ber_box"] != y["emp_ber_box"] for x, y in zip(ra, rb))


def test_quant_columns_gated_on_unit_power(tmp_path, capsys):
    rho2 = base_config()
    rho2["params"]["target_power"] = 2.0
    path = write_config(tmp_path, rho2)
    assert main(["run", "--config", path, "--format", "json"]) == 0
    doc = strict_loads(capsys.readouterr().out)
    assert "box_ber" in doc["columns"]
    assert "quant_ber" not in doc["columns"]
    assert "buss_ber" not in doc["columns"]


def test_json_encodes_infinite_amp(tmp_path, capsys):
    free = base_config()
    free["params"]["amp"] = "inf"
    path = write_config(tmp_path, free)
    assert main(["run", "--config", path, "--format", "json"]) == 0
    doc = strict_loads(capsys.readouterr().out)
    assert doc["rows"][0]["amp"] == "inf"


# A NaN grid-trace entry (reg 0 is infeasible below user_ratio 1) and an
# infinite sweep value: every non-finite float is emitted as its repr.  The
# tune modes also run on their default grids; at reg 5e-324 beta
# underflows and the scalar path divides by zero, so that grid point is NaN
# and the objective the finite BER at reg 1.
NON_FINITE = {
    "tune-quant-nan-trace": base_config(
        "tune-quant", target_snr_db=5.0, reg_grid=[0.0, 1.0], amp_grid=[0.5, 1.0]
    ),
    "sweep-inf-amp": base_config(
        "sweep", sweep={"parameter": "amp", "values": [1.0, "inf"]}
    ),
    "tune-quant": base_config("tune-quant", target_snr_db=5.0),
    "tune-box": base_config("tune-box", target_snr_db=5.0),
    "tune-quant-div0": base_config(
        "tune-quant", target_snr_db=5.0, reg_grid=[5e-324, 1.0], amp_grid=[30.0]
    ),
}
NON_FINITE["tune-box"]["params"]["amp"] = 2.0
NON_FINITE["tune-quant-div0"]["params"]["user_ratio"] = 0.05


@pytest.mark.parametrize("name", NON_FINITE)
def test_emitted_json_is_strict(tmp_path, capsys, name):
    data = NON_FINITE[name]
    path = write_config(tmp_path, data)
    out = tmp_path / "t.csv"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    meta = strict_loads((tmp_path / "t.csv.meta.json").read_text())
    assert main(["run", "--config", path, "--format", "json"]) == 0
    doc = strict_loads(capsys.readouterr().out)
    for m in (meta, doc["meta"]):
        if name == "tune-quant-nan-trace":
            assert [ber for _, ber in m["grid_trace"]][:2] == ["nan", "nan"]
        elif name == "tune-quant-div0":
            assert [[5e-324, 30.0], "nan"] in m["grid_trace"]
        elif name == "sweep-inf-amp":
            assert m["config"]["sweep"]["values"] == [1.0, "inf"]
    if data["mode"].startswith("tune-"):
        assert meta["grid_trace"]
        assert verify_file(str(out), 1e-12) == []
        with out.open(newline="") as fh:
            row = next(csv.DictReader(fh))
        assert math.isfinite(float(row["objective_ber"]))
    # The sidecar's config block parses back to the config that ran.
    ran = replace(parse_config(json.dumps(data)), out_path=str(out))
    assert parse_config(json.dumps(meta["config"])) == ran


def test_tune_quant_smoke(tmp_path, capsys):
    cfg = base_config(
        "tune-quant",
        target_snr_db=5.0,
        reg_grid=[0.001, 1.0],
        amp_grid=[0.47287080450158786],
    )
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path, "--format", "json"]) == 0
    doc = strict_loads(capsys.readouterr().out)
    row = doc["rows"][0]
    assert row["pipeline"] == "quantized"
    assert row["reg"] == 0.001
    assert row["objective_ber"] == pytest.approx(0.0063948395462749318, rel=1e-9)
    assert len(doc["meta"]["grid_trace"]) == 2
    (key, ber) = doc["meta"]["grid_trace"][0]
    assert key == [0.001, 0.47287080450158786] and math.isfinite(ber)


def test_tuned_sweep_emits_pipeline_rows(tmp_path, capsys):
    cfg = base_config(
        "sweep",
        sweep={"parameter": "noise_var", "values": [0.05, 0.2]},
        tuned="both",
        target_snr_db=5.0,
        reg_grid=[1.0],
        amp_grid=[0.5],
    )
    cfg["params"]["amp"] = 2.0
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path, "--format", "json"]) == 0
    doc = strict_loads(capsys.readouterr().out)
    assert [r["pipeline"] for r in doc["rows"]] == [
        "box", "quantized", "box", "quantized",
    ]
    for r in doc["rows"]:
        if r["pipeline"] == "quantized":
            assert r["target_power"] == 1.0 and "quant_ber" in r


def test_preset_overlay_merges(tmp_path):
    overlay = {
        "params": {"n_antennas": 100},
        "sweep": {"parameter": "amp", "values": [0.5]},
        "trials": 2,
    }
    path = write_config(tmp_path, overlay)
    out = tmp_path / "o.csv"
    assert main(["run", "--preset", "fig3", "--config", path,
                 "--out", str(out)]) == 0
    meta = strict_loads((tmp_path / "o.csv.meta.json").read_text())
    cfg = meta["config"]
    assert meta["preset"] == "fig3"
    assert cfg["trials"] == 2
    assert cfg["params"]["n_antennas"] == 100
    assert cfg["params"]["reg"] == 0.001  # kept from the preset
    assert cfg["sweep"]["values"] == [0.5]


def test_verify_round_trip_and_corruption(tmp_path):
    path = write_config(tmp_path, SIM)
    out = tmp_path / "v.csv"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert verify_file(str(out)) == []
    assert main(["verify", "--in", str(out)]) == 0
    text = out.read_text()
    header = text.splitlines()[0].split(",")
    col = header.index("box_ber")
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[col] = repr(float(cells[col]) * 1.001)
    lines[1] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    problems = verify_file(str(out))
    assert len(problems) == 1 and "box_ber" in problems[0]
    assert main(["verify", "--in", str(out)]) == 1


def test_verify_honors_tolerance(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "w.csv"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    text = out.read_text()
    header, line = text.splitlines()
    cols = header.split(",")
    cells = line.split(",")
    i = cols.index("tau")
    cells[i] = repr(float(cells[i]) * (1.0 + 1e-9))
    out.write_text(header + "\n" + ",".join(cells) + "\n")
    assert main(["verify", "--in", str(out)]) == 1
    assert main(["verify", "--in", str(out), "--tol", "1e-6"]) == 0


@pytest.mark.parametrize(
    "tol, code", [("nan", 2), ("-1", 2), ("inf", 2), ("0", 0), ("1e-12", 0)]
)
def test_verify_rejects_invalid_tolerance(tmp_path, capsys, tol, code):
    # NaN would list every cell as a mismatch, a negative tolerance too,
    # and inf would pass any file.
    path = write_config(tmp_path, base_config())
    out = tmp_path / "t.csv"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", str(out), "--tol", tol]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert "config error: tol must be finite and nonnegative" in err
        with pytest.raises(ConfigError):
            verify_file(str(out), float(tol))
    else:
        assert err == ""
        assert verify_file(str(out), float(tol)) == []


def test_verify_reads_json_documents(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "d.json"
    assert main(["run", "--config", path, "--out", str(out),
                 "--format", "json"]) == 0
    assert main(["verify", "--in", str(out)]) == 0


def test_verify_rejects_tables_with_nothing_to_check(tmp_path, capsys):
    # Every emitted table carries saddle columns: a table with no theory
    # cell, or a JSON document whose rows are not objects, is not one.
    cases = {
        "header.csv": "user_ratio,reg,amp,level,noise_var,target_power,n_antennas,tau\n",
        "list.json": "[1,2]\n",
        "scalars.json": '{"rows": [1]}\n',
        "broken.json": '{"rows": [\n',
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert main(["verify", "--in", str(path)]) == 2, name
        assert "config error" in capsys.readouterr().err
    # A row without theory cells in an otherwise checkable table, or an
    # unreadable theory cell, is a mismatch rather than a crash.
    good = write_config(tmp_path, base_config())
    out = tmp_path / "t.json"
    assert main(["run", "--config", good, "--out", str(out), "--format", "json"]) == 0
    doc = strict_loads(out.read_text())
    doc["rows"].append({"tau": "x"})
    doc["rows"].append(dict(doc["rows"][0], tau=[1.0]))
    doc["rows"].append({})
    out.write_text(json.dumps(doc))
    problems = verify_file(str(out))
    assert len(problems) == 3
    assert "row 1: unreadable params" in problems[0]
    assert "row 2: tau unreadable" in problems[1]
    assert "row 3: no theory columns" in problems[2]


def test_exit_2_on_config_problems(tmp_path, capsys):
    assert main(["run"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1,', encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "fig9"])
    assert exc.value.code == 2
    # A negative seed, from the flag or the config, is a config error,
    # also in a mode that runs no trials.
    for data in (SIM, base_config()):
        path = write_config(tmp_path, data, "seeded.json")
        assert main(["run", "--config", path, "--seed", "-1"]) == 2
        assert "base_seed" in capsys.readouterr().err
    neg = write_config(tmp_path, dict(SIM, base_seed=-3), "neg.json")
    assert main(["run", "--config", neg]) == 2
    assert "base_seed" in capsys.readouterr().err
    # json.dumps writes the NaN literal, which json.loads reads back.
    nan = base_config("tune-box", target_snr_db=math.nan, reg_grid=[1.0])
    assert main(["run", "--config", write_config(tmp_path, nan, "nan.json")]) == 2
    assert "target_snr_db" in capsys.readouterr().err


@pytest.mark.parametrize("parameter, value", [("reg", 0.0), ("amp", -1.0)])
def test_invalid_sweep_value_names_its_point(tmp_path, capsys, parameter, value):
    # reg 0 needs user_ratio >= 1, and amp must be positive: SystemParams
    # refuses the second point's params themselves.
    data = base_config("sweep", sweep={"parameter": parameter, "values": [1.0, value]})
    assert main(["run", "--config", write_config(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: at sweep point 1 ({parameter}={value!r}): ")


@pytest.mark.parametrize("mode, amp", [("tune-quant", 1.0), ("tune-box", 2.0)])
@pytest.mark.parametrize("db", [4000.0, -4000.0])
def test_exit_2_on_out_of_range_snr(tmp_path, capsys, mode, amp, db):
    cfg = base_config(mode, target_snr_db=db)
    cfg["params"]["amp"] = amp
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    flow = "overflows" if db > 0 else "underflows"
    assert err == f"config error: at the configured point: transmit SNR {db!r} dB {flow}\n"


def _edge(mode, sweep=None, **params):
    """A config in ``mode``; with ``sweep = (parameter, values)`` a sweep
    tuned for the box pipeline, with no ``target_snr_db``."""
    data = base_config(mode)
    data["params"].update(params)
    if sweep is not None:
        parameter, values = sweep
        data.update(
            tuned="box", reg_grid=[1.0], sweep={"parameter": parameter, "values": values}
        )
    return data


@pytest.mark.parametrize(
    "data, code",
    [
        # A tuned sweep with no target_snr_db derives it from level and
        # noise_var, which can divide by zero, underflow or overflow.
        (_edge("sweep", ("noise_var", [0.0]), amp=2.0), 2),
        (_edge("sweep", ("level", [5e-324]), amp=2.0), 2),
        (_edge("sweep", ("level", [1e300]), amp=2.0), 2),
        # Saddle points that box_theory refuses, which verify need not ask for.
        (_edge("saddle", user_ratio=1e300, amp=2.0), 0),
        (_edge("saddle", reg=0.001, amp=1e-300), 0),
        # level^2 overflows the quantized distortion variance.
        (_edge("theory", level=1e300), 2),
    ],
    ids=["noise-var-0", "level-tiny", "level-huge", "saddle-ratio", "saddle-amp", "theory-level"],
)
def test_edge_configs_exit_cleanly(tmp_path, monkeypatch, capsys, data, code):
    monkeypatch.setenv("BOXPREC_WORKERS", "1")
    out = str(tmp_path / "out.csv")
    assert main(["run", "--config", write_config(tmp_path, data), "--out", out]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        assert main(["verify", "--in", out, "--tol", "1e-12"]) == 0
    else:
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("config error: at ")


def test_exit_3_on_infeasible_tuning(tmp_path, capsys):
    cfg = base_config("tune-box", target_snr_db=5.0, reg_grid=[1.0])
    cfg["params"]["amp"] = 0.5  # 5 dB needs power 0.285 > amp^2
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 3
    # Every mode runs the same per-point pipeline, so a single-point
    # failure names its point like a sweep point does.
    assert "solver error: at the configured point: " in capsys.readouterr().err


def test_exit_4_on_unwritable_output(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    missing = tmp_path / "no_such_dir" / "out.csv"
    assert main(["run", "--config", path, "--out", str(missing)]) == 4
    assert "io error" in capsys.readouterr().err
    assert main(["verify", "--in", str(tmp_path / "absent.csv")]) == 4


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "boxprec", "run"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_runs_and_verifies_without_scipy(tmp_path):
    # The library needs numpy alone: with scipy made unimportable, a
    # simulate run emits its table and verify passes on it.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import boxprec

    path = write_config(tmp_path, SIM)
    out = str(tmp_path / "s.csv")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from boxprec.cli import main\n"
        f"assert main(['run', '--config', {path!r}, '--out', {out!r}]) == 0\n"
        f"assert main(['verify', '--in', {out!r}, '--tol', '1e-12']) == 0\n"
    )
    src = str(Path(boxprec.__file__).parents[1])
    env = dict(os.environ, BOXPREC_WORKERS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(out).read_text().splitlines()[0] == SIM_HEADER


def test_exit_2_on_malformed_worker_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BOXPREC_WORKERS", "abc")
    path = write_config(tmp_path, SIM)
    assert main(["run", "--config", path]) == 2
    assert "BOXPREC_WORKERS" in capsys.readouterr().err


def test_every_column_is_documented(monkeypatch):
    # Rows are built from result dataclass fields, so a new field must
    # also get a COLUMN_DOC line or it would be dropped from the table.
    monkeypatch.setenv("BOXPREC_WORKERS", "1")
    emitted = set()
    for data in _mode_configs():
        result = run(parse_config(data))
        for row in result.rows:
            assert set(row) <= set(cli.COLUMN_DOC), data["mode"]
        emitted.update(result.columns)
    assert emitted == set(cli.COLUMN_DOC)
    assert "evaluations" not in emitted


def test_simulate_csv_header_is_frozen(monkeypatch):
    monkeypatch.setenv("BOXPREC_WORKERS", "1")
    result = run(parse_config(SIM))
    buf = io.StringIO()
    emit_csv(result.rows, result.columns, buf)
    assert buf.getvalue().splitlines()[0] == SIM_HEADER


def test_pooled_csv_is_independent_of_blas_threads(tmp_path):
    # fig3 size: the gram products and LAPACK solves of the box QP round
    # differently with 1 and 2 BLAS threads.  Box sizes >= 2.15 return the
    # ridge solution of one m x m solve; at 0.774 entries clip, so APG and
    # the active-set free-block solves run too.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import boxprec
    from boxprec.presets import preset_config

    data = preset_config("fig3")
    values = data["sweep"]["values"]
    assert values[4] == 0.774263682681127
    data["sweep"]["values"] = [values[4]] + [v for v in values if v >= 2.15][:3]
    data["trials"] = 2
    path = write_config(tmp_path, data)
    src = str(Path(boxprec.__file__).parents[1])
    base = {
        k: v for k, v in os.environ.items()
        if k not in ("BOXPREC_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")
    }
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))

    def csv_bytes(workers, blas_threads):
        out = tmp_path / f"w{workers}-b{blas_threads}.csv"
        env = dict(base, BOXPREC_WORKERS=str(workers),
                   OPENBLAS_NUM_THREADS=str(blas_threads),
                   OMP_NUM_THREADS=str(blas_threads))
        proc = subprocess.run(
            [sys.executable, "-m", "boxprec", "run", "--config", path,
             "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    serial = csv_bytes(1, 1)
    assert csv_bytes(2, 1) == serial
    assert csv_bytes(2, 2) == serial
    assert csv_bytes(1, 2) == serial


def _table(cfg) -> tuple[str, dict]:
    """A run's CSV text and meta."""
    result = run(cfg)
    buf = io.StringIO()
    emit_csv(result.rows, result.columns, buf)
    return buf.getvalue(), result.meta


# More users than antennas: no preset has m > n.  Every free block is
# tall, so each exact solve, the ridge start included, uses the block's own
# n_free x n_free gram; reg 0 is allowed since m > n.
SIM_TALL = base_config(
    "simulate",
    trials=6,
    base_seed=9,
    sweep={"parameter": "amp", "values": [0.3, 0.6, 1.2, 2.4]},
)
SIM_TALL["params"].update(user_ratio=1.5, reg=0.0, amp=0.3, n_antennas=100)


# 5 trials do not split evenly over 2 workers; fig4-left is tuned for
# both pipelines, so each of its points is two Monte Carlo jobs.  With
# one trial per point the run stays serial, as each point's call did.
@pytest.mark.parametrize(
    "source, trials, jobs",
    [
        ("fig3", 1, 10),
        ("fig3", 3, 10),
        ("fig3", 5, 10),
        ("fig4-left", 3, 14),
        pytest.param(SIM_TALL, 6, 4, id="sim-tall-6-4"),
    ],
)
def test_one_schedule_gives_the_per_point_bytes(
    tmp_path, monkeypatch, source, trials, jobs
):
    """``source`` is a preset name or a config dict."""
    preset = source if isinstance(source, str) else None
    data = dict(preset_config(preset) if preset else source, trials=trials)
    cfg = parse_config(data, preset=preset)
    monkeypatch.setenv("BOXPREC_WORKERS", "1")
    serial = _table(cfg)
    out = tmp_path / "t.csv"
    out.write_text(serial[0])
    assert verify_file(str(out), 1e-12) == []
    calls = []
    pooled = montecarlo._run_pooled

    def logged(chunks, nworkers):
        calls.append([task[1] for chunk in chunks for task in chunk])
        return pooled(chunks, nworkers)

    monkeypatch.setattr(montecarlo, "_run_pooled", logged)
    monkeypatch.setenv("BOXPREC_WORKERS", "2")
    assert _table(cfg) == serial
    if trials == 1:
        assert calls == []
        return
    # One pool schedule holds every trial of the run, in point order.
    points = len(cfg.sweep_values)
    assert calls == [[
        cfg.base_seed + j * trials + i
        for j in range(points)
        for _ in range(jobs // points)
        for i in range(trials)
    ]]


def _simulated_seeds(monkeypatch, bad_seed=None):
    """Log the seeds each serial trial solves and draws; fail one seed."""
    solved, drawn = [], []
    trial, draw = montecarlo._trial, montecarlo._draw
    generate = montecarlo.generate_realization

    def logged_trial(real, *args):
        solved.append(real.seed)
        if real.seed == bad_seed:
            raise SolverError("no convergence")
        return trial(real, *args)

    def logged_draw(params, seed, channel):
        drawn.append(seed)
        return draw(params, seed, channel)

    def logged_generate(params, seed):
        drawn.append(seed)
        return generate(params, seed)

    monkeypatch.setenv("BOXPREC_WORKERS", "1")
    monkeypatch.setattr(montecarlo, "_trial", logged_trial)
    monkeypatch.setattr(montecarlo, "_draw", logged_draw)
    monkeypatch.setattr(montecarlo, "generate_realization", logged_generate)
    return solved, drawn


@pytest.mark.parametrize("spare", [True, False])
def test_trial_error_names_its_point_after_the_earlier_points(
    tmp_path, monkeypatch, capsys, spare
):
    # Point j simulates seeds 17 + 3j ... 17 + 3j + 2; the second trial of
    # point 2 fails.
    monkeypatch.setattr(montecarlo, "_spare_cpu", lambda: spare)
    data = dict(SIM, sweep={"parameter": "amp", "values": [0.8, 1.6, 2.4, 3.2]})
    solved, drawn = _simulated_seeds(monkeypatch, bad_seed=24)
    assert main(["run", "--config", write_config(tmp_path, data)]) == 3
    err = capsys.readouterr().err
    assert err == "solver error: at sweep point 2 (amp=2.4): no convergence\n"
    assert solved == list(range(17, 25))
    # Point 2 may draw ahead; point 3 draws nothing.
    assert set(drawn) >= set(range(17, 25)) and max(drawn) < 26


@pytest.mark.parametrize("bad_seed, point", [(None, 2), (19, 1)])
def test_tuning_error_waits_for_the_earlier_points(
    tmp_path, monkeypatch, capsys, bad_seed, point
):
    # 5 dB needs power 0.285 > amp^2 at amp 0.5, so tuning fails at point
    # 2; it is the error only if the trials of points 0 and 1 succeed.
    data = base_config(
        "simulate",
        trials=2,
        base_seed=17,
        tuned="box",
        target_snr_db=5.0,
        reg_grid=[1.0],
        sweep={"parameter": "amp", "values": [2.0, 1.5, 0.5]},
    )
    data["params"]["n_antennas"] = 60
    solved, _ = _simulated_seeds(monkeypatch, bad_seed)
    assert main(["run", "--config", write_config(tmp_path, data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"solver error: at sweep point {point} (amp=")
    if bad_seed is None:
        assert solved == [17, 18, 19, 20]
    else:
        assert err.endswith(": no convergence\n")
        assert solved == [17, 18, 19]
