import json
import math

import pytest

from boxprec import ConfigError, parse_config, serialize_config
from boxprec.presets import preset_config, preset_names


def minimal(mode="theory", **extra):
    data = {
        "schema_version": 1,
        "mode": mode,
        "params": {"user_ratio": 0.2, "reg": 1.0, "amp": 1.0},
    }
    data.update(extra)
    return data


def test_round_trip_identity():
    cfg = parse_config(minimal(
        "sweep",
        sweep={"parameter": "noise_var", "values": [0.05, 0.1, 0.2]},
        trials=10,
        base_seed=7,
        tuned="both",
        target_snr_db=5.0,
        reg_grid=[0.1, 1.0],
        amp_grid=[0.3],
        output={"path": "out.csv", "format": "csv"},
    ))
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    # And the serialized form survives a JSON text round trip too.
    assert parse_config(json.dumps(serialize_config(cfg))) == cfg


def test_round_trip_preserves_infinite_amp():
    cfg = parse_config(minimal(params={"user_ratio": 0.2, "reg": 1.0, "amp": "inf"}))
    assert math.isinf(cfg.params.amp)
    blob = serialize_config(cfg)
    assert blob["params"]["amp"] == "inf"
    assert json.loads(json.dumps(blob))  # strict JSON, no bare Infinity
    assert math.isinf(parse_config(blob).params.amp)


def test_error_points_at_line():
    text = json.dumps(minimal("nonsense"), indent=2)
    lineno = next(
        i for i, line in enumerate(text.splitlines(), start=1) if '"mode"' in line
    )
    with pytest.raises(ConfigError, match=f"line {lineno}: mode must be one of"):
        parse_config(text)


def test_invalid_json_reports_line():
    with pytest.raises(ConfigError, match="line 2: invalid JSON"):
        parse_config('{\n  "mode": saddle\n}')


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config key 'extra'"):
        parse_config(minimal(extra=1))
    bad = minimal()
    bad["params"]["regg"] = 1.0
    with pytest.raises(ConfigError, match="unknown params key 'regg'"):
        parse_config(bad)


def test_schema_version_required():
    data = minimal()
    data["schema_version"] = 2
    with pytest.raises(ConfigError, match="schema_version must be 1"):
        parse_config(data)
    del data["schema_version"]
    with pytest.raises(ConfigError, match="schema_version must be 1"):
        parse_config(data)


def test_bools_are_not_numbers():
    bad = minimal()
    bad["params"]["reg"] = True
    with pytest.raises(ConfigError, match="reg: expected a number"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="trials: expected an integer"):
        parse_config(minimal(trials=True))


def test_non_numeric_strings_rejected():
    bad = minimal()
    bad["params"]["amp"] = "big"
    with pytest.raises(ConfigError, match="amp: non-numeric string 'big'"):
        parse_config(bad)


def test_nan_huge_and_infinite_snr_rejected():
    # json.loads accepts the NaN and Infinity literals.
    text = json.dumps(minimal(params={"user_ratio": 0.2, "reg": math.nan, "amp": 1.0}))
    assert "NaN" in text
    with pytest.raises(ConfigError, match="reg: expected a number, got NaN"):
        parse_config(text)
    with pytest.raises(ConfigError, match="reg_grid: expected a number, got NaN"):
        parse_config(json.dumps(minimal(
            "tune-box", target_snr_db=5.0, reg_grid=[1.0, math.nan]
        )))
    with pytest.raises(ConfigError, match="values: expected a number, got NaN"):
        parse_config(json.dumps(minimal(
            "sweep", sweep={"parameter": "noise_var", "values": [math.nan]}
        )))
    for snr in (math.nan, math.inf, -math.inf, "inf"):
        with pytest.raises(ConfigError, match="target_snr_db"):
            parse_config(json.dumps(minimal("tune-box", target_snr_db=snr)))
    huge = minimal()
    huge["params"]["reg"] = 10**400
    with pytest.raises(ConfigError, match="reg: integer too large for a float"):
        parse_config(json.dumps(huge))


def test_domain_errors_become_config_errors():
    bad = minimal()
    bad["params"]["user_ratio"] = -0.5
    with pytest.raises(ConfigError, match="invalid params"):
        parse_config(bad)
    incomplete = minimal()
    del incomplete["params"]["reg"]
    with pytest.raises(ConfigError, match="incomplete params"):
        parse_config(incomplete)


def test_cross_field_rules():
    with pytest.raises(ConfigError, match="sweep mode requires a sweep block"):
        parse_config(minimal("sweep"))
    with pytest.raises(ConfigError, match="simulate mode requires trials"):
        parse_config(minimal("simulate"))
    with pytest.raises(ConfigError, match="theory mode takes no sweep block"):
        parse_config(minimal(
            "theory", sweep={"parameter": "amp", "values": [1.0]}
        ))
    with pytest.raises(ConfigError, match="tuned applies only to sweep/simulate"):
        parse_config(minimal("theory", tuned="box"))
    with pytest.raises(ConfigError, match="tune-box mode requires target_snr_db"):
        parse_config(minimal("tune-box"))
    with pytest.raises(ConfigError, match="would overwrite the\\s+swept level"):
        parse_config(minimal(
            "sweep",
            sweep={"parameter": "level", "values": [0.5, 1.0]},
            tuned="quantized",
            target_snr_db=5.0,
        ))
    with pytest.raises(ConfigError, match="base_seed must be nonnegative"):
        parse_config(minimal("simulate", trials=2, base_seed=-3))
    three = {"parameter": "noise_var", "values": [0.05, 0.1, 0.2]}
    for mode in ("tune-box", "tune-quant"):
        with pytest.raises(ConfigError, match=f"{mode} mode takes no sweep block"):
            parse_config(minimal(mode, target_snr_db=5.0, sweep=three))
    tuner_sets = {
        "box": ("reg", "target_power"),
        "quantized": ("reg", "amp", "target_power"),
        "both": ("reg", "amp", "target_power"),
    }
    for tuned, names in tuner_sets.items():
        for name in names:
            with pytest.raises(ConfigError, match=f"cannot sweep {name}"):
                parse_config(minimal(
                    "sweep",
                    sweep={"parameter": name, "values": [0.5, 1.0, 2.0]},
                    tuned=tuned,
                    target_snr_db=5.0,
                ))
    # The parameters a tuner leaves alone still sweep.
    cfg = parse_config(minimal(
        "sweep",
        sweep={"parameter": "amp", "values": [0.5, 1.0]},
        tuned="box",
        target_snr_db=5.0,
    ))
    assert cfg.sweep_parameter == "amp"


def test_tuned_sweep_needs_noise_for_snr():
    data = minimal(
        "sweep",
        sweep={"parameter": "amp", "values": [1.0]},
        tuned="box",
    )
    data["params"]["noise_var"] = 0.0
    with pytest.raises(ConfigError, match="noise_var > 0"):
        parse_config(data)


def test_sweep_validation():
    with pytest.raises(ConfigError, match="sweep parameter must be one of"):
        parse_config(minimal(
            "sweep", sweep={"parameter": "zeta", "values": [1.0]}
        ))
    with pytest.raises(ConfigError, match="values must be a nonempty list"):
        parse_config(minimal("sweep", sweep={"parameter": "amp", "values": []}))
    with pytest.raises(ConfigError, match="sweep must be an object"):
        parse_config(minimal("sweep", sweep={"parameter": "amp", "steps": 3}))


def test_output_validation():
    with pytest.raises(ConfigError, match="output format must be csv or json"):
        parse_config(minimal(output={"format": "yaml"}))
    with pytest.raises(ConfigError, match="output path must be a string"):
        parse_config(minimal(output={"path": 3}))
    cfg = parse_config(minimal(output={"format": "json"}))
    assert cfg.out_format == "json" and cfg.out_path is None


def test_n_antennas_sweep_stays_integer():
    cfg = parse_config(minimal(
        "sweep", sweep={"parameter": "n_antennas", "values": [100, 200]}
    ))
    assert cfg.sweep_values == (100, 200)
    assert all(isinstance(v, int) for v in cfg.sweep_values)
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config(minimal(
            "sweep", sweep={"parameter": "n_antennas", "values": [100.5]}
        ))


def test_all_presets_parse():
    names = preset_names()
    assert len(names) == 5
    for name in names:
        cfg = parse_config(preset_config(name), preset=name)
        assert cfg.preset == name
        assert cfg.mode in ("sweep", "simulate")
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_config("fig9")
