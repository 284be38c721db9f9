"""Drive the command-line interface end to end from Python.

Shows the three ways to launch a run (inline config, built-in preset,
preset plus overlay), what the emitted CSV and JSON look like, and the
verify subcommand re-deriving every theory column from the parameter
columns.  Everything lands in a temporary directory, removed at the end.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def boxprec(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "boxprec", *argv],
        capture_output=True,
        text=True,
    )
    print(f"$ boxprec {' '.join(argv)}  -> exit {proc.returncode}")
    if proc.stderr:
        print(proc.stderr.rstrip())
    return proc


def main():
    with tempfile.TemporaryDirectory(prefix="boxprec_tour_") as name:
        tour(Path(name))


def tour(tmp):
    print(f"working in {tmp}\n")

    # 1. A saddle-only run straight to stdout as JSON.
    cfg = {
        "schema_version": 1,
        "mode": "saddle",
        "params": {"user_ratio": 0.2, "reg": 1.0, "amp": 1.0, "noise_var": 0.09},
    }
    cfg_path = tmp / "saddle.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    proc = boxprec("run", "--config", str(cfg_path), "--format", "json")
    doc = json.loads(proc.stdout)
    row = doc["rows"][0]
    print(f"  tau={row['tau']:.6f} beta={row['beta']:.6f} phi={row['phi']:.6f}\n")

    # 2. A built-in preset, shrunk with an overlay so the tour stays quick:
    #    two box sizes, five trials, 200 antennas.
    overlay = {
        "params": {"n_antennas": 200},
        "sweep": {"parameter": "amp", "values": [0.3, 1.0]},
        "trials": 5,
    }
    ov_path = tmp / "overlay.json"
    ov_path.write_text(json.dumps(overlay))
    out_csv = tmp / "mini_fig3.csv"
    boxprec("run", "--preset", "fig3", "--config", str(ov_path),
            "--out", str(out_csv))
    lines = out_csv.read_text().splitlines()
    print(f"  wrote {out_csv.name}: {len(lines) - 1} rows")
    header = lines[0].split(",")
    for name in ("amp", "quant_ber", "emp_ber_quant"):
        i = header.index(name)
        print(f"    {name:>14}: " + "  ".join(l.split(",")[i] for l in lines[1:]))
    meta = json.loads((tmp / "mini_fig3.csv.meta.json").read_text())
    print(f"  sidecar meta: {meta['n_rows']} rows from preset "
          f"{meta['preset']!r}, generator {meta['generator']!r}\n")

    # 3. The verify subcommand recomputes each theory column from the
    #    parameter columns; corrupt one cell and it objects with exit 1.
    proc = boxprec("verify", "--in", str(out_csv))
    print(proc.stdout.rstrip() + "\n")
    cells = lines[1].split(",")
    i = header.index("quant_ber")
    cells[i] = str(float(cells[i]) * 1.01)
    bad = tmp / "tampered.csv"
    bad.write_text(lines[0] + "\n" + ",".join(cells) + "\n")
    boxprec("verify", "--in", str(bad))
    print()

    # 4. Exit codes are part of the interface: 2 for config mistakes, 3 for
    #    infeasible solves, 4 for I/O problems.
    broken = tmp / "broken.json"
    broken.write_text('{"schema_version": 1,')
    boxprec("run", "--config", str(broken))
    boxprec("run", "--config", str(tmp / "missing.json"))
    #    A simulate sweep tuned to 5 dB: the last box size, 0.5, cannot carry
    #    the power that needs.  Every row is built before the first trial,
    #    so the run exits 3 naming that point, and the 50 trials of each
    #    earlier point never run.
    late = dict(cfg, mode="simulate", trials=50, tuned="box",
                target_snr_db=5.0, reg_grid=[1.0],
                sweep={"parameter": "amp", "values": [2.0, 1.0, 0.5]})
    late["params"] = dict(cfg["params"], n_antennas=1000)
    late_path = tmp / "late.json"
    late_path.write_text(json.dumps(late))
    boxprec("run", "--config", str(late_path))


if __name__ == "__main__":
    main()
