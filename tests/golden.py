"""Golden SHA-256 digests of the presets' output, per environment.

``golden.json`` holds, per preset and for each environment that has
recorded one, the digest of the preset's CSV and of its sidecar without
``config.output.path`` (the only field that depends on where the file was
written).  An environment is the sidecar's ``environment`` block plus the
name of the CPU kernel set that numpy's bundled OpenBLAS picked at load
time, which the sidecar does not record but which can change the floats.

    python tests/golden.py [PRESET ...]           # run, compare with the entries
    python tests/golden.py --in DIR [PRESET ...]  # compare DIR/PRESET.csv as written
    python tests/golden.py --update [PRESET ...]  # run, write this environment's entries

The presets default to all five.  A digest that differs from its entry
fails (exit 1); an environment with no entry prints its key and digests,
which is not a failure.  Run with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from boxprec.cli import main as boxprec_main
from boxprec.montecarlo import _openblas
from boxprec.presets import preset_names

GOLDEN = Path(__file__).with_name("golden.json")


def blas_core() -> str | None:
    """The OpenBLAS core name numpy's BLAS runs on, or None if unknown."""
    try:
        corename = _openblas().scipy_openblas_get_corename64_
    except AttributeError:  # no such symbol, or no library (None)
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    name = corename()
    return None if name is None else name.decode()


def _sidecar(csv_path: Path) -> dict:
    return json.loads(Path(f"{csv_path}.meta.json").read_text(encoding="utf-8"))


def environment_key(csv_path: Path) -> dict:
    """The key of ``csv_path``'s entry: its environment and the BLAS core."""
    return {"environment": _sidecar(csv_path)["environment"], "blas_core": blas_core()}


def digests(csv_path: Path) -> dict:
    """SHA-256 of the CSV's bytes and of its sidecar without the output path.

    The sidecar is hashed as the CLI writes it (two-space indent, sorted
    keys, a final newline) once ``config.output.path`` is dropped.
    """
    meta = _sidecar(csv_path)
    del meta["config"]["output"]["path"]
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    return {
        "csv_sha256": hashlib.sha256(Path(csv_path).read_bytes()).hexdigest(),
        "meta_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def entry_for(preset: str, key: dict) -> dict | None:
    """The recorded entry of ``preset`` for ``key``, or None if there is none."""
    entries = json.loads(GOLDEN.read_text(encoding="utf-8")).get(preset, [])
    return next((e for e in entries if e["key"] == key), None)


def mismatches(entry: dict, csv_path: Path) -> list[str]:
    """The digests of ``csv_path`` that differ from ``entry``'s."""
    return [
        f"{name}: recorded {entry[name]} got {value}"
        for name, value in digests(csv_path).items()
        if entry[name] != value
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("presets", nargs="*", metavar="PRESET")
    parser.add_argument("--in", dest="in_dir", metavar="DIR", help="compare DIR/PRESET.csv")
    parser.add_argument("--update", action="store_true", help="write this environment's entries")
    args = parser.parse_args(argv)
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.presets or preset_names():
            out = Path(args.in_dir or tmp) / f"{name}.csv"
            if args.in_dir is None and boxprec_main(["run", "--preset", name, "--out", str(out)]):
                raise SystemExit(f"boxprec run --preset {name} failed")
            key = environment_key(out)
            shown = json.dumps(key, sort_keys=True)
            if args.update:
                others = [e for e in data.get(name, []) if e["key"] != key]
                data[name] = others + [{"key": key, **digests(out)}]
                print(f"{name}: wrote the entry for {shown}")
            elif (entry := entry_for(name, key)) is None:
                print(f"{name}: no entry for {shown}; got {json.dumps(digests(out))}")
            else:
                problems = mismatches(entry, out)
                for line in problems or ["matches the recorded digests"]:
                    print(f"{name}: {line}")
                failed = failed or bool(problems)
    if args.update:
        GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
