"""Golden SHA-256 digests of the fig3 preset's output, per environment.

``golden.json`` holds, for each environment that has recorded one, the
digest of fig3's CSV and of its sidecar without ``config.output.path``
(the only field that depends on where the file was written).  An
environment is the sidecar's ``environment`` block plus the name of the
CPU kernel set that numpy's bundled OpenBLAS picked at load time, which
the sidecar does not record but which can change the floats.

    python tests/golden.py            # run fig3, compare with the entry
    python tests/golden.py --update   # run fig3, write this environment's entry

Run from the root of a checkout with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden.json")


def blas_core() -> str | None:
    """The OpenBLAS core name numpy's BLAS runs on, or None if unknown.

    As in ``boxprec.montecarlo``, ``dlsym`` on numpy's linalg extension
    also finds the symbols of the OpenBLAS that numpy's wheels bundle.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        corename = lib.scipy_openblas_get_corename64_
    except (OSError, AttributeError):
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


def entry_for(key: dict) -> dict | None:
    """The recorded fig3 entry for ``key``, or None if there is none."""
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))["fig3"]
    return next((e for e in entries if e["key"] == key), None)


def mismatches(entry: dict, csv_path: Path) -> list[str]:
    """The digests of ``csv_path`` that differ from ``entry``'s."""
    got = digests(csv_path)
    return [
        f"{name}: recorded {entry[name]} got {value}"
        for name, value in got.items()
        if entry[name] != value
    ]


def main(argv=None) -> int:
    from boxprec.cli import main as boxprec_main

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--update", action="store_true", help="write this environment's entry"
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "fig3.csv"
        if boxprec_main(["run", "--preset", "fig3", "--out", str(out)]) != 0:
            raise SystemExit("boxprec run --preset fig3 failed")
        key = environment_key(out)
        if args.update:
            data = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
            entries = [e for e in data.get("fig3", []) if e["key"] != key]
            data["fig3"] = entries + [{"key": key, **digests(out)}]
            GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
            print(f"fig3: wrote the entry for {json.dumps(key, sort_keys=True)}")
            return 0
        entry = entry_for(key)
        if entry is None:
            print(f"fig3: no entry for {json.dumps(key, sort_keys=True)}")
            return 1
        problems = mismatches(entry, out)
        for line in problems:
            print(f"fig3: {line}")
        if not problems:
            print("fig3: matches the recorded digests")
        return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
