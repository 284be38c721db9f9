"""Benchmark for boxprec: one command per workload, run from the repo root.

    python3 bench/run.py --workload theory-tune --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --compare A.json B.json

A run times the set-up of fresh interpreters (import plus one warm-up
call), then runs the workload in one more fresh interpreter whose
environment has the library's worker and BLAS thread variables removed.
It prints every metric by name and unit, one per line, and as its last
line one JSON object with the metrics ``BENCHMARK.json`` lists for the
mode (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
It exits 1 when any call fails or any check does not hold, and 2 when
the checkout has no library to run.

Everything a run writes stays under ``.bench_out/`` in the checkout: the
result with its environment fingerprint in ``results/``, the spans of a
traced run in ``spans/``, the exact counts of traced runs in ``counts/``
(a later traced run on the same seed, code and fingerprint must repeat
them), and the workload's outputs in a temporary directory under
``tmp/`` that is removed at the end.  ``--compare`` prints two results
side by side and refuses when their fingerprints differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from fingerprint import THREAD_VARS, fingerprint_id  # noqa: E402
from refclock import kernel_seconds, to_reference  # noqa: E402

WORKLOADS = ("theory-tune", "mc-serial", "cli-fig3")
# Later gain claims must also hold on this seed, which is kept out of the
# runs made while a change is written.
HOLDOUT_SEED = 104729
SETUP_PROBES = 5
# The runner's own limit; a run must end within 180 s.
RUN_LIMIT_S = 170.0
# Variables the workload process runs without, so that every commit is
# measured under the library's own defaults.
STRIPPED = THREAD_VARS[:4]


def _hermetic_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _code_id(root: str) -> str:
    h = hashlib.sha256()
    for top in (os.path.join(root, "src", "boxprec"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def _workload_cmd(workload: str, *extra: str) -> list[str]:
    return [sys.executable, os.path.join(BENCH_DIR, "workload.py"),
            "--workload", workload, *extra]


def _probe_setup(workload: str, env: dict, deadline: float) -> float:
    """Seconds from launching a fresh interpreter until it is warm."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(_workload_cmd(workload, "--probe"), env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe ended with {rc} before it was ready")
    return elapsed


def _run_workload(cmd: list[str], env: dict, deadline: float) -> int:
    """Run the workload process; on overrun kill it with its pool workers."""
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def _check_counts(result: dict, out_dir: str, code_id: str) -> list[str]:
    """Exact counts must agree across traced passes and traced runs."""
    counts = result["counts"]
    problems = [
        f"traced pass {i + 1} counts {c} differ from pass 1 {counts[0]}"
        for i, c in enumerate(counts[1:], start=1) if c != counts[0]
    ]
    key = f"{result['workload']}-seed{result['seed']}-{result['fingerprint_id']}-{code_id}"
    path = os.path.join(out_dir, "counts", key + ".json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier != counts[0]:
            problems.append(f"counts {counts[0]} differ from an earlier run's {earlier}")
    elif result["failed"] == 0 and not problems:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".part", "w", encoding="utf-8") as fh:
            json.dump(counts[0], fh, indent=1, sort_keys=True)
        os.replace(path + ".part", path)
    return problems


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:44s} {value!r:>24} {unit:6s} {note}".rstrip())


def _report(result: dict, spec: dict) -> dict:
    """Print the result for people; return the metrics for the last line."""
    fp = result["fingerprint"]
    print(f"boxprec benchmark: workload {result['workload']}, seed {result['seed']} "
          f"(hold-out seed {HOLDOUT_SEED}), trace {result['trace']}")
    print(f"  library {result['library']}")
    print(f"  fingerprint {result['fingerprint_id']}: nproc {fp['nproc']}, "
          f"{fp['numpy_blas']['config']}, numpy {fp['numpy']}, scipy {fp['scipy']}, "
          f"python {fp['python']}, workers {fp['workers']}, "
          f"thread env {fp['thread_env'] or 'none'}")
    failed_frac = result["failed"] / max(1, result["attempted"])
    if result["trace"]:
        print(f"per-layer metrics ({result['traced_passes']} traced passes, "
              f"{result['passes']} unrecorded):")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: {"value": result["layers"][k], "unit": units[k]} for k in units}
        for k, m in metrics.items():
            _print_metric(k, m["value"], m["unit"])
    else:
        print(f"end-to-end metrics ({result['passes']} passes):")
        for k, m in result["metrics"].items():
            note = f"(n={m['samples']})" if m.get("samples") else ""
            _print_metric(k, m["value"], m["unit"], note)
        metrics = {
            m["name"]: {k: result["metrics"][m["name"]][k] for k in ("value", "unit")}
            for m in spec["end_to_end"]
        }
    _print_metric("failed_frac", failed_frac, "1",
                  f"({result['failed']} of {result['attempted']} calls)")
    for line in result["problems"]:
        print(f"  FAILED {line}")
    return metrics


def _compare(paths: list[str]) -> int:
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    a, b = docs
    if a["fingerprint"] != b["fingerprint"]:
        print(f"refusing to compare: fingerprints differ "
              f"({a['fingerprint_id']} vs {b['fingerprint_id']})", file=sys.stderr)
        for k in sorted(set(a["fingerprint"]) | set(b["fingerprint"])):
            if a["fingerprint"].get(k) != b["fingerprint"].get(k):
                print(f"  {k}: {a['fingerprint'].get(k)!r} vs {b['fingerprint'].get(k)!r}",
                      file=sys.stderr)
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("refusing to compare: different workloads or modes", file=sys.stderr)
        return 3
    key = "layers" if a["trace"] else "metrics"
    print(f"{a['workload']} (fingerprint {a['fingerprint_id']}): "
          f"seed {a['seed']} vs seed {b['seed']}")
    for name in a[key]:
        va, vb = a[key][name], b[key].get(name)
        if not a["trace"]:
            va, vb = va["value"], (vb or {}).get("value")
        ratio = f"{vb / va:.4f}" if isinstance(vb, (int, float)) and va else "-"
        print(f"  {name:44s} {va!r:>24} {vb!r:>24}  b/a {ratio}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="boxprec benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar="RESULT")
    args = ap.parse_args(argv)
    if args.compare:
        return _compare(args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    deadline = time.perf_counter() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "boxprec", "__init__.py")):
        print(f"error: no library at {os.path.join(root, 'src', 'boxprec')}; "
              "run from the root of a boxprec checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out_dir = os.path.join(root, ".bench_out")
    for sub in ("results", "spans", "tmp"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    env = _hermetic_env(root)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    tmp = tempfile.mkdtemp(prefix=stem + "-", dir=os.path.join(out_dir, "tmp"))
    try:
        setup = [] if args.trace else [
            (_probe_setup(args.workload, env, deadline), kernel_seconds())
            for _ in range(SETUP_PROBES)
        ]
        result_path = os.path.join(tmp, "result.json")
        spans_path = os.path.join(out_dir, "spans", stem + ".jsonl")
        cmd = _workload_cmd(
            args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--tmp", tmp, "--result", result_path,
            "--spans", spans_path,
        )
        rc = _run_workload(cmd, env, deadline)
        if rc != 0:
            print(f"error: workload process exited with {rc}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if os.path.realpath(result["library"]) != os.path.realpath(
        os.path.join(root, "src", "boxprec")
    ):
        result["attempted"] += 1
        result["failed"] += 1
        result["problems"].append(f"measured {result['library']}, not the checkout's library")
    result["fingerprint_id"] = fingerprint_id(result["fingerprint"])
    result["code_id"] = _code_id(root)
    result["holdout_seed"] = HOLDOUT_SEED
    if args.trace:
        problems = _check_counts(result, out_dir, result["code_id"])
        result["attempted"] += 1
        if problems:
            result["failed"] += 1
            result["problems"] += problems
    else:
        result["metrics"]["setup_s"] = {
            "value": to_reference(setup), "unit": "s", "samples": len(setup),
        }
        result["metrics"]["setup_raw_s"] = {
            "value": statistics.median(s for s, _ in setup), "unit": "s",
            "samples": len(setup),
        }
    with open(os.path.join(out_dir, "results", stem + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    metrics = _report(result, spec)
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
