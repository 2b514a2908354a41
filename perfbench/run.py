"""The repository's benchmark: one workload, measured end to end or per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report-2d-cold --seed 0 \\
        --seconds 5 --trace 0

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` makes an untraced and a traced pass
and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Workloads, metrics and the layer map are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work" / str(os.getpid())
OUT = HERE / "out"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Threads for numpy's native libraries (at most the 2 cores measured on).
THREADS = "1"

#: Imported by the set-up probe: what any use of the program loads first.
IMPORT_PROBE = "import repro.engine.cli, repro.experiments"


def _isolate_environment() -> None:
    """Pin native thread pools and drop every ``REPRO_*`` override.

    Runs before numpy is imported; pass processes inherit it.  The
    program's default store lives in the user's home, so it is pointed
    into the work directory: nothing is written outside the checkout.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREADS
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "default-store")
    sys.path.insert(0, str(SRC))


def _drift_record() -> dict:
    """Machine state beside each run: calibration time, load, cores, CPU."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.random((192, 192))
    start = time.perf_counter()
    acc = 0.0
    for _ in range(300):
        b = np.sort(a, axis=1)
        acc += float((b @ a).trace()) + float(np.cumsum(b).sum())
    calib_s = time.perf_counter() - start
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except (OSError, ValueError):
        load = list(os.getloadavg())
    return {"calib_s": calib_s, "loadavg": load, "nproc": os.cpu_count(),
            "cpu_model": cpu, "calib_checksum": acc}


def _fresh_dir(tag: str) -> Path:
    path = WORK / f"{tag}-{time.perf_counter_ns()}"
    path.mkdir(parents=True)
    return path


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _steal_seconds() -> float:
    """Machine-wide CPU time stolen by the hypervisor since boot."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _setup(workload) -> tuple[float, Path]:
    """One set-up: the import probe, then the workload's own preparation.

    Returns the seconds it took and the store directory it left.
    """
    from repro.engine import ResultStore

    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                   cwd=str(ROOT), env=dict(os.environ, PYTHONPATH=str(SRC)))
    template = _fresh_dir("template")
    if workload.prepare is not None:
        workload.prepare(ResultStore(template))
    return time.perf_counter() - start, template


def _pass_in_child(workload_name: str, root: str, seed: int,
                   traced: bool) -> dict:
    """One timed pass, run in a fresh interpreter so every pass is cold."""
    from repro.engine import ResultStore
    from repro.engine.store import read_cache_stats
    from repro.geometry import pair_index_counters
    from tracing import SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    store = ResultStore(root)
    recorder = SpanRecorder() if traced else None
    if recorder is not None:
        recorder.install()
    try:
        cpu_before = _cpu_seconds()
        start = time.perf_counter()
        out = workload.run(store, seed)
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu_before
    finally:
        if recorder is not None:
            recorder.remove()
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "outputs": out,
        "pair_counters": pair_index_counters().as_dict(),
        "read_cache": read_cache_stats(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "trace": None if recorder is None else recorder.summary(),
    }


def _run_child(workload_name: str, root: Path, seed: int,
               traced: bool) -> dict:
    """Run :func:`_pass_in_child` in a fresh interpreter and wait for it.

    The child is a plain ``subprocess`` (no multiprocessing helper
    processes), so nothing it or the parent started outlives the pass.
    """
    job = root.with_name(root.name + ".pass.pkl")
    cmd = [sys.executable, str(HERE / "run.py"), "--child", workload_name,
           str(root), str(seed), str(int(traced)), str(job)]
    try:
        subprocess.run(cmd, check=True, cwd=str(ROOT))
        with open(job, "rb") as fh:
            return pickle.load(fh)
    finally:
        job.unlink(missing_ok=True)


def _child_main(argv: list[str]) -> int:
    """Entry point of the pass interpreter (``run.py --child ...``).

    The environment is inherited from the parent, which already
    isolated it; only the import path is set here.
    """
    workload_name, root, seed, traced, job = argv
    sys.path.insert(0, str(SRC))
    result = _pass_in_child(workload_name, root, int(seed), bool(int(traced)))
    with open(job, "wb") as fh:
        pickle.dump(result, fh)
    return 0


def _timed_pass(workload, template: Path, seed: int, reference: dict,
                traced: bool = False) -> dict:
    """Copy the set-up store, run one pass, check its outputs."""
    from repro.engine import ResultStore
    from workloads import PAIR_COUNTERS, compare, digests, output_checks

    root = _fresh_dir("store")
    shutil.copytree(template, root, dirs_exist_ok=True)
    bytes_before = _tree_bytes(root)
    steal_before = _steal_seconds()
    result = _run_child(workload.name, root, seed, traced)
    result["steal_s"] = _steal_seconds() - steal_before
    result["bytes_written"] = _tree_bytes(root) - bytes_before
    out = result.pop("outputs")
    pairs = {name: result["pair_counters"][name] for name in PAIR_COUNTERS}
    store = ResultStore(root)
    doc = dict(digests(store, out), pair_counters=pairs)
    result["operations"] = len(out.specs)
    result["checks"] = output_checks(workload, store, out, doc, reference)
    result["checks"].append(compare("pair-kernel counters", pairs,
                                    reference.get("pair_counters")))
    if traced:
        result["checks"].append(compare("structural counts",
                                        result["trace"]["counts"],
                                        reference.get("counts")))
    result["digests"] = doc
    shutil.rmtree(root, ignore_errors=True)
    return result


def _untraced(workload, seed: int, seconds: float, reference: dict) -> dict:
    setups = [_setup(workload) for _ in range(SETUP_REPEATS)]
    template = setups[-1][1]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(_timed_pass(workload, template, seed, reference))
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return {"metrics": metrics, "passes": passes,
            "setups_s": [s for s, _ in setups]}


def _recorded_wall(workload_name: str, inputs: str) -> float | None:
    """Median ``wall_s`` of the last untraced runs recorded for these
    inputs in ``out/runs.jsonl``, or ``None`` when there are none."""
    try:
        lines = (OUT / "runs.jsonl").read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return None
    walls = []
    for line in lines:
        record = json.loads(line)
        if (record.get("workload") == workload_name and record["trace"] == 0
                and record.get("inputs") == inputs and record["failed"] == 0):
            walls.append(record["metrics"]["wall_s"])
    return statistics.median(walls[-10:]) if walls else None


def _traced(workload, seed: int, reference: dict, inputs: str) -> dict:
    """Set up once and make a traced pass.  The untraced baseline is the
    recorded untraced runs of the same inputs, else an untraced pass."""
    from tracing import layer_metrics

    _, template = _setup(workload)
    passes = []
    untraced_wall = _recorded_wall(workload.name, inputs)
    if untraced_wall is None:
        passes.append(_timed_pass(workload, template, seed, reference))
        untraced_wall = passes[0]["wall_s"]
    traced = _timed_pass(workload, template, seed, reference, traced=True)
    passes.append(traced)
    metrics = layer_metrics(traced["trace"], traced, untraced_wall)
    return {"metrics": metrics, "passes": passes, "trace": traced["trace"]}


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            references: dict) -> dict:
    """One benchmark run; returns metrics, passes (with checks), records."""
    from workloads import WORKLOADS, seed_label

    workload = WORKLOADS[workload_name]
    inputs = seed_label(workload.inputs_seed(seed))
    reference = references.get(workload.name, {}).get(inputs, {})
    drift = _drift_record()
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            result = _traced(workload, seed, reference, inputs)
        else:
            result = _untraced(workload, seed, seconds, reference)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    result["drift"] = drift
    result["inputs"] = inputs
    checks = [c for p in result["passes"] for c in p["checks"]]
    result["checks"] = checks
    result["attempted"] = (sum(p["operations"] for p in result["passes"])
                           + len(checks))
    result["failed"] = sum(not c.ok for c in checks)
    if trace:
        result["metrics"].update({
            "bench.calib_s": (drift["calib_s"], "s"),
            "bench.loadavg_1m": (drift["loadavg"][0], "load"),
            "bench.nproc": (drift["nproc"], "count"),
            "bench.error_rate": (result["failed"] / result["attempted"],
                                 "fraction"),
        })
    return result


def load_references() -> dict:
    path = HERE / "references.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def _write_record(args, result: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": result["inputs"],
        "seconds": args.seconds, "time": time.time(), "drift": result["drift"],
        "metrics": {k: v for k, (v, _) in result["metrics"].items()},
        "walls_s": [p["wall_s"] for p in result["passes"]],
        "cpus_s": [p["cpu_s"] for p in result["passes"]],
        "steals_s": [p["steal_s"] for p in result["passes"]],
        "setups_s": result.get("setups_s"),
        "attempted": result["attempted"], "failed": result["failed"],
        "failures": [f"{c.name}: {c.detail}" for c in result["checks"]
                     if not c.ok],
    }
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if result.get("trace") is not None:
        doc = dict(result["trace"], record=record)
        path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        path.write_text(json.dumps(doc), encoding="utf-8")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return _child_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    _isolate_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     load_references())
    _write_record(args, result)
    drift = result["drift"]
    print(f"drift: calib_s={drift['calib_s']:.4f} "
          f"loadavg={drift['loadavg']} nproc={drift['nproc']} "
          f"cpu={drift['cpu_model']!r}")
    for check in result["checks"]:
        if not check.ok:
            print(f"FAILED {check.name}: {check.detail}")
    print(f"error_rate: {result['failed']}/{result['attempted']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
