"""Benchmark launcher: one workload per fresh, single-threaded worker process.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload sem-hybrid --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a traced run. Lines
starting with ``#`` and the metric table are for people; the last line of
standard output is the JSON result. The library is imported from ``src/``
of the checkout and nothing is built or installed. See ``README.md`` in
this directory for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # processes set up per untraced run; setup_s is their median
# Seconds a workload may take beyond --seconds: the set-up processes, the
# warm-up call and the last timed call. With --seconds up to 55 a run ends within 180 s.
RUN_MARGIN_S = 120
REFERENCE_SEEDS = 32  # seeds with a stored reference digest; others wrap onto them
THREAD_CAPS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class WorkerFailed(Exception):
    pass


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_CAPS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every process
    return env


def run_worker(workload, seed, seconds, trace, mode, deadline):
    """Start one worker, wait for it, and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--mode", mode]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                            env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"{workload} worker ran past its {seconds + RUN_MARGIN_S} s budget")
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def source_identity():
    """The git commit if the checkout has one, and a digest of ``src/``."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return commit, h.hexdigest()[:16]


def median_metrics(samples):
    names = samples[0].keys()
    return {name: statistics.median(s[name] for s in samples) for name in names}


def measure(workload, seed, seconds, trace):
    """Metrics of one workload run plus its call counts and environment."""
    deadline = time.monotonic() + seconds + RUN_MARGIN_S
    # set-up-only processes before and after the measuring one, so setup_s
    # samples more than one moment of the machine; a traced run needs none
    before = 0 if trace else SETUP_SAMPLES // 2
    after = 0 if trace else SETUP_SAMPLES - 1 - before

    def setup_only(n):
        return [run_worker(workload, seed, seconds, trace, "setup", deadline)["setup_s"]
                for _ in range(n)]

    setups = setup_only(before)
    res = run_worker(workload, seed, seconds, trace, "run", deadline)
    setups += [res["setup_s"]] + setup_only(after)
    calls = res["calls"]
    failed = sum(1 for c in calls if not c["ok"])
    if trace:
        if not res["layers"]:
            raise WorkerFailed(f"{workload}: no traced call, or no untraced call, succeeded")
        metrics = median_metrics(res["layers"])
    else:
        # wall seconds scaled to the host speed at which the calibration
        # kernel takes NOMINAL_S (see calibrate.py)
        scaled = [c["seconds"] * calibrate.NOMINAL_S / c["kernel_s"]
                  for c in calls[1:] if c["ok"]]
        if not scaled:
            raise WorkerFailed(f"{workload}: no timed call succeeded")
        run_s = statistics.median(scaled)
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "occ_per_s": res["occurrences"] / run_s,
            "peak_rss_mb": res["peak_rss_mb"],
        }
    info = {k: res[k] for k in ("python", "numpy", "scipy", "acc_lam0", "acc_best")}
    info.update(setup_samples=setups, call_seconds=[c["seconds"] for c in calls],
                kernel_seconds=[c["kernel_s"] for c in calls if "kernel_s" in c],
                fail_rate=failed / len(calls))
    return metrics, len(calls), failed, info


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "sensewalk" / "__init__.py").is_file():
        print(f"no sensewalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    selected = names if args.workload == "all" else [args.workload]
    if any(name not in names for name in selected):
        p.error(f"--workload must be one of {names} or 'all'")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    commit, source = source_identity()
    inputs_seed = args.seed % REFERENCE_SEEDS
    total_attempted = total_failed = 0
    merged = {}
    try:
        for name in selected:
            metrics, attempted, failed, info = measure(name, inputs_seed, args.seconds, args.trace)
            total_attempted += attempted
            total_failed += failed
            print(f"# {name} seed={args.seed} inputs_seed={inputs_seed} trace={args.trace} "
                  f"nproc={os.cpu_count()} python={info['python']} numpy={info['numpy']} "
                  f"scipy={info['scipy']} commit={commit} src_sha256={source}")
            print(f"# calls={attempted} failed={failed} fail_rate={info['fail_rate']:.4f} "
                  f"call_s={[round(s, 3) for s in info['call_seconds']]} "
                  f"setup_samples_s={[round(s, 3) for s in info['setup_samples']]} "
                  f"kernel_s={[round(s, 4) for s in info['kernel_seconds']]}")
            if not args.trace and info["acc_lam0"] is not None:
                print(f"# acc_lam0={info['acc_lam0']!r} acc_best={info['acc_best']!r} "
                      "(mean over knn, bayes, c45)")
            for m in wanted:
                value = metrics[m["name"]]
                print(f"{name:14s} {m['name']:28s} {value:14.6f} {m['unit']}")
                key = m["name"] if len(selected) == 1 else f"{name}.{m['name']}"
                merged[key] = {"value": value, "unit": m["unit"]}
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
