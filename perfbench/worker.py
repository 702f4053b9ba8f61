"""One workload in one fresh process; started by ``run.py``, not by hand.

The worker sets up the workload's inputs, makes one untimed warm-up call,
then repeats the timed call until the run's seconds are used (with a floor
of ``MIN_CALLS``). Every call's rows are checked against the stored
reference digest. An untraced run also times a batch of calibration
kernels (``calibrate.py``) before and after every timed call. The last line
of standard output is a JSON object with the set-up time, each call's
seconds, verdict and kernel seconds, and peak memory; with ``--trace 1``
it also holds per-layer metrics of each traced call.
"""

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
MIN_CALLS = 3  # timed calls per untraced run, so run_s is a median of at least 3
KERNEL_REPEATS = 5  # calibration kernels per batch; a batch keeps its fastest


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="inputs seed, already reduced")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the launcher just before it started this process")
    p.add_argument("--mode", choices=("run", "setup", "reference"), default="run")
    return p.parse_args(argv)


def checked_call(fn, expected):
    """Run one call; returns (seconds, ok, output). A raise counts as failed."""
    start = time.perf_counter()
    try:
        output = fn()
    except Exception:  # the run goes on and reports the failure
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, False, None
    seconds = time.perf_counter() - start
    ok = output.digest() == expected
    if not ok:
        print(f"rows differ from the reference digest {expected}", file=sys.stderr)
    return seconds, ok, output


def main(argv=None):
    args = parse_args(argv)

    import numpy
    import scipy
    import sensewalk

    src = HERE.parent / "src"
    if not Path(sensewalk.__file__).resolve().is_relative_to(src.resolve()):
        print(f"sensewalk imported from {sensewalk.__file__}, not from {src}", file=sys.stderr)
        return 2

    import calibrate
    import workloads as wl
    from spans import Tracer

    workload = wl.WORKLOADS[args.workload]
    inputs = wl.make_inputs(workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0
    if args.mode == "reference":
        start = time.perf_counter()
        output = wl.run(inputs)
        print(json.dumps({"digest": output.digest(), "seconds": time.perf_counter() - start,
                          "acc_lam0": output.acc_lam0, "acc_best": output.acc_best}))
        return 0

    expected = json.loads(REFERENCE.read_text())[workload.name][str(args.seed)]
    calls = []  # {"seconds", "ok"} and, if timed untraced, "kernel_s"; the first is the warm-up
    outputs = []

    def record(fn):
        seconds, ok, output = checked_call(fn, expected)
        calls.append({"seconds": seconds, "ok": ok})
        if output is not None:
            outputs.append(output)
        return seconds

    record(lambda: wl.run(inputs))  # warm-up, untimed

    window_start = time.perf_counter()
    layers = []
    if args.trace:
        tracer = Tracer()
        wl.trace_preprocess(inputs, tracer)
        preprocess_s = tracer.self_by_name()["corpus.preprocess"]
        # pairs of (untraced, traced) calls, at least one pair
        untraced = []  # seconds of the untraced calls that passed
        pairs = 0
        while True:
            seconds = record(lambda: wl.run(inputs))
            if calls[-1]["ok"]:
                untraced.append(seconds)
            tracer = Tracer()
            record(lambda: wl.run_traced(inputs, tracer))
            pairs += 1
            if calls[-1]["ok"]:
                metrics = wl.layer_metrics(tracer, outputs[-1])
                metrics["corpus.preprocess_s"] = preprocess_s
                layers.append(metrics)
            elapsed = time.perf_counter() - window_start
            if elapsed + elapsed / pairs > args.seconds:
                break
        if untraced:
            untraced_s = statistics.median(untraced)
            for metrics in layers:
                metrics["trace.overhead_s"] = metrics["trace.total_s"] - untraced_s
        else:
            layers = []  # the overhead needs a passing untraced call; run.py fails the run
    else:
        def kernel_batch():
            return min(calibrate.kernel_seconds() for _ in range(KERNEL_REPEATS))

        calibrate.kernel_seconds()  # warm-up, untimed
        before = kernel_batch()
        while True:
            record(lambda: wl.run(inputs))
            after = kernel_batch()
            # the host's speed while the call ran, from the batches around it
            calls[-1]["kernel_s"] = (before + after) / 2
            before = after
            timed = [c["seconds"] for c in calls[1:]]
            elapsed = time.perf_counter() - window_start
            if len(timed) >= MIN_CALLS and elapsed + statistics.median(timed) > args.seconds:
                break

    result.update(
        calls=calls,
        layers=layers,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        occurrences=workload.occurrences,
        acc_lam0=outputs[-1].acc_lam0 if outputs else None,
        acc_best=outputs[-1].acc_best if outputs else None,
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
