"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload sem-hybrid --seeds 0-9 [--trace 1] [--out FILE]

The spread is the distance between the first and third quartile of the
per-run values (``statistics.quantiles(values, n=4)``) as a share of their
median, the figure ``BENCHMARK.json``'s bounds are judged against. With
``--out`` the raw values are merged into a JSON file keyed by workload and
trace mode.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    seconds = run.load_spec()["run_seconds"]
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=run.ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} calls failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in result["metrics"].items()), flush=True)

    table = {name: summary(v) for name, v in values.items()}
    for name, s in table.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:28s} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
              f"spread={spread}")
    if args.out:
        data = json.loads(args.out.read_text()) if args.out.is_file() else {}
        key = f"{args.workload} trace={args.trace}"
        data[key] = {"seeds": args.seeds, "run_seconds": seconds, "metrics": table}
        args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
