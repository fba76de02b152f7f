"""Run one workload under several seeds and report each metric's spread.

    python3 benchmark/spread.py --workload eval-desk --seeds 1-10

Each run is the benchmark command from BENCHMARK.json, one after another,
in this checkout.  For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (third minus first
quartile, as a share of the median) and the bound.  Raw results go to ``benchmark/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from reference import median, quartiles, relative_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", f"spread-{args.workload}.jsonl")
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        per_op = [ln for ln in lines if ln.startswith("# seconds per timed op")]
        result.update(seed=seed, wall_s=wall, op_seconds=per_op[0].split("op ", 1)[1],
                      stamp=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()))
        runs.append(result)
        with open(log, "a") as fh:
            fh.write(json.dumps(result) + "\n")
        shown = "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed:3d}  wall {wall:6.1f}s  attempted {result['attempted']:3d}"
              f"  failed {result['failed']}  correct {result['correct']}  {shown}",
              flush=True)

    print(f"\n{args.workload}: {len(runs)} runs, max wall {max(r['wall_s'] for r in runs):.1f}s,"
          f" failed share {sorted({r['failed'] / r['attempted'] for r in runs})}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) < 2 or median(values) == 0:
            continue
        q1, q2, q3 = quartiles(values)
        spread = relative_spread(values)
        bound = bounds[name]
        print(f"  {name:28s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
              f"  spread {spread:7.4f}  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
