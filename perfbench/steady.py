"""Run the benchmark once per seed for each workload and report, per
end-to-end metric, the median and the quartile spread as a share of the
median, against the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--compare OLD.json]

Run from the root of a cyclemill checkout.  Runs are sequential.  The
summary goes to perfbench/out/steady-<time>.json.  With --compare, each
median is also checked against the median in an earlier summary, and the
ratios of each seed's value to the same seed's earlier value are summarised:
the run-to-run change with the inputs held fixed.  Input digests, output
digests and exact counts must be identical for a seed in both summaries.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return {
        "wall_s": wall,
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {k: v["value"] for k, v in last["metrics"].items()},
        "input_digest": detail["input_digest"],
        "output_digest": detail["output_digest"],
        "counts": detail.get("counts", {}),
    }


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    old = json.loads(args.compare.read_text()) if args.compare else None

    summary = {}
    ok = True
    for name in names:
        runs = {seed: run_one(spec, name, seed, args.trace) for seed in args.seeds}
        summary[name] = {"runs": runs}
        walls = [r["wall_s"] for r in runs.values()]
        print(f"{name}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"correct {all(r['correct'] for r in runs.values())}, "
              f"failed {sorted({r['failed'] for r in runs.values()})}")
        if args.trace:
            continue
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs.values()]
            med, share = spread(values)
            line = f"  {metric['name']:<14} median {med:<12.6g} spread {share:7.2%} (bound {metric['bound']:.0%})"
            note = ""
            if share >= metric["bound"] / 3:
                note = "  <-- above a third of the bound"
                if share > metric["bound"]:
                    note, ok = "  <-- OUTSIDE the bound", False
            if old and name in old:
                old_med = statistics.median(r["metrics"][metric["name"]] for r in old[name]["runs"].values())
                worse = (old_med - med) / old_med if metric["better"] == "higher" else (med - old_med) / old_med
                paired = [r["metrics"][metric["name"]] / old[name]["runs"][str(seed)]["metrics"][metric["name"]]
                          for seed, r in runs.items() if str(seed) in old[name]["runs"]]
                line += f"  vs {old_med:<12.6g} worse by {worse:+.2%}"
                if len(paired) >= 2:
                    lo, mid, hi = statistics.quantiles(paired, n=4)
                    line += f", same-seed ratio median {mid:.3f} quartiles {lo:.3f}-{hi:.3f}"
                if worse > metric["bound"]:
                    note, ok = note + "  <-- median worse than the bound", False
            print(line + note)
        if old and name in old:
            for seed, run in runs.items():
                before = old[name]["runs"].get(str(seed))
                if before and any(before[k] != run[k] for k in ("input_digest", "output_digest", "counts")):
                    ok = False
                    print(f"  seed {seed}: digests or counts differ from the earlier summary")
    out = HERE / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(summary, indent=1))
    print(f"summary written to {out}; {'every spread and median within its bound' if ok else 'NOT within bounds'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
