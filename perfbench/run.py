"""cyclemill benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cyclemill checkout; the package is imported from
./src and nowhere else.  One client sends one operation at a time (a closed
loop), with at most one ``cyclemill`` child process alive, and makes a fixed
number of whole passes over the workload's operations, about ``--seconds``
of work and at least two.  Every output is checked, and every operation's
output must match its output in the first pass.  Timings are CPU seconds
scaled to a reference speed (see speed.py).

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.  --trace 1
times untraced passes, then one traced pass with every public function of the
package wrapped, and prints the per-layer metrics, the self times and the
tracing overhead.  The last line of standard output is one JSON object; the
full result, and in a traced run the spans, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import speed

SETUP_REPS = 5
MIN_PASSES = 2
PASS_S = 10  # nominal seconds per pass on a 2-core machine
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many samples above it


class Loop:
    """Runs passes over the operations and keeps what the metrics need."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies: list[list[float]] = [[] for _ in ops]  # per operation, one per pass, scaled
        self.cpu_latencies: list[list[float]] = [[] for _ in ops]  # the same, unscaled
        self.speed_samples: list[float] = []
        self.failures: list[str] = []
        self.wrong = False
        self.first_texts: list[str] | None = None
        self.output_digest = ""
        self.cycles_found = 0
        self.pass_walls: list[float] = []  # wall time of each pass's operations, without the reference loops
        self.fallbacks = 0
        self.rescues = 0
        self.peak_rss_mb = 0.0

    def run_pass(self) -> None:
        from workloads import Outcome, digest

        texts = []
        cycles = fallbacks = rescues = 0
        wall = 0.0
        before = speed.around()
        for i, op in enumerate(self.ops):
            w0 = perf_counter()
            t = measure(op.call, before, op.samples_file)
            wall += perf_counter() - w0
            before = t.after
            if t.error is not None:  # a crash is a failed operation; the loop goes on
                frame = traceback.extract_tb(t.error.__traceback__)[-1]
                where = f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"
                name = type(t.error).__name__
                outcome = Outcome(f"{name}: {t.error} ({where})", False, 0, name)
            else:
                outcome = op.check(t.result)
            self.cpu_latencies[i].append(t.cpu_s)
            self.latencies[i].append(t.scaled_s)
            self.speed_samples.extend(t.samples)
            failure = outcome.failure
            if self.first_texts is not None and outcome.text != self.first_texts[i]:
                failure = failure or "output differs from the first repetition"
                self.wrong = True
            if failure:
                self.failures.append(f"{op.name}: {failure}")
            self.wrong |= outcome.wrong
            texts.append(outcome.text)
            cycles += outcome.cycles
            fallbacks += outcome.fallback
            rescues += outcome.rescue
        self.pass_walls.append(wall)
        if self.first_texts is None:
            self.first_texts = texts
            self.output_digest = digest(texts)
            self.cycles_found = cycles
        self.fallbacks, self.rescues = fallbacks, rescues

    def run_passes(self, passes: int, rss_after: int) -> None:
        """``passes`` whole passes.  Peak memory is read after ``rss_after``
        passes, a fixed amount of work, because garbage that reference
        cycles keep alive grows with every further pass."""
        for done in range(1, passes + 1):
            self.run_pass()
            if done == rss_after:
                self.peak_rss_mb = peak_rss_mb()


def passes(seconds: float) -> int:
    """One pass per PASS_S of ``seconds``, and at least MIN_PASSES.  A pass
    of each workload takes about PASS_S, except ceiling-io's, whose three
    commands at the 4,096-vertex ceiling take about twice that."""
    return max(MIN_PASSES, round(seconds / PASS_S))


def import_afresh():
    """Import cyclemill as a new process would, forgetting any earlier import."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "cyclemill"]:
        del sys.modules[name]
    return importlib.import_module("cyclemill")


def machine_facts(root: Path) -> dict:
    src = root / "src" / "cyclemill"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(root),
        "src_sha256": h.hexdigest()[:16],
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when the
    checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@dataclass
class Timing:
    result: object
    error: Exception | None
    cpu_s: float
    scaled_s: float
    samples: list[float]  # reference-loop timings during the call
    after: list[float]  # reference-loop timings after it


def measure(call, before: list[float], samples_file: Path | None = None) -> Timing:
    """Run ``call()`` and time it in CPU seconds, scaled by the reference-loop
    timings before, during and after it.  Without ``samples_file`` a Sampler
    in this process takes the timings during the call; with it, the call
    runs a CLI child that samples itself and writes its timings there."""
    result = error = None
    sampler = speed.Sampler()
    if samples_file is not None:
        samples_file.unlink(missing_ok=True)
    t0 = cpu_seconds()
    try:
        if samples_file is None:
            with sampler:
                result = call()
        else:
            result = call()
    except Exception as exc:
        error = exc
    cpu = cpu_seconds() - t0
    samples, own_s = sampler.samples, sampler.own_s
    if samples_file is not None and samples_file.is_file():
        child = json.loads(samples_file.read_text())
        samples, own_s = child["samples"], child["own_s"]
    after = speed.around()
    cpu -= own_s
    return Timing(result, error, cpu, speed.scaled(cpu, before + samples + after), samples, after)


def cpu_seconds() -> float:
    """CPU time of this process plus that of every CLI child it has waited
    for.  Time the process spends waiting for a core does not count."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of any CLI child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def tail(ordered: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it:
    (value, percentile, samples beyond).  Below TAIL_BEYOND + 1 samples it is
    the maximum."""
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    idx = len(ordered) - 1 - beyond
    return ordered[idx], 100 * (idx + 1) / len(ordered), beyond


def end_to_end(loop: Loop, setup_s: float) -> tuple[dict, dict]:
    """Every repetition of every operation is one latency sample."""
    ordered = sorted(x for samples in loop.latencies for x in samples)
    n = len(ordered)
    value, pct, beyond = tail(ordered)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / sum(ordered),
        "op_p50_s": statistics.median(ordered),
        "op_tail_s": value,
        "ok_op_share": (n - len(loop.failures)) / n,
        "peak_rss_mb": loop.peak_rss_mb,
        "cycles_found": loop.cycles_found,
    }
    cpu = sorted(x for samples in loop.cpu_latencies for x in samples)
    notes = {
        "ops_per_s": f"unscaled {n / sum(cpu):.6g}/s; reference loop median {statistics.median(loop.speed_samples):.6f} s",
        "op_p50_s": f"unscaled {statistics.median(cpu):.6g} s",
        "op_tail_s": f"p{pct:.2f} of {n} samples, {beyond} beyond it; unscaled {tail(cpu)[0]:.6g} s",
        "ok_op_share": f"failed_op_share = {len(loop.failures)}/{n} = {len(loop.failures) / n:.4f}",
    }
    return metrics, notes


def per_layer(tracer, loop: Loop, probe, untraced_pass_s: float) -> dict:
    run = tracer.aggregate("bench.pass")
    setup = tracer.aggregate("bench.setup")
    moves = tracer.aggregate("bench.move_probe")

    def get(stats, name, key):
        return stats[name][key] if name in stats else 0

    values = {}
    for name, key in (
        ("core.Tournament", "calls"),
        ("core.Tournament", "self_s"),
        ("core.induced", "calls"),
        ("core.induced", "self_s"),
        ("core.strong_components", "calls"),
        ("core.strong_components", "s"),
        ("trn.loads", "calls"),
        ("trn.loads", "s"),
        ("cli.hamcycle", "s"),
        ("cli.oracle", "s"),
        ("cli.pack", "s"),
        ("oracle.enumerate_q_cycles", "calls"),
        ("oracle.enumerate_q_cycles", "s"),
        ("oracle.max_disjoint_q_cycles", "s"),
    ) + tuple(
        (f"{layer}.{fn}", key)
        for layer, fns in (
            ("classic", ("hamiltonian_path", "hamiltonian_cycle", "cycle_of_length", "cycle_through_vertex")),
            ("packer", ("greedy_maximal_packing", "partition_remainder", "verify_packing")),
            ("surgery", ("splice_and_trim", "fact2_shrink", "fact3_double_shrink")),
            ("matching", ("max_matching_with_cover",)),
        )
        for fn in fns
        for key in ("calls", "s")
    ):
        values[f"{name}.{key}"] = get(run, name, key)

    loads_s = values["trn.loads.s"]
    values["trn.loads.mb_per_s"] = tracer.loads_bytes / 1e6 / loads_s if loads_s else 0.0
    values["trn.dumps.s"] = get(setup, "trn.dumps", "s")
    for fn in ("min_degree_tournament", "planted_move_instance", "q_cycle_free_tournament", "random_tournament"):
        values[f"gen.{fn}.s"] = get(setup, f"gen.{fn}", "s")

    attempts, fires = probe
    for name in attempts:
        values[f"packer.{name}.attempts"] = attempts[name]
        values[f"packer.{name}.fires"] = fires[name]
        values[f"packer.{name}.s"] = get(moves, f"packer.{name}", "s")
    total_attempts, total_fires = sum(attempts.values()), sum(fires.values())
    values["packer.fire_ratio"] = total_fires / total_attempts if total_attempts else 0.0
    values["packer.oracle_fallbacks"] = loop.fallbacks
    values["packer.oracle_rescues"] = loop.rescues

    values["oracle.cycles_enumerated"] = tracer.cycles_enumerated
    values["oracle.cap_overflows"] = tracer.cap_overflows
    values["oracle.bnb_self_s"] = values["oracle.max_disjoint_q_cycles.s"] - tracer.child_seconds(
        "bench.pass", "oracle.max_disjoint_q_cycles", "oracle.enumerate_q_cycles"
    )
    search_s = get(run, "oracle.counterexample_search", "s")
    values["oracle.search.patterns_per_s"] = tracer.patterns / search_s if search_s else 0.0

    values["cycles_found"] = loop.cycles_found
    values["trace.untraced_pass_s"] = untraced_pass_s
    values["trace.traced_pass_s"] = loop.pass_walls[-1]
    values["trace.overhead"] = loop.pass_walls[-1] / untraced_pass_s - 1
    values["trace.spans"] = len(tracer.names)
    return values


EXACT_COUNTS = (
    "core.Tournament.calls",
    "core.induced.calls",
    "core.strong_components.calls",
    "oracle.cycles_enumerated",
    "oracle.cap_overflows",
    "packer.oracle_fallbacks",
    "packer.oracle_rescues",
    "cycles_found",
)


def report_metrics(title: str, specs: list[dict], values: dict, notes: dict) -> dict:
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics named in BENCHMARK.json but not computed: {missing}")
    print(title)
    out = {}
    for m in specs:
        value = values[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"  {m['name']:<42} {value:>16.6g} {m['unit']}{note}")
    return out


def traced_run(workload, seed: int, seconds: float, out_dir: Path):
    """Untraced passes for about ``seconds``, then tracing on: the setup
    again, one traced pass, and on pack-moves the direct move calls.  Prints
    the exact counts, self times and tracing overhead; returns the loop, the
    per-layer values, the move calls made, and the traced setup's input
    digest."""
    from spans import Tracer
    from workloads import MOVES, PackMoves

    kind = type(workload)
    loop = Loop(workload.ops(in_process=True))
    loop.run_passes(passes(seconds), 1)
    untraced_pass_s = statistics.median(loop.pass_walls)
    attempts, fires = dict.fromkeys(MOVES, 0), dict.fromkeys(MOVES, 0)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            traced_digest = kind(out_dir).setup(seed)
        with tracer.span("bench.pass"):
            loop.run_pass()
        if isinstance(workload, PackMoves):
            with tracer.span("bench.move_probe"):
                attempts, fires, probe_failures = workload.probe_moves()
            loop.failures.extend(f"move probe: {f}" for f in probe_failures)
    finally:
        tracer.uninstall()
    tracer.write(out_dir / f"spans-{kind.name}-seed{seed}.json")
    values = per_layer(tracer, loop, (attempts, fires), untraced_pass_s)

    print("exact counts:")
    for name in EXACT_COUNTS + tuple(n for n in values if n.endswith((".attempts", ".fires"))):
        print(f"  {name:<42} {values[name]:>16}")
    print(f"  packer.fire_ratio = {sum(fires.values())} fires / {sum(attempts.values())} attempts")
    stats = tracer.aggregate("bench.pass")
    print(f"self time in the traced pass (top 12 of {len(stats)} span names):")
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:12]:
        print(f"  {name:<42} {st['self_s']:>10.4f} s self {st['s']:>10.4f} s incl {st['calls']:>9} calls")
    print(
        f"tracing overhead: traced pass {values['trace.traced_pass_s']:.4f} s against untraced "
        f"{untraced_pass_s:.4f} s (median of {len(loop.pass_walls) - 1}) = {values['trace.overhead']:+.1%}"
    )
    return loop, values, sum(attempts.values()), traced_digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "cyclemill" / "__init__.py").is_file():
        print(f"error: {src / 'cyclemill'} not found; run from the root of a cyclemill checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    sys.path.insert(0, str(src))
    import_times = []
    before = speed.around()
    for _ in range(SETUP_REPS):
        t = measure(import_afresh, before)
        if t.error is not None:
            raise t.error
        cyclemill, before = t.result, t.after
        import_times.append(t.scaled_s)
    if Path(cyclemill.__file__).resolve().parent != (src / "cyclemill").resolve():
        print(f"error: imported cyclemill from {cyclemill.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    kind = WORKLOADS[args.workload]

    setup_times, input_digests = [], []
    for _ in range(SETUP_REPS):
        workload = kind(out_dir)
        t = measure(lambda: workload.setup(args.seed), before)
        if t.error is not None:
            raise t.error
        input_digests.append(t.result)
        setup_times.append(t.scaled_s)
        before = t.after
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    facts = machine_facts(root)
    print(f"workload {kind.name}: {kind.why}")
    print(f"seed={args.seed} seconds={args.seconds:g} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"input digest {input_digests[0]}")
    result: dict = {"workload": kind.name, "seed": args.seed, "trace": args.trace, "facts": facts}
    inputs_stable = len(set(input_digests)) == 1
    if not inputs_stable:
        print(f"FAIL: the same seed gave different inputs: {input_digests}")

    if args.trace == 0:
        loop = Loop(workload.ops(in_process=False))
        loop.run_passes(passes(args.seconds), MIN_PASSES)
        values, notes = end_to_end(loop, setup_s)
        metrics = report_metrics("end-to-end metrics:", spec["end_to_end"], values, notes)
        result.update(notes=notes)
        probe_attempts = 0
    else:
        loop, values, probe_attempts, traced_digest = traced_run(workload, args.seed, args.seconds, out_dir)
        inputs_stable &= traced_digest == input_digests[0]
        metrics = report_metrics("per-layer metrics:", spec["per_layer"], values, {})
        result.update(counts={n: values[n] for n in values if n in EXACT_COUNTS or n.endswith((".attempts", ".fires"))})

    attempted = sum(map(len, loop.latencies)) + probe_attempts
    print(f"output digest {loop.output_digest}, {len(loop.pass_walls)} passes, {attempted} operations")
    for failure in sorted(set(loop.failures)):
        print(f"FAILED x{loop.failures.count(failure)}: {failure}")
    correct = inputs_stable and not loop.wrong
    result.update(
        input_digest=input_digests[0],
        output_digest=loop.output_digest,
        metrics=metrics,
        failures=loop.failures,
        latencies=[[op.name, samples] for op, samples in zip(loop.ops, loop.latencies)],
        setup_times=setup_times,
        import_times=import_times,
    )
    name = f"result-{kind.name}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(loop.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
