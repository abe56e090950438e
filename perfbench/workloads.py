"""The four benchmark workloads: seeded inputs, the operations run on them, and
checks of every output that do not rely on the library's own verifier.

Each workload builds its inputs from the benchmark seed alone; the program
under test only ever sees the generated tournaments and TRN files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import cyclemill
from cyclemill import cli, gen, oracle

CLI_TIMEOUT_S = 170


@dataclass
class Outcome:
    """What the benchmark concluded about one operation's output."""

    failure: str | None  # why the operation failed, or None
    wrong: bool  # the program returned an answer, and it is wrong
    cycles: int  # cycles in the returned packing or witness
    text: str  # canonical output, digested for the determinism check
    fallback: bool = False  # pack ran the exact oracle
    rescue: bool = False  # ... and the oracle enlarged the packing


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]
    samples_file: Path | None = None  # where a CLI child writes its speed samples


def stream(seed: int, *tags: int) -> random.Random:
    """An independent random stream for one input of one workload."""
    return random.Random(gen.derive_seed(seed, 0xBE7C, *tags))


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode() if isinstance(chunk, str) else chunk)
        h.update(b"\0")
    return h.hexdigest()[:16]


def rows_digest(rows) -> str:
    return digest(format(r, "x") for r in rows)


# ---------------------------------------------------------------------------
# Independent output checks
# ---------------------------------------------------------------------------


def int_arc(rows):
    return lambda a, b: bool(rows[a] >> b & 1)


def str_arc(rows):
    return lambda a, b: rows[a][b] == "1"


def packing_problem(n: int, arc, q: int, cycles) -> str | None:
    """Every cycle has q distinct in-range vertices joined by arcs, and no two
    cycles share a vertex."""
    seen: set[int] = set()
    for idx, cycle in enumerate(cycles):
        if len(cycle) != q:
            return f"cycle {idx} has {len(cycle)} vertices, expected {q}"
        if len(set(cycle)) != q or any(not 0 <= v < n for v in cycle):
            return f"cycle {idx} repeats a vertex or leaves 0..{n - 1}"
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if not arc(a, b):
                return f"cycle {idx} uses a missing arc ({a}, {b})"
        if seen & set(cycle):
            return f"cycle {idx} shares a vertex with an earlier cycle"
        seen |= set(cycle)
    return None


def expected_status(min_out_degree: int, q: int, k: int, found: int) -> str:
    if min_out_degree < (q - 1) * k - 1:
        return "hypothesis_unmet"
    return "target_met" if found >= k else "maximal_but_short"


def pack_op(name: str, t, q: int, k: int, at_least: int) -> Op:
    """``pack(t, q, k)``; the report must be a valid packing of at least
    ``at_least`` cycles whose status agrees with the degree hypothesis."""
    rows = t.rows
    min_deg = min(r.bit_count() for r in rows)

    def check(report) -> Outcome:
        cycles = [tuple(c) for c in report.packing.cycles]
        text = report.to_text()
        rescue = any(m[0] == "oracle" for m in report.moves_applied)
        problem = packing_problem(len(rows), int_arc(rows), q, cycles)
        if problem is None and len(cycles) < at_least:
            problem = f"{len(cycles)} cycles, the known answer is at least {at_least}"
        status = expected_status(min_deg, q, k, len(cycles))
        if problem is None and report.status != status:
            problem = f"status {report.status}, expected {status}"
        return Outcome(problem, problem is not None, len(cycles), text, report.fallback_used, rescue)

    return Op(name, lambda: cyclemill.pack(t, q, k), check)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    why = ""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def setup(self, seed: int) -> str:
        """Build the inputs for ``seed``; return their digest."""
        raise NotImplementedError

    def ops(self, in_process: bool) -> list[Op]:
        raise NotImplementedError


class PackDense(Workload):
    # Greedy and construction do the work (Tournament.induced plus
    # re-validation is over 99% of it); the moves and the oracle are never
    # reached.  Mask-native kernels must show their gain here.
    name = "pack-dense"
    why = "pack(t,3,k) at n=161-241: greedy and Tournament construction do all the work"
    # Three instances of each size, so the median and tail operations are
    # among several of one size and not one instance of the seed.
    SIZES = tuple(n for n in range(161, 242, 20) for _ in range(3))

    def setup(self, seed):
        self.instances = []
        for i, n in enumerate(self.SIZES):
            k = (n - 1) // 4
            s = stream(seed, 1, i).getrandbits(63)
            self.instances.append((n, k, gen.min_degree_tournament(n, 2 * k - 1, s)))
        return digest(rows_digest(t.rows) for _, _, t in self.instances)

    def ops(self, in_process):
        # The degree floor 2k-1 guarantees k disjoint triangles.
        return [pack_op(f"pack n={n} k={k}", t, 3, k, k) for n, k, t in self.instances]


class PackMoves(Workload):
    # n is small, so construction is cheap per call; absorb, grow_tail,
    # surgery, matching and the oracle fallback do the work.  The q=11 tail
    # instances enumerate up to the 200,000-cycle cap and set the tail latency.
    name = "pack-moves"
    why = "tight and planted instances at n<=65: the moves, surgery, matching and oracle fallback do the work"
    TIGHT = ((3, 1), (3, 2), (3, 3), (4, 2), (5, 2), (4, 3))
    TIGHT_PER_QK = 40  # most operations, so the median lands among them
    PLANTED_Q = (7, 9, 11)
    PLANTED_SEEDS = 6

    def setup(self, seed):
        self.tight = []
        for i, (q, k) in enumerate(self.TIGHT):
            floor = (q - 1) * k - 1
            n_lo = max(7, 2 * floor + 1)
            for j in range(self.TIGHT_PER_QK):
                n = n_lo + j % (21 - n_lo + 1)
                s = stream(seed, 2, i, j).getrandbits(63)
                self.tight.append((q, k, gen.min_degree_tournament(n, floor, s)))
        self.planted = []
        for q in self.PLANTED_Q:
            for kind in gen.PLANTED_KINDS:
                for j in range(self.PLANTED_SEEDS):
                    s = stream(seed, 3, q, gen.PLANTED_KINDS.index(kind), j).getrandbits(63)
                    try:
                        t, packing, _ = gen.planted_move_instance(kind, q, s)
                    except ValueError:  # the kind is not defined at this q
                        break
                    self.planted.append((kind, q, t, packing))
        return digest(
            [rows_digest(t.rows) for _, _, t in self.tight]
            + [rows_digest(t.rows) + repr(p.cycles) for _, _, t, p in self.planted]
        )

    def ops(self, in_process):
        out = []
        for q, k, t in self.tight:
            # Acceptance criteria 1 and 2: k triangles at q=3, and at least
            # ceil(k - 1 - (k - 2)/q) q-cycles at q in {4, 5}.
            bound = k if q == 3 else math.ceil(k - 1 - (k - 2) / q)
            out.append(pack_op(f"tight q={q} k={k} n={t.n}", t, q, k, bound))
        for kind, q, t, packing in self.planted:
            out.append(pack_op(f"{kind} q={q} n={t.n}", t, q, len(packing) + 1, 1))
        return out

    def probe_moves(self):
        """Call each move once on every planted packing, since ``pack`` calls
        them through references that tracing cannot see.  Returns attempts
        and fires per move, and the failure of any call that raised."""
        from cyclemill import packer

        attempts = dict.fromkeys(MOVES, 0)
        fires = dict.fromkeys(MOVES, 0)
        failures = []
        for kind, q, t, packing in self.planted:
            partition = packer.partition_remainder(t, packing)
            for name in MOVES:
                move = getattr(packer, name)
                attempts[name] += 1
                try:
                    if name == "grow_tail":
                        result = move(t, packing, partition.path)
                    else:
                        result = move(t, packing, partition)
                except ValueError:  # grow_tail's precondition: a q-cycle-free remainder
                    result = None
                except Exception as exc:
                    failures.append(f"{name} on {kind} q={q}: {type(exc).__name__}: {exc}")
                    result = None
                fires[name] += result is not None
        return attempts, fires, failures


MOVES = ("move_absorb", "move_two_for_one", "move_three_for_two", "grow_tail")


class ExactSearch(Workload):
    # The oracle alone, packer bypassed: full enumeration and branch and
    # bound, unlike the limited fallback pack-moves reaches.
    name = "exact-search"
    why = "the oracle alone: exhaustive n=7 search, exact maxima at n=20-22, and a cap refusal at n=24"
    # Ten n=22 instances, so the median operation is one of them and not
    # the edge between them and the cheaper n=20 and capped ones.
    EXACT = (20,) * 2 + (22,) * 10
    Q = 6

    def setup(self, seed):
        self.exact = [
            gen.random_tournament(n, stream(seed, 4, i).getrandbits(63))
            for i, n in enumerate(self.EXACT)
        ]
        # A near-regular 24-vertex tournament has far more than 200,000 6-cycles.
        self.capped = gen.min_degree_tournament(24, 11, stream(seed, 5).getrandbits(63))
        return digest([rows_digest(t.rows) for t in self.exact] + [rows_digest(self.capped.rows)])

    def ops(self, in_process):
        spec = oracle.SearchSpec(q=3, k=2, n_range=(7, 7), degree_floor=3)
        out = [Op("search q=3 k=2 n=7", lambda: cyclemill.counterexample_search(spec), check_search)]
        for t in self.exact:
            out.append(Op(f"max_disjoint n={t.n} q={self.Q}", exact_call(t, self.Q), exact_check(t, self.Q)))
        out.append(Op(f"cap n=24 q={self.Q}", capped_call(self.capped, self.Q), check_capped))
        return out


def check_search(report) -> Outcome:
    text = report.to_text()
    expected = "examined=2640 violators=0 seed=0\n"
    problem = None if text == expected else f"search report {text!r}, expected {expected!r}"
    return Outcome(problem, problem is not None, 0, text)


def exact_call(t, q):
    return lambda: cyclemill.max_disjoint_q_cycles(t, q)


def exact_check(t, q):
    def check(result) -> Outcome:
        count, witness = result
        cycles = [tuple(c) for c in witness.cycles]
        problem = packing_problem(t.n, int_arc(t.rows), q, cycles)
        if problem is None and not 1 <= count == len(cycles) <= t.n // q:
            problem = f"max={count} with a witness of {len(cycles)} cycles"
        text = f"max={count} " + repr(cycles)
        return Outcome(problem, problem is not None, len(cycles), text)

    return check


def capped_call(t, q):
    def call():
        try:
            count, _ = cyclemill.max_disjoint_q_cycles(t, q)
        except oracle.OracleCapError:
            return "refused"
        return f"max={count}"

    return call


def check_capped(result) -> Outcome:
    problem = None if result == "refused" else f"returned {result}, expected OracleCapError"
    return Outcome(problem, problem is not None, 0, result)


class CeilingIo(Workload):
    # Parse, construction and the quadratic hamiltonian_path are the whole
    # cost here; no other workload measures them at the 4,096-vertex scale.
    name = "ceiling-io"
    why = "the cyclemill CLI on TRN files with n=1024-4095: parse, construction and Hamiltonian paths at scale"
    CIRCULANT_N = 4095
    TRIANGLES = 1300
    QFREE_N = 1024

    def setup(self, seed):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        rng = stream(seed, 6)
        n = self.CIRCULANT_N
        base = ["0"] * n
        for d in range(1, (n - 1) // 2 + 1):
            base[d if rng.getrandbits(1) else n - d] = "1"
        row0 = "".join(base)
        # Row i of a circulant is row 0 rotated right by i.
        circulant = [row0[n - i:] + row0[: n - i] for i in range(n)]

        m = self.TRIANGLES
        chain = []
        for b in range(m):  # every earlier triangle beats every later one
            forward = rng.getrandbits(1)
            for r in range(3):
                tri = ["0", "0", "0"]
                tri[(r + 1) % 3 if forward else (r + 2) % 3] = "1"
                chain.append("0" * (3 * b) + "".join(tri) + "1" * (3 * (m - b - 1)))

        qfree = gen.q_cycle_free_tournament(self.QFREE_N, 7, rng.getrandbits(63))
        qfree_text = cyclemill.trn.dumps(qfree)

        self.inputs = {}
        texts = []
        for key, text in (
            ("circulant", "\n".join([str(n)] + circulant) + "\n"),
            ("chain", "\n".join([str(3 * m)] + chain) + "\n"),
            ("qfree", qfree_text),
        ):
            path = self.out_dir / f"{key}.trn"
            path.write_text(text, encoding="ascii")
            self.inputs[key] = (path, text.split("\n")[1:-1])
            texts.append(text)
        return digest(texts)

    def ops(self, in_process):
        circ_path, circ_rows = self.inputs["circulant"]
        chain_path, chain_rows = self.inputs["chain"]
        qfree_path, qfree_rows = self.inputs["qfree"]
        samples_file = None if in_process else self.out_dir / "child-speed.json"

        def op(name, argv, check):
            if in_process:
                return Op(name, lambda: run_cli_in_process(argv), check)
            return Op(name, lambda: run_cli_subprocess(argv, samples_file), check, samples_file)

        return [
            op(f"hamcycle n={len(circ_rows)}", ["hamcycle", "--input", str(circ_path)], check_hamcycle(circ_rows)),
            op(
                f"oracle q=3 n={len(chain_rows)}",
                ["oracle", "--q", "3", "--input", str(chain_path)],
                check_chain_oracle(chain_rows, self.TRIANGLES),
            ),
            op(
                f"pack q=7 k=1 n={len(qfree_rows)}",
                ["pack", "--q", "7", "--k", "1", "--input", str(qfree_path)],
                check_qfree_pack(qfree_rows),
            ),
        ]


def run_cli_subprocess(argv: list[str], samples_file: Path) -> tuple[int, str, str]:
    """The command in a child process, through cli_child.py, which runs it
    as ``python -m cyclemill.cli`` would and writes its speed samples."""
    env = dict(os.environ, PYTHONPATH=str(Path(cyclemill.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(samples_file), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_failure(code: int, expected: int, stderr: str) -> str | None:
    if code == expected:
        return None
    last = stderr.strip().splitlines()[-1] if stderr.strip() else "no stderr"
    return f"exit {code}, expected {expected}: {last}"


def check_hamcycle(rows):
    n = len(rows)

    def check(result) -> Outcome:
        code, out, err = result
        problem = _cli_failure(code, 0, err)
        cycles = []
        if problem is None:
            cycle = tuple(int(tok) for tok in out.split())
            if len(cycle) != n:
                problem = f"cycle has {len(cycle)} vertices, expected {n}"
            else:
                problem = packing_problem(n, str_arc(rows), n, [cycle])
            cycles = [cycle]
        return Outcome(problem, code == 0 and problem is not None, len(cycles), f"{code}\n{out}")

    return check


def check_chain_oracle(rows, triangles: int):
    def check(result) -> Outcome:
        code, out, err = result
        problem = _cli_failure(code, 0, err)
        cycles = []
        if problem is None:
            lines = out.splitlines()
            cycles = [tuple(int(tok) for tok in line.split()) for line in lines[1:]]
            if lines[:1] != [f"max={triangles}"]:
                problem = f"answer {lines[:1]}, expected max={triangles}"
            else:
                problem = packing_problem(len(rows), str_arc(rows), 3, cycles)
            if problem is None and len(cycles) != triangles:
                problem = f"witness has {len(cycles)} triangles, expected {triangles}"
        return Outcome(problem, code == 0 and problem is not None, len(cycles), f"{code}\n{out}")

    return check


def check_qfree_pack(rows):
    min_deg = min(row.count("1") for row in rows)

    def check(result) -> Outcome:
        # A 7-cycle-free tournament admits no 7-cycle, so the target is missed.
        code, out, err = result
        problem = _cli_failure(code, 1, err)
        lines = out.splitlines()
        cycles = [line for line in lines if line.replace(" ", "").isdigit()]
        status = expected_status(min_deg, 7, 1, 0)
        if problem is None and f"status={status}" not in lines:
            problem = f"report lacks status={status}"
        if problem is None and cycles:
            problem = f"report lists {len(cycles)} cycles in a 7-cycle-free tournament"
        return Outcome(problem, code == 1 and problem is not None, 0, f"{code}\n{out}")

    return check


WORKLOADS = {w.name: w for w in (PackDense, PackMoves, ExactSearch, CeilingIo)}
