"""Command-line interface.

Exit codes: 0 success / target met; 1 valid run whose target was not met
(short packing, failed verification, or a search violator); 2 usage or
validation error; 3 exact computation refused (cycle cap); 4 internal error
(any other exception, reported in one line on stderr)."""

from __future__ import annotations

import argparse
import sys

from . import classic, gen, oracle, packer, trn
from .claims import CLAIM_IDS, run_claim_check
from .core import Cycle, CyclePacking, TournamentError
from .packer import PackBudget


def _read_tournament(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    return trn.loads(text)


def _parse_packing(text: str, q: int) -> CyclePacking:
    cycles: list[Cycle] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or "=" in line or line.startswith("MOVE"):
            continue
        cycles.append(tuple(int(tok) for tok in line.split()))
    return CyclePacking(q, tuple(cycles))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cyclemill")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pack", help="find disjoint q-cycles")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--input", required=True, help="TRN file or - for stdin")
    p.add_argument("--budget", type=int, default=None, help="max move attempts")
    p.add_argument("--format", choices=("text", "structured"), default="text")

    p = sub.add_parser("verify", help="check a packing document")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--packing", required=True)
    p.add_argument("--input", required=True)

    p = sub.add_parser("oracle", help="exact maximum disjoint q-cycles")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_CYCLE_CAP)

    p = sub.add_parser("gen", help="emit a tournament in TRN form")
    p.add_argument(
        "--kind",
        required=True,
        choices=("random", "rotational", "mindeg", "qfree") + gen.PLANTED_KINDS,
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--symbols", default=None, help="comma-separated residues")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("search", help="scan instances for packing violators")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--degree-floor", type=int, default=None)
    p.add_argument("--shards", type=int, default=1)

    p = sub.add_parser("claim-check", help="run a property suite")
    p.add_argument("--claim", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--q", type=int, default=9)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("hamcycle", help="print a Hamiltonian cycle (debugging)")
    p.add_argument("--input", required=True)
    return parser


def _require_seed(args) -> int:
    if args.seed is None:
        raise SystemExit(_usage_error("--seed is required for randomized commands"))
    return args.seed


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_pack(args) -> int:
    t = _read_tournament(args.input)
    budget = PackBudget(max_moves=args.budget)
    report = packer.pack(t, args.q, args.k, budget)
    if args.format == "structured":
        print(f"status={report.status}")
        print(f"q={report.packing.q}")
        print(f"k={report.k}")
        print(f"cycles={len(report.packing)}")
        for i, cycle in enumerate(report.packing.cycles):
            print(f"cycle_{i}={' '.join(str(v) for v in cycle)}")
        print(f"fallback={'true' if report.fallback_used else 'false'}")
        print(f"counterexample={'true' if report.flags_counterexample else 'false'}")
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.status == "target_met" else 1


def _cmd_verify(args) -> int:
    t = _read_tournament(args.input)
    with open(args.packing, "r", encoding="ascii") as fh:
        packing = _parse_packing(fh.read(), args.q)
    ok, detail = packer.verify_packing(t, packing, args.q, args.k)
    if ok:
        print(f"ok: {len(packing)} disjoint {args.q}-cycles")
        return 0
    print(f"invalid: {detail}")
    return 1


def _cmd_oracle(args) -> int:
    t = _read_tournament(args.input)
    count, witness = oracle.max_disjoint_q_cycles(t, args.q, args.limit, args.cap)
    print(f"max={count}")
    for cycle in witness.cycles:
        print(" ".join(str(v) for v in cycle))
    return 0


def _cmd_gen(args) -> int:
    kind = args.kind
    if kind == "rotational":
        if args.n is None or args.symbols is None:
            return _usage_error("rotational needs --n and --symbols")
        symbols = {int(tok) for tok in args.symbols.split(",")}
        t = gen.rotational_tournament(args.n, symbols)
    elif kind == "random":
        if args.n is None:
            return _usage_error("random needs --n")
        t = gen.random_tournament(args.n, _require_seed(args))
    elif kind == "mindeg":
        if args.n is None or args.d is None:
            return _usage_error("mindeg needs --n and --d")
        t = gen.min_degree_tournament(args.n, args.d, _require_seed(args))
    elif kind == "qfree":
        if args.n is None or args.q is None:
            return _usage_error("qfree needs --n and --q")
        t = gen.q_cycle_free_tournament(args.n, args.q, _require_seed(args))
    else:
        if args.q is None:
            return _usage_error(f"{kind} needs --q")
        t, _, _ = gen.planted_move_instance(kind, args.q, _require_seed(args))
    sys.stdout.write(trn.dumps(t))
    return 0


def _cmd_search(args) -> int:
    if args.mode == "random":
        seed = _require_seed(args)
    else:
        seed = args.seed if args.seed is not None else 0
    spec = oracle.SearchSpec(
        q=args.q,
        k=args.k,
        n_range=(args.n_min, args.n_max),
        mode=args.mode,
        sample_count=args.samples,
        seed=seed,
        degree_floor=args.degree_floor,
    )
    report = oracle.counterexample_search(spec, shards=args.shards)
    sys.stdout.write(report.to_text())
    return 0 if not report.violators else 1


def _cmd_claim_check(args) -> int:
    if args.claim not in CLAIM_IDS:
        return _usage_error(f"unknown claim id {args.claim!r}; known: {', '.join(CLAIM_IDS)}")
    report = run_claim_check(args.claim, args.trials, _require_seed(args), args.q)
    sys.stdout.write(report.to_text())
    return 0 if report.violations == 0 else 1


def _cmd_hamcycle(args) -> int:
    t = _read_tournament(args.input)
    cycle = classic.hamiltonian_cycle(t)
    print(" ".join(str(v) for v in cycle))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "pack": _cmd_pack,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
        "gen": _cmd_gen,
        "search": _cmd_search,
        "claim-check": _cmd_claim_check,
        "hamcycle": _cmd_hamcycle,
    }
    try:
        return handlers[args.command](args)
    except SystemExit as exc:  # re-raised argparse/usage failures
        code = exc.code
        return code if isinstance(code, int) else 2
    except oracle.OracleCapError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (TournamentError, trn.TrnParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # keep exit code 1 meaning "target missed" only
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
