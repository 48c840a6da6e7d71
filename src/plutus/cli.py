"""Command-line front end: generate instances, solve, verify, compare to
the oracle, benchmark.

Exit codes: 0 ok; 2 parse/input error; 3 the graph is empty or
disconnected, or a phase could not make the backbone m-connected; 6
verification failure.  The seed falls back to
the PLUTUS_SEED environment variable, then to 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from .errors import (
    DisconnectedInputError,
    EmptyGraphError,
    GraphInputError,
    GraphNotMConnectedError,
    OracleSizeError,
)
from .geometry import random_geometric
from .pipeline import PlutusConfig, run_plutus
from .serialize import (
    dumps,
    load_graph,
    manifest_to_dict,
    oracle_to_dict,
    read_json,
    report_to_dict,
    result_from_dict,
    result_to_dict,
    to_dot,
    udg_to_dict,
    write_json,
)
from .verify import backbone_stretch, brute_force_min_mcds, is_m_connected_k_dominating

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_VERIFY_FAILED = 6

_EXIT_CODES = {
    GraphInputError: EXIT_INPUT,
    OracleSizeError: EXIT_INPUT,
    OSError: EXIT_INPUT,
    GraphNotMConnectedError: EXIT_REFUSED,
    DisconnectedInputError: EXIT_REFUSED,
    EmptyGraphError: EXIT_REFUSED,
}


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("PLUTUS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise GraphInputError(f"PLUTUS_SEED must be an integer, got {env!r}") from exc
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    seed = _default_seed(args.seed)
    if args.count < 1:
        raise GraphInputError(f"--count must be at least 1, got {args.count}")
    # Only the seed changes between instances, so the first one validates n
    # and the radius for all of them before anything is written; each is
    # then written as it is made, and only one is held at a time.
    instance = random_geometric(args.n, args.radius, seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for offset in range(args.count):
        if offset:
            instance = random_geometric(args.n, args.radius, seed + offset)
        name = f"udg_n{args.n}_r{args.radius:g}_s{seed + offset}.json"
        write_json(out_dir / name, udg_to_dict(instance))
        outputs.append(name)
    write_json(
        out_dir / "manifest.json",
        manifest_to_dict(
            "generate",
            seed,
            [],
            outputs,
            {"n": args.n, "radius": args.radius, "count": args.count},
        ),
    )
    print(f"wrote {len(outputs)} instances to {out_dir}")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    g = load_graph(args.input)[0]
    cfg = PlutusConfig(k=args.k, m=args.m)
    result = run_plutus(g, cfg)
    payload = result_to_dict(result, cfg)
    text = dumps(payload)
    outputs = []
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        outputs.append(args.out)
        write_json(
            Path(args.out).with_suffix(".manifest.json"),
            manifest_to_dict("solve", None, [str(args.input)], outputs, dataclasses.asdict(cfg)),
        )
    else:
        sys.stdout.write(text)
    if args.dot:
        Path(args.dot).write_text(
            to_dot(g, result.dominating_set), encoding="utf-8"
        )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if math.isnan(args.stretch_threshold):
        # Every comparison with NaN is false, so such a threshold never warns.
        raise GraphInputError("--stretch-threshold must be a number, got nan")
    g = load_graph(args.graph)[0]
    backbone, k_file, m_file = result_from_dict(read_json(args.result))
    k = args.k if args.k is not None else k_file
    m = args.m if args.m is not None else m_file
    report = is_m_connected_k_dominating(g, backbone, k, m)
    stretch = None
    if report.overall:
        stretch = backbone_stretch(g, backbone)
        if stretch[0] > args.stretch_threshold:
            print(
                f"warning: max stretch {stretch[0]:.3f} exceeds "
                f"soft threshold {args.stretch_threshold:g}",
                file=sys.stderr,
            )
    sys.stdout.write(dumps(report_to_dict(report, stretch)))
    return EXIT_OK if report.overall else EXIT_VERIFY_FAILED


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)[0]
    result = brute_force_min_mcds(g, args.k, args.m, args.size_cap)
    sys.stdout.write(dumps(oracle_to_dict(result, args.k, args.m)))
    return EXIT_OK


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise GraphInputError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_seed_range(text: str) -> Sequence[int]:
    """Either 'a..b' (inclusive, kept as a range) or a comma-separated list."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            return range(int(lo), int(hi) + 1)
        except ValueError as exc:
            raise GraphInputError(f"bad seed range {text!r}") from exc
    return _parse_int_list(text)


def _cmd_bench(args: argparse.Namespace) -> int:
    ns = _parse_int_list(args.n)
    seeds = _parse_seed_range(args.seeds) if args.seeds else [_default_seed(args.seed)]
    if not ns:
        raise GraphInputError(f"-n {args.n!r} names no node count")
    if not seeds:
        raise GraphInputError(f"--seeds {args.seeds!r} names no seed")
    cfg = PlutusConfig(k=args.k, m=args.m)
    rows = []
    for n in ns:
        for seed in seeds:
            g = random_geometric(n, args.radius, seed).graph()
            row: dict = {"n": n, "seed": seed}
            try:
                result = run_plutus(g, cfg)
            except DisconnectedInputError:
                row.update(status="skipped", note="disconnected")
            except GraphNotMConnectedError:
                row.update(status="skipped", note=f"not {args.m}-connected")
            else:
                report = is_m_connected_k_dominating(
                    g, result.dominating_set, args.k, args.m
                )
                stretch, _ = backbone_stretch(g, result.dominating_set)
                row.update(
                    status="ok",
                    backbone=len(result.dominating_set),
                    phase_sizes={p.name: p.size for p in result.phase_trace},
                    phase_micros={p.name: p.micros for p in result.phase_trace},
                    verified=report.overall,
                    max_stretch=round(stretch, 4),
                )
                if n <= 14:
                    # the returned backbone is feasible, so the oracle has an optimum
                    oracle = brute_force_min_mcds(g, args.k, args.m)
                    row["ratio"] = round(len(result.dominating_set) / oracle.optimum_size, 4)
            rows.append(row)
    solved = [r for r in rows if r["status"] == "ok"]
    summary = {
        "instances": len(rows),
        "solved": len(solved),
        "skipped": len(rows) - len(solved),
        "mean_backbone": (
            round(sum(r["backbone"] for r in solved) / len(solved), 3) if solved else None
        ),
        "all_verified": all(r["verified"] for r in solved) if solved else True,
        "max_stretch": max((r["max_stretch"] for r in solved), default=None),
    }
    ratios = [r["ratio"] for r in solved if "ratio" in r]
    if ratios:
        summary["mean_ratio"] = round(sum(ratios) / len(ratios), 4)
        summary["max_ratio"] = max(ratios)
    _print_bench_table(rows, summary)
    if args.out:
        write_json(args.out, {"schema": 1, "rows": rows, "summary": summary})
    return EXIT_OK


def _print_bench_table(rows: list[dict], summary: dict) -> None:
    header = f"{'n':>6} {'seed':>6} {'status':>8} {'|D|':>5} {'verified':>9} {'stretch':>8} {'ratio':>7}"
    print(header)
    print("-" * len(header))
    for row in rows:
        if row["status"] != "ok":
            print(
                f"{row['n']:>6} {row['seed']:>6} {row['status']:>8} "
                f"{'-':>5} {'-':>9} {'-':>8} {'-':>7}  ({row['note']})"
            )
            continue
        ratio = row.get("ratio")
        print(
            f"{row['n']:>6} {row['seed']:>6} {row['status']:>8} "
            f"{row['backbone']:>5} {str(row['verified']):>9} "
            f"{row['max_stretch']:>8.3f} {ratio if ratio is not None else '-':>7}"
        )
    print("-" * len(header))
    print(
        f"instances={summary['instances']} solved={summary['solved']} "
        f"skipped={summary['skipped']} all_verified={summary['all_verified']}"
    )


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", type=int, required=True, help="nodes per instance")
    p.add_argument("-r", "--radius", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", default=".", help="output directory")


def _solve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("input")
    p.add_argument("-k", type=int, default=1)
    p.add_argument("-m", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--out", default=None, help="result JSON path")
    p.add_argument("--dot", default=None, help="also write a DOT rendering")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("result")
    p.add_argument("-k", type=int, default=None)
    p.add_argument("-m", type=int, default=None, choices=(1, 2, 3))
    p.add_argument("--stretch-threshold", type=float, default=5.0)


def _oracle_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=1)
    p.add_argument("-m", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--size-cap", type=int, default=None)


def _bench_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", required=True, help="comma-separated node counts")
    p.add_argument("-r", "--radius", type=float, required=True)
    p.add_argument("--seeds", default=None, help="a..b range or comma list")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-k", type=int, default=1)
    p.add_argument("-m", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--out", default=None, help="JSON summary path")


# Every command: its help line, what adds its arguments, and its handler,
# in the order the top-level usage lists them.
_COMMANDS = {
    "generate": ("write seeded unit-disk instances", _generate_arguments, _cmd_generate),
    "solve": ("run the pipeline on a graph file", _solve_arguments, _cmd_solve),
    "verify": ("check a result file against its graph", _verify_arguments, _cmd_verify),
    "oracle": ("exhaustive optimum for small graphs", _oracle_arguments, _cmd_oracle),
    "bench": ("solve+verify a seeded corpus", _bench_arguments, _cmd_bench),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``plutus`` parser.  When ``command`` names a command, only its
    subparser is built, and the usage lists every command through the
    subparsers' metavar.  Otherwise all are built, with no metavar:
    argparse names the command argument by its metavar before its dest,
    which would change the "invalid choice" and "required" errors."""
    parser = argparse.ArgumentParser(
        prog="plutus",
        description="Construct and verify m-connected k-dominating backbones.",
    )
    one = command in _COMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{%s}" % ",".join(_COMMANDS) if one else None
    )
    for name in (command,) if one else _COMMANDS:
        help_text, add_arguments, _ = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A command named first takes every later word, so no other subparser
    # is read, and the one top-level error left prints the usage the
    # metavar keeps.  Any other argv (help, a misspelt command, an option
    # before the command) builds them all: its message may need any of them.
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return _COMMANDS[args.command][2](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
