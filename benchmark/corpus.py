"""Workloads of the Plutus benchmark and the set-up that writes their inputs.

Every instance is a seeded unit-disk graph from ``plutus.random_geometric``.
The base seeds below were picked as the lowest seeds (counting from 1)
whose graph passes the preflight of its group (2- or 3-connected), so no
solve is rejected; ``python3 benchmark/corpus.py`` re-checks them.  The
benchmark's ``--seed`` permutes the point order of each relabelled
instance: connectivity is invariant under relabelling, but every lowest-id
tie-break, the bad-point order and the oracle's enumeration order move.
"""

from __future__ import annotations

import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path


@dataclass(frozen=True)
class Group:
    """Instances of one size, solved and checked alike.

    ``reject`` groups are solved at m = 2 during set-up, which also writes
    the backbone relabelled for the reversed point order; each round solves
    them again and verifies both orders at m = 3, so the rejection path
    runs.  ``relabel`` lets the benchmark seed permute the point order.
    """

    n: int
    radius: float
    bases: tuple[int, ...]
    k: int
    m: int
    relabel: bool = True
    oracle: bool = False
    reject: bool = False


# The oracle stops at the first valid set in id order, so a relabelling
# moves its cost by up to 2.5x per graph (a quartile spread of 0.23 over
# twelve graphs, measured); oracle graphs keep the generated order.
SMALL = tuple(
    Group(n, 0.45, bases, k=2, m=3, relabel=False, oracle=True)
    for n, bases in ((18, (2, 4, 10, 12)), (19, (2, 4, 10, 11)), (20, (2, 4, 10, 11)))
)
# A run prints every end-to-end metric, oracle_s and approx_ratio included,
# and every per-layer metric as a measured, non-zero value.  So the four
# n = 18 small graphs ride along in the other workloads as probes: they
# bring the oracle, and an m = 3 solve, so that sustainability has a span
# in the m = 2 workloads too (a few milliseconds of a round there).
PROBES = SMALL[0]

WORKLOADS: dict[str, tuple[Group, ...]] = {
    "udg-m3": (
        Group(1000, 0.07, (4,), k=2, m=3),
        Group(2000, 0.05, (2,), k=2, m=3),
        PROBES,
    ),
    "udg-m2-corpus": (
        Group(200, 0.16, (1, 2, 3, 4, 5, 6, 7, 9), k=2, m=2),
        Group(500, 0.1, (1, 2, 3, 4), k=2, m=2),
        PROBES,
    ),
    # The witness search tries pairs in id order, so its cost hinges on the
    # ids of the first separating pair; a relabelling moves it by more than
    # 10x per set.  These sets therefore keep the generated order.
    "verify-reject": (
        Group(1000, 0.07, (1,), k=2, m=2, relabel=False, reject=True),
        PROBES,
    ),
    "small-oracle": SMALL,
}


@dataclass(frozen=True)
class Instance:
    name: str
    group: Group
    path: Path


@dataclass(frozen=True)
class Op:
    """One CLI call of a round.  ``output`` names the file the call writes,
    or is None when its result is what it prints."""

    kind: str
    instance: Instance
    argv: tuple[str, ...]
    output: Path | None = None
    result: Path | None = None


def run_cli(argv) -> tuple[int, str]:
    """``plutus.cli.main`` in-process; returns (exit code, stdout)."""
    from plutus.cli import main

    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def _points(group: Group, base: int, seed: int):
    from plutus.geometry import random_geometric

    points = list(random_geometric(group.n, group.radius, base).points)
    if group.relabel:
        random.Random(f"{seed}/{group.n}/{base}").shuffle(points)
    return points


def _write_instance(path: Path, points, radius: float) -> None:
    from plutus.geometry import UdgInstance
    from plutus.serialize import udg_to_dict, write_json

    write_json(path, udg_to_dict(UdgInstance(tuple(points), radius)))


def set_up(workload: str, seed: int, work: Path) -> tuple[list[Op], dict[str, bytes]]:
    """Write every instance file of the workload under ``work`` and return
    the operations of one round plus the bytes of any result produced
    here (the m = 2 backbones of ``reject`` groups)."""
    from plutus.serialize import read_json, write_json

    work.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    produced: dict[str, bytes] = {}
    for group in WORKLOADS[workload]:
        for base in group.bases:
            name = f"n{group.n}_b{base}"
            points = _points(group, base, seed)
            path = work / f"{name}.json"
            _write_instance(path, points, group.radius)
            inst = Instance(name, group, path)
            result = work / f"{name}.result.json"
            if group.reject:
                code, _ = run_cli(
                    ["solve", path, "-k", group.k, "-m", group.m, "--out", result]
                )
                if code != 0:
                    raise RuntimeError(f"set-up solve of {name} exited {code}")
                produced[name] = result.read_bytes()
                rev = Instance(f"{name}_rev", group, work / f"{name}_rev.json")
                _write_instance(rev.path, points[::-1], group.radius)
                payload = read_json(result)
                rev_result = work / f"{name}_rev.result.json"
                write_json(
                    rev_result,
                    {
                        "schema": 1,
                        "D": sorted(group.n - 1 - v for v in payload["D"]),
                        "k": payload["k"],
                        "m": payload["m"],
                    },
                )
            ops.append(
                Op(
                    "solve",
                    inst,
                    ("solve", path, "-k", group.k, "-m", group.m, "--out", result),
                    output=result,
                )
            )
            if group.reject:
                for target, res in ((inst, result), (rev, rev_result)):
                    ops.append(
                        Op("verify", target, ("verify", target.path, res, "-m", 3), result=res)
                    )
                continue
            ops.append(Op("verify", inst, ("verify", path, result), result=result))
            if group.oracle:
                ops.append(
                    Op("oracle", inst, ("oracle", path, "-k", group.k, "-m", group.m))
                )
    return ops, produced


def _check_bases() -> int:
    """Confirm that every base graph passes its group's preflight."""
    from plutus import is_m_connected, random_geometric

    bad = 0
    for workload, groups in WORKLOADS.items():
        for group in groups:
            for base in group.bases:
                g = random_geometric(group.n, group.radius, base).graph()
                ok = is_m_connected(g, range(g.node_count), group.m)
                bad += not ok
                print(f"{workload:14} n={group.n:<5} r={group.radius:<5} "
                      f"seed={base:<3} m={group.m} edges={g.edge_count():<6} "
                      f"{'ok' if ok else 'FAILS PREFLIGHT'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(_check_bases())
