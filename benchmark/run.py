"""Plutus benchmark: one workload, one run, one JSON line of results.

    python3 benchmark/run.py --workload udg-m3 --seed 1 --seconds 10 --trace 0

The run drives ``plutus.cli.main`` in-process on the workload's instance
files.  It sets up the inputs several times and keeps the median, then
repeats whole rounds of solve / verify / oracle calls until ``--seconds``
have passed (at least one round), checks every output with the
independent checker in ``checker.py``, and prints the metrics as the last
line of standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced and one traced round and reports the
per-layer metrics from spans recorded around the calls into each module.

Times are wall times scaled to a reference host speed (see ``speed.py``);
the table printed before the JSON line shows the raw wall times too.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from corpus import WORKLOADS, Op, run_cli, set_up
from speed import Clock

ROOT = Path(__file__).resolve().parent.parent
# The set-up is repeated at least this often and for at least this long,
# so that a set-up of a few milliseconds still gives a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
# Exit codes that mean the call ran to its verdict: verify answers 6 when
# the backbone is invalid, which the checker then confirms.
COMPLETED = {"solve": (0,), "verify": (0, 6), "oracle": (0,)}
PHASES = ("isolation", "domination", "synergy", "diversification", "sustainability")


def _call(op: Op, tracer) -> tuple[int, str]:
    if tracer is None:
        return run_cli(op.argv)
    span = tracer.open(f"cli.{op.kind}")
    try:
        return run_cli(op.argv)
    finally:
        tracer.close(span)


def run_round(ops: list[Op], tracer=None) -> tuple[Clock, list[tuple[int, str]]]:
    """Every operation once, in order; returns the round's clock and each
    operation's (exit code, output)."""
    clock = Clock()
    outputs = []
    for op in ops:
        if op.output is not None:
            op.output.unlink(missing_ok=True)
        code, out = clock.time(op.kind, _call, op, tracer)
        if op.output is not None:
            out = op.output.read_text(encoding="utf-8") if op.output.exists() else ""
        outputs.append((code, out))
    return clock, outputs


def failed_ops(ops: list[Op], outputs: list[tuple[int, str]]) -> list[bool]:
    return [code not in COMPLETED[op.kind] for op, (code, _) in zip(ops, outputs)]


def check_outputs(ops: list[Op], outputs: list[tuple[int, str]]) -> tuple[list[str], dict]:
    """Independent check of one round.  Returns the problems found and the
    quality figures (backbone sizes, oracle optima)."""
    import checker

    problems: list[str] = []
    adjacency: dict[Path, list[set[int]]] = {}
    solved: dict[str, int] = {}
    verified_sizes: list[int] = []
    optima: dict[str, int] = {}

    def adj(path: Path) -> list[set[int]]:
        if path not in adjacency:
            adjacency[path] = checker.adjacency_from_file(path)
        return adjacency[path]

    for op, (code, out), failed in zip(ops, outputs, failed_ops(ops, outputs)):
        if failed:
            continue
        inst = op.instance
        try:
            if op.kind == "solve":
                payload = json.loads(out)
                d = set(payload["D"])
                k, m = payload["k"], payload["m"]
                if (k, m) != (inst.group.k, inst.group.m):
                    problems.append(f"{inst.name}: result echoes k={k} m={m}")
                if not checker.is_backbone(adj(inst.path), d, k, m):
                    problems.append(f"{inst.name}: solve result is not a backbone")
                solved[inst.name] = len(d)
            elif op.kind == "verify":
                result = json.loads(op.result.read_text(encoding="utf-8"))
                d = set(result["D"])
                m = int(op.argv[op.argv.index("-m") + 1]) if "-m" in op.argv else result["m"]
                report = json.loads(out)
                if (code == 0) != report["overall"]:
                    problems.append(f"{inst.name}: exit {code} against verdict {report['overall']}")
                if inst.group.reject and (code != 6 or report["overall"]):
                    problems.append(f"{inst.name}: verify -m {m} accepted an m = 2 backbone, "
                                    "so the rejection path did not run")
                issue = checker.check_report(adj(inst.path), d, result["k"], m, report)
                if issue:
                    problems.append(f"{inst.name}: verify {issue}")
                verified_sizes.append(len(d))
            else:
                payload = json.loads(out)
                witness = set(payload["witness"] or ())
                k, m = inst.group.k, inst.group.m
                if not payload["feasible"] or len(witness) != payload["optimum_size"]:
                    problems.append(f"{inst.name}: oracle reported {payload}")
                elif not checker.is_backbone(adj(inst.path), witness, k, m):
                    problems.append(f"{inst.name}: oracle set is not a backbone")
                elif inst.name in solved and solved[inst.name] < payload["optimum_size"]:
                    problems.append(f"{inst.name}: |D| {solved[inst.name]} below optimum")
                optima[inst.name] = payload["optimum_size"]
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"{inst.name}: {op.kind} output unreadable: {exc!r}")
    quality = {
        "backbone_size": sum(verified_sizes),
        "oracle_d": sum(solved[name] for name in optima if name in solved),
        "oracle_opt": sum(optima.values()),
    }
    return problems, quality


def repeat_problems(ops: list[Op], first, later, produced: dict[str, bytes]) -> list[str]:
    """Every operation must give the same bytes each time it runs, and a
    solve must also match the set-up's solve of the same graph."""
    problems = []
    for op, (_, out) in zip(ops, first):
        made = produced.get(op.instance.name) if op.kind == "solve" else None
        if made is not None and made != out.encode("utf-8"):
            problems.append(f"{op.instance.name}: round solve differs from set-up solve")
    for outputs in later:
        for op, a, b in zip(ops, first, outputs):
            if a != b:
                problems.append(f"{op.instance.name}: {op.kind} output differs between rounds")
    return problems


def set_up_repeatedly(workload: str, seed: int, work: Path):
    """The set-up, repeated from scratch.  Returns the last operations, the
    median set-up time (raw and scaled) and the result bytes the set-up
    produced, or None when repeats produced different bytes."""
    raw, scaled, produced = [], [], []
    start = time.perf_counter()
    while len(raw) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        shutil.rmtree(work, ignore_errors=True)
        clock = Clock()
        ops, made = clock.time("setup", set_up, workload, seed, work)
        raw.append(clock.raw["setup"])
        scaled.append(clock.scaled["setup"])
        produced.append(made)
    same = all(made == produced[0] for made in produced)
    return ops, (statistics.median(raw), statistics.median(scaled)), produced[0] if same else None


def measured_run(args, work: Path) -> dict:
    ops, setup_s, produced = set_up_repeatedly(args.workload, args.seed, work)
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(ops))
        if time.perf_counter() - start >= args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = rounds[0][1]
    problems, quality = check_outputs(ops, first)
    if produced is None:
        problems.append("set-up solves differ between repeats")
    problems += repeat_problems(ops, first, [outputs for _, outputs in rounds[1:]], produced or {})
    failed = sum(sum(failed_ops(ops, outputs)) for _, outputs in rounds)

    def median(kind: str, raw: bool = False) -> float:
        return statistics.median(
            (clock.raw if raw else clock.scaled)[kind] for clock, _ in rounds
        )

    print("wall seconds before scaling: " + "  ".join(
        f"{kind}_s {median(kind, raw=True):.4f}" for kind in ("solve", "verify", "oracle")
    ) + f"  setup_s {setup_s[0]:.4f}")
    metrics = {
        "solve_s": (median("solve"), "s"),
        "verify_s": (median("verify"), "s"),
        "oracle_s": (median("oracle"), "s"),
        "setup_s": (setup_s[1], "s"),
        "backbone_size": (quality["backbone_size"], "count"),
        "approx_ratio": (quality["oracle_d"] / max(quality["oracle_opt"], 1), "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return report(args, problems, len(rounds) * len(ops), failed, metrics, len(rounds))


def traced_run(args, work: Path) -> dict:
    from tracing import Tracer

    import plutus
    from plutus.serialize import load_graph

    tracer = Tracer()
    shutil.rmtree(work, ignore_errors=True)
    tracer.install()
    try:
        span = tracer.open("bench.setup")
        ops, produced = set_up(args.workload, args.seed, work)
        tracer.close(span)
    finally:
        tracer.uninstall()
    untraced, plain_outputs = run_round(ops)
    tracer.install()
    try:
        traced, outputs = run_round(ops, tracer)
    finally:
        tracer.uninstall()
    tracer.write(work / "spans.jsonl")

    problems, _ = check_outputs(ops, outputs)
    problems += repeat_problems(ops, plain_outputs, [outputs], produced)
    # The phases composed one by one through the public API must give the
    # backbone that run_plutus gave inside the CLI.
    for op, (code, out) in zip(ops, outputs):
        if op.kind != "solve" or code != 0:
            continue
        g, _ = load_graph(op.instance.path)
        k, m = op.instance.group.k, op.instance.group.m
        d = plutus.domination(g, plutus.isolation(g)[0])
        d, _ = plutus.synergy_layers(g, d, k)
        if m >= 2:
            d = plutus.diversification(g, d)
        if m == 3:
            d = plutus.sustainability(g, d)
        if sorted(d) != json.loads(out)["D"]:
            problems.append(f"{op.instance.name}: composed phases differ from run_plutus")

    spans = tracer.spans
    net = tracer.net_durations(traced.pauses)

    def total(*names: str, under: str | None = None) -> float:
        return sum(
            duration
            for s, duration in zip(spans, net)
            if s.name in names
            and (under is None or (s.parent is not None and spans[s.parent].name == under))
        )

    metrics: dict[str, tuple[float, str]] = {
        "geometry.random_geometric_s": (total("geometry.random_geometric"), "s"),
        "graph.from_points_s": (total("graph.from_points"), "s"),
        "graph.edges": (
            sum(s.result.edge_count() for s in spans if s.name == "graph.from_points"),
            "count",
        ),
        "graph.preflight_s": (total("graph.preflight"), "s"),
    }
    for phase in PHASES:
        metrics[f"pipeline.{phase}_s"] = (total(f"pipeline.{phase}"), "s")
    added = {phase: 0 for phase in PHASES}
    for op, (code, out) in zip(ops, outputs):
        if op.kind == "solve" and code == 0:
            for entry in json.loads(out)["phases"]:
                added[entry["name"]] += len(entry["added"])
    for phase in PHASES:
        metrics[f"pipeline.{phase}.added"] = (added[phase], "count")
    run_plutus = total("pipeline.run_plutus")
    inner = total("graph.preflight", *(f"pipeline.{p}" for p in PHASES), under="pipeline.run_plutus")
    metrics["pipeline.run_plutus_s"] = (run_plutus, "s")
    metrics["pipeline.run_plutus_self_s"] = (run_plutus - inner, "s")
    check = total("verify.check")
    children = total("verify.k_dominating", "verify.m_connected", under="verify.check")
    metrics.update({
        "verify.check_s": (check, "s"),
        "verify.k_dominating_s": (total("verify.k_dominating"), "s"),
        "verify.m_connected_s": (total("verify.m_connected"), "s"),
        "verify.witness_s": (check - children, "s"),
        "verify.stretch_s": (total("verify.stretch"), "s"),
        "verify.oracle_s": (total("verify.oracle"), "s"),
        "verify.oracle_sets_examined": (
            sum(s.result.sets_examined for s in spans if s.name == "verify.oracle"),
            "count",
        ),
        "serialize.graph_from_dict_s": (total("serialize.graph_from_dict"), "s"),
        "serialize.result_dump_s": (
            total("serialize.result_to_dict", "serialize.dumps", under="cli.solve"), "s"
        ),
        "serialize.result_load_s": (
            total("serialize.read_json", "serialize.result_from_dict", under="cli.verify"), "s"
        ),
    })
    self_times = tracer.self_times(net)
    for layer in ("cli", "geometry", "graph", "pipeline", "verify", "serialize"):
        metrics[f"{layer}.self_s"] = (self_times.get(layer, 0.0), "s")
    metrics["trace.solve_untraced_s"] = (untraced.scaled["solve"], "s")
    metrics["trace.solve_traced_s"] = (traced.scaled["solve"], "s")
    metrics["trace.overhead_ratio"] = (traced.scaled["solve"] / untraced.scaled["solve"], "ratio")
    failed = sum(failed_ops(ops, outputs)) + sum(failed_ops(ops, plain_outputs))
    return report(args, problems, 2 * len(ops), failed, metrics, 2)


def report(args, problems, attempted, failed, metrics, rounds) -> dict:
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"operations {attempted}  failed {failed}  correct {not problems}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:14.6f} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "plutus" / "__init__.py").is_file():
        print(f"error: Plutus sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = ROOT / ".bench_work" / args.workload
    result = traced_run(args, work) if args.trace else measured_run(args, work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
