"""Acceptance suite: the package's property-based exit criteria.

Each test prints one PASS/FAIL line (visible with ``pytest -s``).  The
seeded corpora are deterministic: the builders scan seeds in order and
keep connected instances, so every run sees the same graphs.
"""

from __future__ import annotations

import json
import time
from itertools import product

import pytest

from plutus import (
    PlutusConfig,
    backbone_stretch,
    brute_force_min_mcds,
    diversification,
    domination,
    is_connected,
    is_connected_dominating_set,
    is_k_dominating,
    is_m_connected,
    is_m_connected_k_dominating,
    is_maximal_independent_set,
    isolation,
    random_geometric,
    run_plutus,
    sustainability,
    synergy_layers,
)
from plutus.cli import main
from plutus.errors import GraphNotMConnectedError, PlutusError

from .conftest import structured_graphs
from .helpers import replay_witness

CORPUS_PLAN = [(30, 0.35, 67), (50, 0.28, 67), (100, 0.20, 66)]
SMALL_PLAN = [(8, 0.50, 20), (9, 0.48, 20), (10, 0.46, 20), (11, 0.44, 20), (12, 0.42, 20)]


def _criterion(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {number} {status}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def _build_connected_corpus(plan, base_seed=0):
    instances = []
    attempts = 0
    for n, radius, count in plan:
        accepted = 0
        seed = base_seed
        while accepted < count:
            attempts += 1
            g = random_geometric(n, radius, seed).graph()
            if is_connected(g):
                instances.append((n, radius, seed, g))
                accepted += 1
            seed += 1
    return instances, attempts


@pytest.fixture(scope="session")
def corpus():
    instances, attempts = _build_connected_corpus(CORPUS_PLAN)
    assert len(instances) == 200
    # the radii must make at least 90% of raw draws connected
    assert len(instances) / attempts >= 0.9
    return instances


@pytest.fixture(scope="session")
def small_corpus():
    instances, _ = _build_connected_corpus(SMALL_PLAN, base_seed=1000)
    assert len(instances) == 100
    return instances


@pytest.fixture(scope="session")
def corpus_backbones(corpus):
    """isolation + domination output per corpus instance (k-independent)."""
    out = []
    for n, radius, seed, g in corpus:
        mis, _ = isolation(g)
        out.append((n, radius, seed, g, mis, domination(g, mis)))
    return out


def test_isolation_is_maximal_independent_everywhere(corpus):
    start = time.perf_counter()
    failures = []
    for n, _, seed, g in corpus:
        mis, _ = isolation(g)
        ok, witness = is_maximal_independent_set(g, mis)
        if not ok:
            failures.append((n, seed, witness))
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "isolation yields a maximal independent set on 200 instances in < 5 s",
        not failures and elapsed < 5.0,
        f"failures={failures[:3]} elapsed={elapsed:.2f}s",
    )


def test_domination_builds_cds_and_stretch_stays_low(corpus_backbones):
    failures = []
    worst = (1.0, None, None)
    soft_violations = []
    for n, _, seed, g, _, cds in corpus_backbones:
        ok, witness = is_connected_dominating_set(g, cds)
        if not ok:
            failures.append((n, seed, witness))
            continue
        value, pair = backbone_stretch(g, cds)
        if value > worst[0]:
            worst = (value, (n, seed), pair)
        if value > 5.0:
            soft_violations.append((n, seed, value, pair))
    for n, seed, value, pair in soft_violations:
        print(f"  stretch above 5 on n={n} seed={seed}: {value:.3f} at {pair}")
    _criterion(
        2,
        "domination yields a CDS on 200 instances; max stretch reported",
        not failures,
        f"max_stretch={worst[0]:.3f} at {worst[1]} {worst[2]}; "
        f"soft_violations={len(soft_violations)}",
    )


def test_synergy_reaches_k_domination_with_disjoint_layers(corpus_backbones):
    failures = []
    checked = 0
    for k in (1, 2, 3):
        for n, _, seed, g, _, cds in corpus_backbones:
            if min(map(len, g.adjacency)) < k:
                continue
            checked += 1
            backbone, layers = synergy_layers(g, cds, k)
            ok, witness = is_k_dominating(g, backbone, k)
            if not ok:
                failures.append((n, seed, k, witness))
                continue
            covered: set[int] = set()
            for layer in layers:
                if layer & covered:
                    failures.append((n, seed, k, "layers-overlap"))
                    break
                covered |= layer
    _criterion(
        3,
        "synergy k-dominates for k in {1,2,3} with pairwise-disjoint layers",
        not failures and checked >= 200,
        f"checked={checked} failures={failures[:3]}",
    )


def test_connectivity_phases_reach_their_targets(corpus_backbones):
    failures = []
    two_checked = three_checked = 0
    for k in (1, 2, 3):
        for n, _, seed, g, _, cds in corpus_backbones:
            if min(map(len, g.adjacency)) < k:
                continue
            if not is_m_connected(g, range(g.node_count), 2):
                continue
            backbone, _ = synergy_layers(g, cds, k)
            widened = diversification(g, backbone)
            two_checked += 1
            if not is_m_connected(g, widened, 2):
                failures.append((n, seed, k, "not-2-connected"))
                continue
            if not is_k_dominating(g, widened, k)[0]:
                failures.append((n, seed, k, "k-dominance-lost-at-2"))
                continue
            if not is_m_connected(g, range(g.node_count), 3):
                continue
            hardened = sustainability(g, widened)
            three_checked += 1
            if not is_m_connected(g, hardened, 3):
                failures.append((n, seed, k, "not-3-connected"))
            elif not is_k_dominating(g, hardened, k)[0]:
                failures.append((n, seed, k, "k-dominance-lost-at-3"))
    _criterion(
        4,
        "diversification reaches 2-connectivity and sustainability 3-connectivity, "
        "k-dominance preserved",
        not failures and two_checked >= 100 and three_checked >= 50,
        f"2-conn-runs={two_checked} 3-conn-runs={three_checked} failures={failures[:3]}",
    )


def test_pipeline_matches_oracle_at_desk_scale(small_corpus, tmp_path):
    combos = list(product((1, 2, 3), (1, 2, 3)))
    graphs = [(f"udg-n{n}-s{seed}", g) for n, _, seed, g in small_corpus]
    graphs += list(structured_graphs().items())
    oracle_elapsed = 0.0
    failures = []
    ratios = []
    refused = 0
    for name, g in graphs:
        for k, m in combos:
            start = time.perf_counter()
            oracle = brute_force_min_mcds(g, k, m)
            oracle_elapsed += time.perf_counter() - start
            if not is_connected(g):
                continue
            try:
                result = run_plutus(g, PlutusConfig(k=k, m=m))
            except GraphNotMConnectedError:
                # at k >= m a backbone would make the graph m-connected
                refused += 1
                if k >= m and oracle.feasible:
                    failures.append((name, k, m, "refused-but-oracle-feasible"))
                continue
            except PlutusError as exc:
                failures.append((name, k, m, f"pipeline-error:{exc}"))
                continue
            if not is_m_connected_k_dominating(g, result.dominating_set, k, m).overall:
                failures.append((name, k, m, "certificate-failed"))
                continue
            if oracle.feasible:
                ratios.append(len(result.dominating_set) / oracle.optimum_size)
            else:
                failures.append((name, k, m, "oracle-infeasible-but-pipeline-succeeded"))
    # ratio summary also flows through the bench command
    bench_out = tmp_path / "bench.json"
    main(["bench", "-n", "10,12", "-r", "0.45", "--seeds", "1000..1004",
          "-k", "2", "-m", "2", "--out", str(bench_out)])
    summary = json.loads(bench_out.read_text())["summary"]
    mean_ratio = sum(ratios) / len(ratios)
    _criterion(
        5,
        "pipeline output verifies and stays within finite ratio of the oracle optimum",
        not failures and oracle_elapsed < 60.0 and "mean_ratio" in summary,
        f"runs={len(ratios)} refused={refused} mean_ratio={mean_ratio:.3f} "
        f"max_ratio={max(ratios):.3f} "
        f"oracle_time={oracle_elapsed:.1f}s bench_mean={summary.get('mean_ratio')}",
    )


def test_end_to_end_determinism(tmp_path, monkeypatch, capsys):
    # ten consecutive seeds whose instances are all connected
    base = 0
    while True:
        graphs = [random_geometric(20, 0.45, base + i).graph() for i in range(10)]
        if all(is_connected(g) for g in graphs):
            break
        base += 1
    artifacts: list[dict[str, bytes]] = []
    for attempt in ("first", "second"):
        root = tmp_path / attempt
        root.mkdir()
        monkeypatch.chdir(root)  # identical relative paths on both attempts
        assert main(["generate", "-n", "20", "-r", "0.45", "--seed", str(base),
                     "--count", "10", "--out", "instances"]) == 0
        produced: dict[str, bytes] = {}
        for path in sorted((root / "instances").iterdir()):
            produced[f"gen/{path.name}"] = path.read_bytes()
        for i in range(10):
            instance = f"instances/udg_n20_r0.45_s{base + i}.json"
            result = f"result_{i}.json"
            assert main(["solve", instance, "-k", "2", "-m", "1",
                         "--out", result]) == 0
            produced[f"solve/{result}"] = (root / result).read_bytes()
            produced[f"solve/{result}.manifest"] = (
                root / f"result_{i}.manifest.json"
            ).read_bytes()
            capsys.readouterr()
            assert main(["verify", instance, result]) == 0
            produced[f"verify/{result}"] = capsys.readouterr().out.encode()
        artifacts.append(produced)
    identical = artifacts[0] == artifacts[1]
    mismatch = [k for k in artifacts[0] if artifacts[0][k] != artifacts[1].get(k)]
    _criterion(
        6,
        "generate -> solve -> verify is byte-identical across repeated runs",
        identical,
        f"files={len(artifacts[0])} base_seed={base} mismatch={mismatch[:3]}",
    )


def test_large_instance_within_budget():
    start = time.perf_counter()
    g = random_geometric(1000, 0.09, 7).graph()
    result = run_plutus(g, PlutusConfig(k=2, m=3))
    report = is_m_connected_k_dominating(g, result.dominating_set, 2, 3)
    elapsed = time.perf_counter() - start
    _criterion(
        7,
        "n=1000 pipeline with k=2, m=3 solves and verifies in < 30 s",
        report.overall and elapsed < 30.0,
        f"|D|={len(result.dominating_set)} elapsed={elapsed:.1f}s",
    )


def test_corrupted_results_fail_with_replayable_witness(small_corpus):
    corruptions = 0
    replayed = 0
    for n, _, seed, g in small_corpus:
        if corruptions >= 50:
            break
        for k, m in ((1, 1), (2, 1), (1, 2)):
            try:
                result = run_plutus(g, PlutusConfig(k=k, m=m))
            except PlutusError:
                continue
            backbone = set(result.dominating_set)
            assert is_m_connected_k_dominating(g, backbone, k, m).overall
            for victim in sorted(backbone):
                corrupted = backbone - {victim}
                if not corrupted:
                    continue
                report = is_m_connected_k_dominating(g, corrupted, k, m)
                if report.overall:
                    continue
                corruptions += 1
                for check in report.checks:
                    if not check.passed:
                        replay_witness(g, corrupted, k, check.witness)
                replayed += 1
                break
            if corruptions >= 50:
                break
    _criterion(
        8,
        "50 corrupted results fail verification with witnesses that replay",
        corruptions >= 50 and replayed == corruptions,
        f"corruptions={corruptions} replayed={replayed}",
    )
