from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plutus import cli
from plutus.cli import main
from plutus.serialize import dumps, write_json

from .conftest import complete_graph, path_graph


def _write_graph(path: Path, g) -> Path:
    write_json(path, {"schema": 1, "n": g.node_count, "edges": list(g.edges())})
    return path


@pytest.fixture
def p3_file(tmp_path):
    return _write_graph(tmp_path / "p3.json", path_graph(3))


@pytest.fixture
def k4_file(tmp_path):
    return _write_graph(tmp_path / "k4.json", complete_graph(4))


class TestGenerate:
    def test_writes_count_files_deterministically(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = main(
                ["generate", "-n", "20", "-r", "0.3", "--seed", "7", "--count", "3",
                 "--out", str(out)]
            )
            assert code == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == [
            "manifest.json",
            "udg_n20_r0.3_s7.json",
            "udg_n20_r0.3_s8.json",
            "udg_n20_r0.3_s9.json",
        ]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_each_instance_is_written_before_the_next_is_made(self, tmp_path, monkeypatch):
        events = []
        make, write = cli.random_geometric, cli.write_json

        def spy_make(n, radius, seed):
            events.append(("make", seed))
            return make(n, radius, seed)

        def spy_write(path, payload):
            events.append(("write", Path(path).name))
            write(path, payload)

        monkeypatch.setattr(cli, "random_geometric", spy_make)
        monkeypatch.setattr(cli, "write_json", spy_write)
        argv = ["generate", "-n", "5", "-r", "0.3", "--seed", "7", "--count", "3"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert events == [
            ("make", 7), ("write", "udg_n5_r0.3_s7.json"),
            ("make", 8), ("write", "udg_n5_r0.3_s8.json"),
            ("make", 9), ("write", "udg_n5_r0.3_s9.json"),
            ("write", "manifest.json"),
        ]

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLUTUS_SEED", "11")
        out = tmp_path / "env"
        assert main(["generate", "-n", "5", "-r", "0.3", "--out", str(out)]) == 0
        assert (out / "udg_n5_r0.3_s11.json").exists()

    @pytest.mark.parametrize("env, argv, message", [
        ("abc", ["generate", "-n", "5", "-r", "0.3"], "PLUTUS_SEED must be an integer"),
        (None, ["bench", "-n", "10", "-r", "0.4", "--seeds", "1..x"], "bad seed range"),
        (None, ["bench", "-n", "x", "-r", "0.4", "--seeds", "1"], "comma-separated integers"),
    ])
    def test_malformed_integer_is_input_error(self, env, argv, message, tmp_path, monkeypatch,
                                              capsys):
        if env is not None:
            monkeypatch.setenv("PLUTUS_SEED", env)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_single_node_instance(self, tmp_path):
        out = tmp_path / "one"
        assert main(["generate", "-n", "1", "-r", "0.3", "--seed", "0", "--out", str(out)]) == 0
        payload = json.loads((out / "udg_n1_r0.3_s0.json").read_text())
        assert payload["n"] == 1 and len(payload["points"]) == 1

    def test_radius_beyond_diagonal_yields_complete_instance(self, tmp_path):
        from plutus.serialize import load_graph

        out = tmp_path / "dense"
        assert main(["generate", "-n", "50", "-r", "1.5", "--seed", "7", "--out", str(out)]) == 0
        g, instance = load_graph(out / "udg_n50_r1.5_s7.json")
        assert instance is not None
        assert g.edge_count() == 50 * 49 // 2

    @pytest.mark.parametrize("radius", ["inf", "nan", "0"])
    def test_non_finite_or_zero_radius_writes_nothing(self, radius, tmp_path, capsys):
        out = tmp_path / "bad"
        assert main(["generate", "-n", "3", "-r", radius, "--out", str(out)]) == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_writes_nothing(self, count, tmp_path, capsys):
        out = tmp_path / "none"
        assert main(["generate", "-n", "16", "-r", "0.5", "--count", count, "--out", str(out)]) == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err


class TestSolve:
    def test_path_graph(self, p3_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["solve", str(p3_file), "-k", "2", "-m", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["D"] == [0, 1, 2]
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["config"] == {"k": 2, "m": 1}

    def test_stdout_when_no_out(self, p3_file, capsys):
        assert main(["solve", str(p3_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["D"] == [1]

    def test_graph_that_is_not_m_connected_exits_3(self, p3_file, capsys):
        assert main(["solve", str(p3_file), "-m", "3"]) == 3

    @pytest.mark.parametrize("graph, message", [
        ({"n": 0, "edges": []}, "isolation needs at least one node"),
        ({"n": 4, "edges": [[0, 1], [2, 3]]}, "isolation requires a connected graph"),
    ])
    def test_empty_or_disconnected_graph_exits_3_with_isolations_message(
        self, graph, message, tmp_path, capsys
    ):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        assert main(["solve", str(path), "-k", "2", "-m", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_graph_that_is_not_m_connected_solves_below_k_equals_m(self, tmp_path, capsys):
        # K4 with 4 hanging off 0: {0, 1, 2} is 2-connected and 1-dominating,
        # but at k = 2 the pendant must join the backbone, which then
        # cannot be 2-connected
        graph = tmp_path / "pendant.json"
        graph.write_text(json.dumps(
            {"n": 5, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [0, 4]]}
        ))
        out = tmp_path / "result.json"
        assert main(["solve", str(graph), "-k", "1", "-m", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["D"] == [0, 1, 2]
        assert main(["verify", str(graph), str(out)]) == 0
        capsys.readouterr()
        assert main(["solve", str(graph), "-k", "2", "-m", "2"]) == 3
        assert capsys.readouterr().err == (
            "error: input graph is not 2-connected; stuck at [0, 1]\n"
        )

    def test_complete_graph_full(self, k4_file, capsys):
        assert main(["solve", str(k4_file), "-k", "1", "-m", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["D"] == [0, 1, 2, 3]

    def test_dot_output(self, p3_file, tmp_path):
        dot = tmp_path / "g.dot"
        assert main(["solve", str(p3_file), "--dot", str(dot)]) == 0
        assert "subgraph cluster_dominating_set" in dot.read_text()

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2

    def test_bad_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["solve", str(bad)]) == 2


# SHA-256 of the generated instance and its manifest, the solve result
# JSON, the DOT file and the verify report on three seeded instances with
# many augmentation rounds (k = 2).  The two
# n = 50 rows also pin the reports of verify at a higher ``-m``
# ("report -m 3"), which rejects the backbone with a disconnecting-set
# witness and exits 6.  The two small rows also pin the JSON of the
# exhaustive oracle at the key's -k and -m (at n = 18: optimum 11, found
# after 207 955 sets).  The last two rows pin the stretch search on
# larger backbones: the m = 3 backbone of the n = 1000 ``udg-m3`` graph in
# generated order and an m = 1 backbone at n = 500, both with stretch 5.5.
# A change that is meant to keep the bytes must leave every digest as it
# is.
_GOLDEN = [
    ("300", "0.12", "1", "2", {
        "instance": "f6f421e1edd758eea86d5f8600a1ccb008889c51f00fc7174e7897f5f8d19140",
        "manifest": "6754b44eb61569e818f190cd20d6de61b8f3c4c0133eb51b159f3c3d8ce22359",
        "result": "b996a1d685b0351a97f0df1246239e207d92aeaab23ff19cc40532e05d7b65e7",
        "dot": "80c39c27bb1fe7fb8ca063b0d6ef2b0797f91fad7bf4506a069497c1c2b9e6ae",
        "report": "beea75566723a8e5c9f8e50ec995a583e9a68b1b82273a2a2153e95fedcd5090",
    }),
    ("300", "0.13", "2", "3", {
        "instance": "a9df2d91ff6b4657e8e472c1f55b0b65db0fd2b32eccbf2671138c414dcc963b",
        "manifest": "dd318158dab17b1243d54e3e2bae356db89c985c23e14f534d2e40711d9ddb74",
        "result": "4b81a0b8ea0a895ac2a2c81780221894a24091a3faaf5cb21b61448cc51b9fe0",
        "dot": "0d994fe82694467d45f54e53236fc22b30caef7938ad7034f2e3f5c8f8087518",
        "report": "15e7d6fb15c455478361a0667865ebd813123d53d581f1e027fbfa38e4953a5f",
    }),
    ("400", "0.11", "2", "3", {
        "instance": "5aaebade67b9afb055d4f15cfe92c3c60e9fa8ed6ca9e46e7a2ec4e922168994",
        "manifest": "25682fca17e8ce74785975d129c438349c8da40614285a37f9e748ed1c3ef20d",
        "result": "9c76e1385116701c2f922556b00f535e7f3bd9d280792b13f2fb16124ebc0275",
        "dot": "ed2651500f83241a001958f205395e830e81d18ee60af0353f703b926bd9a7f6",
        "report": "459d62de58b236b8cfdcaf69c08067f975b73643cafbf28216827821973f7e24",
    }),
    ("50", "0.3", "8", "2", {
        "instance": "af7b38bfccbf9dc9ef45151059bf9cd0c3cd20da0cd0c0ede44a8872c67fa082",
        "manifest": "8c793415df739173fef0a99a363f3ac2fff791c020c9a831953c904170fb59a2",
        "result": "2eb4c0085e419396f43e206794539a97b866cd894825d9bd6a3688b88e69bad5",
        "dot": "889909d54faa6469f2d426ceda73f4f55025624e9221b0ca1225d14797c01695",
        "report": "a50ba2f120ea264d5fa505fca7eb1a4690ec85b154419a3c5c916d62cbe2e556",
        "report -m 3": "ffcd1d76e7b996665e972d9e40824e78a68e189188d2a2b0ea651123d39d01e9",
    }),
    ("50", "0.3", "8", "1", {
        "instance": "af7b38bfccbf9dc9ef45151059bf9cd0c3cd20da0cd0c0ede44a8872c67fa082",
        "manifest": "8c793415df739173fef0a99a363f3ac2fff791c020c9a831953c904170fb59a2",
        "result": "53fa0aa7c95171e2d5a34f3b04ceef6151c23b945e79d7416315cd02523102d2",
        "dot": "e5993b8eea12e052f572bd7872b222affd5ed95735abac2bd21ac341b9deb59e",
        "report": "9a7658c232305c7403a5e26a1dcf847a3c88ceb7d04b567773d405f62cdd9f28",
        "report -m 2": "80907164cdb690e419f7c9ab1911ecaab57dd117c33f96840d47ff8672fac659",
        "report -m 3": "af4e569cc7e4885b23faadfce8a1f87970c28dad47efc5bcda2864273117a56a",
    }),
    ("18", "0.45", "10", "3", {
        "instance": "eaf5b50741e9332bd111c42a123328fc0f1ca301b64d42f13e7a11047483b427",
        "manifest": "e680813b0de65c240ec14e0087db701d1353edf0ee5bb184049204d2b6ee6178",
        "result": "dd87eb0e59c1f46c9fee30038da48a990ce1e3ac730382df49b9ed3dded3968a",
        "dot": "b00191735add795dbdcbfe95ad17af35a15c9cdfd00f2bcf874049c6704de1a6",
        "report": "e63b6d57ec1aa5265e64dd8abbe5840d0ff5a41b286391a484c04544e540369a",
        "oracle -k 2 -m 3": "cc95a05cc1528d0facc9497240080d244abc0d7a7922ef7acefc00b169da5c34",
    }),
    ("16", "0.5", "4", "2", {
        "instance": "2dd62761776e27dc786cf1ffac30b2d14447be352161c0c87d8d5573ebd2e405",
        "manifest": "18d555f82af5e8ea5579c6cb165c7eca34efb403391f7b0d8c9a56ca7789cca6",
        "result": "aad11d081366c7fa60caa3b7e2c0233f16ae9220fef3d258e2e2b2df72591c1b",
        "dot": "02ce11037826389f33c01378ed1a5d78a9cb10ca05460fae5f3286bdd0fc40fe",
        "report": "e63b6d57ec1aa5265e64dd8abbe5840d0ff5a41b286391a484c04544e540369a",
        "oracle -k 1 -m 2": "4ae528dce18cdbcb4ea5bd0a4773b666ae434f2067c2bf0d0f486ec359b56ec4",
    }),
    ("1000", "0.07", "4", "3", {
        "instance": "4d38e7087a5fe4a8232f31cf7f791b4cc06b26f7daf89c39fbb0919f230b712a",
        "manifest": "309d8a251377938e9d85dde48b8604acb705d6fdf3658bec5e5062f6fe931b6d",
        "result": "5c0e609dfaba24d2ce8b1b234ba69b377934f7095c73e837217ed7b24d316422",
        "dot": "637da78551369356449e3538f7ce01e63c355f51eaaa8fd3176cc59d2fb10cd5",
        "report": "fdfc59e2e5eaad441b4a72dd214fcfc328a48048cb26fc1a5879519d7bfe2123",
    }),
    ("500", "0.1", "1", "1", {
        "instance": "6abd008945f76ca9ce8f347f1f949f492ee2b3ad415f805fa7f702212c5600f6",
        "manifest": "92c88f5a11845f8143aab5f4711a1baa8dd90d5a49b6760198ed817ca27dd623",
        "result": "5baf42cfd3e5ca19acd8262095254933298a05c9988fb85f834088df2837a22d",
        "dot": "7f8e39e4a09e15a8bc0b160da1dee2c0259856ce70f9501d74d1d7aa2dd0e8c1",
        "report": "b0996619f88a2b7b59e2cf18f7e9d53c986c573ddf704265aa1eb7f8b697478b",
    }),
    # the slowest graph of the benchmark's small-oracle workload
    ("20", "0.45", "4", "3", {
        "instance": "5ba808fe8649ac2d12df5938e6e8464edc89858a8fe579ed43286932fa6c1c6a",
        "manifest": "ad5d15d6f0dcb60677b742e67403564e80fcc7406920eff159b64196832fbe26",
        "result": "e0bc54b86a7dcf855b52e19ab3f7d7976fad143f45454181476456f2b9826264",
        "dot": "0355e85e329b5b512746ae5792378f4128744c726c0fc60cbdb8da041cd92ec9",
        "report": "e63b6d57ec1aa5265e64dd8abbe5840d0ff5a41b286391a484c04544e540369a",
        "oracle -k 2 -m 3": "5b87c84233e8164b772cb3f477b3c9214c4d05eac4b9c55dc5ba8a495b6a0c76",
    }),
    # the n = 1000 graph of the m = 3 scaling corpus: many sustainability rounds
    ("1000", "0.064", "18", "3", {
        "instance": "da7df164e1d91f99c52d710bf0ce70b22cb47bcd767348b536d882d34ce20c8b",
        "manifest": "ec94c552a4b1fe8ed61fb77ba8b195ca666da43e4588acd6c7f382ac71849431",
        "result": "59949f402299b3cb5a29fa3dc37fad934696a0ff291dcbc818aa691ed50cfcfa",
        "dot": "8ede3badfa57f3cf548e5213d20f29edfe86001b5a3d63ddf57374cf50aed701",
        "report": "4e7abbb87a924143cd8959e4853092794aecfd58628bb41c60166a6cffa9db16",
    }),
]


@pytest.mark.parametrize("n, radius, seed, m, digests", _GOLDEN)
def test_golden_bytes(n, radius, seed, m, digests, tmp_path, capsys):
    assert main(["generate", "-n", n, "-r", radius, "--seed", seed, "--out", str(tmp_path)]) == 0
    instance = tmp_path / f"udg_n{n}_r{radius}_s{seed}.json"
    result, dot = tmp_path / "result.json", tmp_path / "view.dot"
    assert main(["solve", str(instance), "-k", "2", "-m", m,
                 "--out", str(result), "--dot", str(dot)]) == 0
    capsys.readouterr()
    found = {
        "instance": hashlib.sha256(instance.read_bytes()).hexdigest(),
        "manifest": hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest(),
        "result": hashlib.sha256(result.read_bytes()).hexdigest(),
        "dot": hashlib.sha256(dot.read_bytes()).hexdigest(),
    }
    for name in digests:
        if name.startswith("report"):
            options = name.split()[1:]
            code = main(["verify", str(instance), str(result), *options])
            assert code == (6 if options else 0)
            report = capsys.readouterr().out.encode("utf-8")
            found[name] = hashlib.sha256(report).hexdigest()
        elif name.startswith("oracle"):
            assert main(["oracle", str(instance), *name.split()[1:]]) == 0
            found[name] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert found == digests


class TestVerify:
    def test_round_trip_passes(self, k4_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["solve", str(k4_file), "-k", "2", "-m", "3", "--out", str(out)]) == 0
        code = main(["verify", str(k4_file), str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall"] is True
        assert "stretch" in payload

    def test_corrupted_result_fails_with_witness(self, k4_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        main(["solve", str(k4_file), "-k", "2", "-m", "3", "--out", str(out)])
        payload = json.loads(out.read_text())
        payload["D"] = payload["D"][:-1]
        out.write_text(dumps(payload))
        code = main(["verify", str(k4_file), str(out)])
        assert code == 6
        report = json.loads(capsys.readouterr().out)
        assert report["overall"] is False
        assert any(c["witness"] is not None for c in report["checks"])

    def test_mismatched_nodes_rejected(self, p3_file, tmp_path, capsys):
        result = tmp_path / "r.json"
        result.write_text(dumps({"D": [7], "k": 1, "m": 1}))
        assert main(["verify", str(p3_file), str(result)]) == 2

    def test_flag_overrides(self, k4_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        main(["solve", str(k4_file), "-k", "1", "-m", "1", "--out", str(out)])
        # K4's m=1 backbone is a single node: not 3-connected
        assert main(["verify", str(k4_file), str(out), "-m", "3"]) == 6

    def test_handwritten_results(self, tmp_path, capsys):
        from .conftest import cycle_graph

        p5_path = _write_graph(tmp_path / "p5.json", path_graph(5))
        c4_path = _write_graph(tmp_path / "c4.json", cycle_graph(4))
        good = tmp_path / "good.json"
        good.write_text(dumps({"D": [1, 2, 3], "k": 1, "m": 1}))
        assert main(["verify", str(p5_path), str(good)]) == 0
        capsys.readouterr()
        split = tmp_path / "split.json"
        split.write_text(dumps({"D": [1, 3], "k": 1, "m": 1}))
        assert main(["verify", str(p5_path), str(split)]) == 6
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][1]["witness"] is not None
        whole = tmp_path / "whole.json"
        whole.write_text(dumps({"D": [0, 1, 2, 3], "k": 1, "m": 2}))
        assert main(["verify", str(c4_path), str(whole)]) == 0


    @pytest.mark.parametrize("threshold", ["nan", "NaN", "-nan"])
    def test_nan_stretch_threshold_rejected(self, threshold, k4_file, tmp_path, capsys):
        # every comparison with NaN is false, so it could never warn
        out = tmp_path / "result.json"
        assert main(["solve", str(k4_file), "-k", "2", "-m", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["verify", str(k4_file), str(out), f"--stretch-threshold={threshold}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "stretch-threshold" in captured.err

    def test_stretch_threshold_warns_above_it(self, tmp_path, capsys):
        from .conftest import cycle_graph

        c6 = _write_graph(tmp_path / "c6.json", cycle_graph(6))
        result = tmp_path / "r.json"
        result.write_text(dumps({"D": [0, 1, 2, 3, 4], "k": 1, "m": 1}))
        for threshold, warns in (("1.5", True), ("2", False), ("inf", False), ("-inf", True)):
            assert main(["verify", str(c6), str(result), f"--stretch-threshold={threshold}"]) == 0
            err = capsys.readouterr().err
            assert ("warning: max stretch 2.000" in err) == warns


class TestOracle:
    def test_cycle(self, tmp_path, capsys):
        from .conftest import cycle_graph

        path = _write_graph(tmp_path / "c6.json", cycle_graph(6))
        assert main(["oracle", str(path), "-k", "1", "-m", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimum_size"] == 4
        assert payload["feasible"] is True

    def test_infeasible_reported(self, p3_file, capsys):
        assert main(["oracle", str(p3_file), "-k", "1", "-m", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False
        assert payload["optimum_size"] is None

    def test_too_large_is_input_error(self, tmp_path, capsys):
        path = _write_graph(tmp_path / "big.json", complete_graph(21))
        assert main(["oracle", str(path)]) == 2

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_size_cap_below_one_is_input_error(self, k4_file, cap, capsys):
        assert main(["oracle", str(k4_file), "-k", "1", "-m", "2", "--size-cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err


class TestBench:
    def test_rows_and_summary(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            ["bench", "-n", "10,12", "-r", "0.5", "--seeds", "1..3", "-k", "1",
             "-m", "1", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 6
        for row in payload["rows"]:
            if row["status"] == "ok":
                assert row["verified"] is True
                assert "ratio" in row  # n <= 14 rows compare to the oracle
        assert payload["summary"]["instances"] == 6

    def test_infeasible_rows_skipped(self, capsys):
        # radius too small for connectivity at n=12: rows marked skipped
        code = main(["bench", "-n", "12", "-r", "0.05", "--seeds", "1..2", "-m", "2"])
        assert code == 0
        text = capsys.readouterr().out
        assert "skipped" in text

    def test_empty_seed_list(self, capsys):
        assert main(["bench", "-n", "10", "-r", "0.4", "--seeds", ""]) == 0

    @pytest.mark.parametrize(
        "n, seeds", [("", "1..2"), (",", "1..2"), ("10", "5..1"), ("10", ",")]
    )
    def test_empty_corpus_is_input_error(self, n, seeds, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(["bench", "-n", n, "-r", "0.5", "--seeds", seeds, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert "all_verified" not in captured.out
        assert "Traceback" not in captured.err

    def test_huge_seed_range_is_not_listed(self):
        # a range of 1e11 seeds is walked lazily: under a 1 GiB
        # address-space limit a listed range would end in a MemoryError,
        # while the walk reaches the bad node count at its first row
        import resource
        import subprocess
        import sys

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        argv = ["bench", "-n", "0", "-r", "0.3", "--seeds", "1..100000000000"]
        done = subprocess.run(
            [sys.executable, "-m", "plutus.cli", *argv],
            capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=60,
        )
        assert done.returncode == 2, done.stderr
        assert "n must be a positive integer" in done.stderr
        assert "Traceback" not in done.stderr

    def test_deterministic_apart_from_timing(self, tmp_path):
        outs = []
        for name in ("x.json", "y.json"):
            out = tmp_path / name
            main(["bench", "-n", "10", "-r", "0.5", "--seeds", "1..2", "--out", str(out)])
            payload = json.loads(out.read_text())
            for row in payload["rows"]:
                row.pop("phase_micros", None)
            outs.append(payload)
        assert outs[0] == outs[1]

    def test_bench_makes_no_whole_graph_m_connectivity_call(self, tmp_path, monkeypatch):
        # only a stuck round refuses a connected graph, so nothing tests
        # the whole graph's m-connectivity up front
        import plutus
        import plutus.cli
        import plutus.graph
        import plutus.pipeline
        import plutus.verify
        from plutus.graph import is_m_connected

        whole_graph_checks = []

        def counting(g, subset, m):
            nodes = set(subset)
            if len(nodes) == g.node_count:
                whole_graph_checks.append(m)
            return is_m_connected(g, nodes, m)

        for module in (plutus, plutus.cli, plutus.graph, plutus.pipeline, plutus.verify):
            monkeypatch.setattr(module, "is_m_connected", counting, raising=False)
        out = tmp_path / "bench.json"
        main(["bench", "-n", "12,14", "-r", "0.6", "--seeds", "1..3", "-m", "2",
              "--out", str(out)])
        rows = json.loads(out.read_text())["rows"]
        assert any(r["status"] == "ok" for r in rows)
        assert whole_graph_checks == []
        for row in rows:
            if row["status"] == "ok":
                assert list(row["phase_micros"]) == list(row["phase_sizes"]) == [
                    "isolation", "domination", "synergy", "diversification"
                ]
                assert all(isinstance(t, int) for t in row["phase_micros"].values())
                assert not any(key.endswith("micros") for key in row if key != "phase_micros")


_P3 = {"n": 3, "edges": [[0, 1], [1, 2]]}
_POINTS = [[0.1, 0.1], [0.2, 0.1]]


class TestMalformedInput:
    """Malformed files exit 2 with a one-line error, never a traceback and
    never a silently coerced graph or result."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 2, "edges": [[0, 1.7]]},
            {"n": 3.9, "edges": [[0, 1], [1, 2]]},
            {"n": True, "edges": []},
            {"n": 3, "edges": [[True, 2, 5], [0, 1]]},
            {"n": 3, "edges": [[0, 1, 5], [1, 2]]},
            {"n": 3, "edges": [{"u": 0, "v": 1}, [1, 2]]},
            {**_P3, "schema": 99},
            {**_P3, "schema": True},
            {"points": [["0.1", "0.1"], ["0.2", "0.1"]], "radius": 0.3},
            {"points": [[0.1, 0.1], {"x": 0.2, "y": 0.1}], "radius": 0.3},
            {"points": _POINTS, "radius": "0.3"},
            {"points": _POINTS, "radius": True},
            {"points": _POINTS, "radius": "abc"},
            {"points": _POINTS, "radius": None},
            {"n": True, "points": [[0.1, 0.1]], "radius": 0.3},
        ],
    )
    def test_graph_file(self, payload, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        result = tmp_path / "r.json"
        result.write_text(json.dumps({"D": [0]}))
        for argv in (["solve", path], ["oracle", path], ["verify", path, result]):
            assert main([str(a) for a in argv]) == 2, argv
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"D": "1"},
            {"D": "12"},
            {"D": [1.9]},
            {"D": [True]},
            {"D": [1], "k": True},
            {"D": [1], "k": "2"},
            {"D": [1], "m": 2.0},
            {"D": [1], "schema": 99},
        ],
    )
    def test_result_file(self, payload, p3_file, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(payload))
        assert main(["verify", str(p3_file), str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", [b"\xff\xfe{}", b"[" * 100_000, b'{"n": 1' + b"0" * 5000 + b', "edges": []}']
    )
    def test_undecodable_file(self, text, p3_file, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        for argv in (["solve", path], ["oracle", path], ["verify", path, path],
                     ["verify", p3_file, path]):
            assert main([str(a) for a in argv]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: invalid JSON in") and "Traceback" not in err


    def test_over_limit_graph_exits_2(self, tmp_path):
        # each call runs under its own 1 GiB address-space limit, so a
        # build that allocated per node would fail there with a
        # MemoryError, not exit 2
        import resource
        import subprocess
        import sys

        from plutus.graph import NODE_LIMIT

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        over = tmp_path / "over.json"
        over.write_text(json.dumps({"n": NODE_LIMIT + 1, "edges": []}))
        huge = tmp_path / "huge.json"
        huge.write_text('{"n": 100000000, "edges": []}')
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        for argv in (
            ["solve", over],
            ["oracle", over],
            ["verify", over, over],
            ["solve", huge],
            ["generate", "-n", NODE_LIMIT + 1, "-r", 0.1, "--out", tmp_path / "out"],
        ):
            done = subprocess.run(
                [sys.executable, "-m", "plutus.cli", *map(str, argv)],
                capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=60,
            )
            assert done.returncode == 2, (argv, done.stderr)
            assert f"above the limit of {NODE_LIMIT}" in done.stderr, argv
            assert "Traceback" not in done.stderr
        assert not (tmp_path / "out").exists()


class TestParsing:
    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_exits_2(self):
        assert main(["generate", "-n", "5"]) == 2

    def test_unknown_option_exits_2(self, k4_file, capsys):
        # --strict was a solve option once, and --max-iters a solve and
        # bench option
        for argv, option in (
            (["solve", str(k4_file), "--strict"], "--strict"),
            (["solve", str(k4_file), "--max-iters", "1"], "--max-iters"),
            (["bench", "-n", "8", "-r", "0.5", "--max-iters", "1"], "--max-iters"),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unrecognized arguments: {option}" in captured.err
            assert "Traceback" not in captured.err


    @pytest.mark.parametrize("argv", [
        [], ["-h"], *([command, "-h"] for command in cli._COMMANDS),
        ["frobnicate"], ["so"], ["solve", "x", "--strict"], ["--bogus", "solve", "x"],
        ["solve"], ["solve", "x", "-m", "4"], ["generate", "-n", "abc", "-r", "1"],
        ["-h", "solve"], ["--", "solve", "x"],
        ["verify", "g", "r", "--bogus"], ["oracle", "g", "extra"],
        ["bench", "-n", "8", "-r", "0.5", "--bogus"], ["generate", "-n", "3", "-r", "1", "--bogus"],
        ["solve", "x", "-k", "2", "extra"],
    ], ids=lambda argv: " ".join(argv) or "no-argv")
    def test_every_message_is_that_of_the_full_parser(self, argv, monkeypatch, capsys):
        # main builds only the subparser of the command argv names first;
        # help, usage and errors must keep the bytes of a parse with every
        # subparser built.  After a command, the one top-level message is
        # "unrecognized arguments", whose usage lists every command
        monkeypatch.setenv("COLUMNS", "80")
        built = (main(argv), *capsys.readouterr())
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert (main(argv), *capsys.readouterr()) == built

    def test_one_command_builds_only_its_arguments(self):
        def actions(parser):
            (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            return {name: len(p._actions) for name, p in sub.choices.items()}

        # verify's six: -h, graph, result, -k, -m and --stretch-threshold
        every = {"generate": 6, "solve": 6, "verify": 6, "oracle": 5, "bench": 8}
        assert actions(cli.build_parser()) == every
        for command, count in every.items():
            assert actions(cli.build_parser(command)) == {command: count}


_DOCUMENTED_EXIT_CODES = {0, 2, 3, 6}

# Graph files: valid ones (small enough for the oracle), malformed JSON,
# wrong shapes and values.  ``None`` names a missing file.
_GRAPH_FILES = {
    "p3": json.dumps(_P3),
    "k4": json.dumps({"n": 4, "edges": [[u, v] for u in range(4) for v in range(u + 1, 4)]}),
    "udg": json.dumps({"points": [[i / 8, (i * 3 % 8) / 8] for i in range(8)], "radius": 0.6}),
    "disconnected": json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}),
    "empty-graph": json.dumps({"n": 0, "edges": []}),
    "not-json": "{n: 3",
    "empty-file": "",
    "array": "[1, 2, 3]",
    "nan-radius": '{"points": [[0.1, 0.2]], "radius": NaN}',
    "nan-point": '{"points": [[NaN, 0.2], [0.1, 0.1]], "radius": 0.3}',
    "negative-n": json.dumps({"n": -1, "edges": []}),
    "self-loop": json.dumps({"n": 2, "edges": [[1, 1]]}),
    "out-of-range": json.dumps({"n": 2, "edges": [[0, 2]]}),
    "edges-and-points": json.dumps({"n": 1, "edges": [], "points": [[0, 0]], "radius": 1}),
    "not-utf8": b'\xff\xfe{"n": 1, "edges": []}',
    "deep-nesting": "[" * 100_000,
    "long-integer": '{"n": 1' + "0" * 5000 + ', "edges": []}',
    "missing": None,
}
_RESULT_FILES = {
    "triangle": json.dumps({"D": [0, 1, 2], "k": 1, "m": 2}),
    "single": json.dumps({"D": [0]}),
    "empty-D": json.dumps({"D": []}),
    "out-of-range": json.dumps({"D": [0, 99]}),
    "k-zero": json.dumps({"D": [0], "k": 0}),
    "m-four": json.dumps({"D": [0], "m": 4}),
    "string-D": json.dumps({"D": "01"}),
    "no-D": json.dumps({"k": 1}),
    "not-json": "D: [0]",
    "array": "[0]",
    "not-utf8": b'\xff{"D": [0]}',
    "deep-nesting": '{"D": ' + "[" * 100_000,
    "missing": None,
}
_INTS = ["0", "1", "2", "3", "-1", "x", "2.5", ""]
_REALS = ["0.5", "0", "-1", "nan", "inf", "1e309", "x"]

_SUBCOMMANDS = {
    "generate": {
        "-n": ["-1", "0", "1", "5", "x", "2.5", ""],
        "-r": _REALS,
        "--seed": ["0", "-5", "x", "18446744073709551621"],
        "--count": ["0", "1", "2", "-1", "x"],
        "--out": ["OUT", "FILE"],
    },
    "solve": {
        "-k": _INTS,
        "-m": _INTS + ["4"],
        "--out": ["OUT/r.json", "FILE", "OUT"],
        "--dot": ["OUT/v.dot", "FILE"],
    },
    "verify": {"-k": _INTS, "-m": _INTS + ["4"], "--stretch-threshold": _REALS},
    "oracle": {"-k": _INTS, "-m": _INTS, "--size-cap": _INTS + ["30"]},
    "bench": {
        "-n": ["8", "6,9", "0", "-5", "x", "", "8,,9"],
        "-r": _REALS,
        "--seeds": ["1..2", "2..1", "1..", "x", "1,2", "", "0..0"],
        "--seed": ["1", "x", "-3"],
        "-k": _INTS,
        "-m": _INTS,
        "--out": ["OUT/bench.json", "FILE"],
    },
}
_POSITIONALS = {"generate": [], "solve": ["graph"], "verify": ["graph", "result"],
                "oracle": ["graph"], "bench": []}


@st.composite
def cli_invocations(draw):
    """A subcommand with each positional file drawn from the valid and
    malformed pools (sometimes left out), and each option left out or
    given a valid or malformed value."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv: list = [command]
    for kind in _POSITIONALS[command]:
        pool = _GRAPH_FILES if kind == "graph" else _RESULT_FILES
        if draw(st.integers(0, 19)):
            argv.append((kind, draw(st.sampled_from(sorted(pool)))))
    for option, values in _SUBCOMMANDS[command].items():
        if draw(st.booleans()):
            argv.append(option)
            if values is not None:
                argv.append(draw(st.sampled_from(values)))
    if command in ("generate", "bench") and draw(st.integers(0, 9)):
        # the required options, so that runs get past the parser
        for option, value in (("-n", "8"), ("-r", "0.5")):
            if option not in argv:
                argv += [option, value]
    return argv


class TestEverySubcommandFuzz:
    """Any mix of valid and malformed files and arguments, for every
    subcommand, ends in a documented exit code with no traceback."""

    @given(cli_invocations())
    @settings(max_examples=400, deadline=None)
    def test_documented_exit_and_no_traceback(self, invocation):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "FILE").write_text("a plain file, not a directory\n")
            argv = []
            for item in invocation:
                if isinstance(item, tuple):
                    kind, name = item
                    text = (_GRAPH_FILES if kind == "graph" else _RESULT_FILES)[name]
                    path = root / f"{kind}-{name}.json"
                    if isinstance(text, bytes):
                        path.write_bytes(text)
                    elif text is not None:
                        path.write_text(text)
                    argv.append(str(path))
                elif item.startswith(("OUT", "FILE")):
                    argv.append(str(root / item))
                else:
                    argv.append(item)
            out, err = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(root)  # generate writes to "." when --out is left out
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            finally:
                os.chdir(cwd)
        assert code in _DOCUMENTED_EXIT_CODES, (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
