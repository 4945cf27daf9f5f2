import contextlib
import copy
import functools
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import treeshift
from treeshift.cli import main
from treeshift.trees import dumps_json


E1_SCENARIO = {
    "group": {"kind": "lattice", "d": 1, "images": [[1]]},
    "alphabet": [0, 1],
    "config": {"rule": "periodic", "period": 2, "table": [0, 1]},
    "alpha": {"M": 1, "alphabet": [0, 1], "n": 2,
              "table": {"t0,0": "g0", "t0,1": "g1"}},
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(dumps_json(E1_SCENARIO))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEmbed:
    def test_json_output(self, scenario_file, capsys):
        code, out, _ = run(capsys, "embed", "--scenario", scenario_file, "--depth", "2")
        assert code == 0
        tree = json.loads(out)
        assert sorted(tree["vertices"]) == sorted(["e", "g0", "g0 g1", "g1'", "g1' g0'"])

    def test_dot_output_has_five_vertices(self, scenario_file, capsys):
        code, out, _ = run(capsys, "embed", "--scenario", scenario_file,
                           "--depth", "2", "--format", "dot")
        assert code == 0
        assert out.count("shape") >= 1
        assert sum(1 for line in out.splitlines() if line.strip().endswith(";")
                   and "--" not in line and "node" not in line) == 5

    def test_deterministic_bytes(self, scenario_file, capsys):
        _, first, _ = run(capsys, "embed", "--scenario", scenario_file, "--depth", "3")
        _, second, _ = run(capsys, "embed", "--scenario", scenario_file, "--depth", "3")
        assert first == second


class TestDecode:
    def test_round_trip(self, scenario_file, tmp_path, capsys):
        code, out, _ = run(capsys, "embed", "--scenario", scenario_file, "--depth", "3")
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(out)
        code, out, _ = run(capsys, "decode", "--tree", str(tree_path),
                           "--scenario", scenario_file, "--depth", "3")
        assert code == 0
        decoded = json.loads(out)
        assert decoded["depth"] == 2
        assert decoded["values"]["e"] == 0
        assert decoded["values"]["t0"] == 1
        assert decoded["values"]["t0'"] == 1


    def test_rank_eleven_prints_t10_after_t1_inverse(self, tmp_path, capsys):
        table = {f"t{i},{s}": f"g{2 * i + s}" for i in range(11) for s in (0, 1)}
        scenario = {"group": {"kind": "free", "M": 11}, "alphabet": [0, 1],
                    "config": {"rule": "finite", "support": {"g10": 1}, "default": 0},
                    "alpha": {"M": 11, "alphabet": [0, 1], "n": 22, "table": table}}
        path, tree = tmp_path / "m11.json", tmp_path / "tree.json"
        path.write_text(json.dumps(scenario))
        tree.write_text(run(capsys, "embed", "--scenario", str(path), "--depth", "3")[1])
        code, out, _ = run(capsys, "decode", "--tree", str(tree), "--scenario", str(path),
                           "--depth", "3")
        assert code == 0
        values = json.loads(out)["values"]
        assert out == dumps_json({"depth": 2, "values": values})
        texts = list(values)
        assert texts.index("t1' t9'") + 1 == texts.index("t10")
        assert values["t10"] == 1 and values["t10 t0"] == 0 and len(values) == 1 + 22 + 22 * 21


class TestMetric:
    def test_identical_trees(self, scenario_file, tmp_path, capsys):
        _, out, _ = run(capsys, "embed", "--scenario", scenario_file, "--depth", "2")
        path = tmp_path / "t.json"
        path.write_text(out)
        code, out, _ = run(capsys, "metric", "--tree", str(path), "--tree", str(path))
        assert code == 0
        assert out.strip() == "at-least(2)"

    def test_json_format(self, scenario_file, tmp_path, capsys):
        _, out, _ = run(capsys, "embed", "--scenario", scenario_file, "--depth", "2")
        path = tmp_path / "t.json"
        path.write_text(out)
        code, out, _ = run(capsys, "metric", "--tree", str(path), "--tree", str(path),
                           "--format", "json")
        blob = json.loads(out)
        assert blob["kind"] == "at-least" and blob["r"] == 2
        assert abs(blob["value"] - math.exp(-2)) < 1e-12


class TestActAndOrbit:
    def test_act(self, scenario_file, tmp_path, capsys):
        _, out, _ = run(capsys, "embed", "--scenario", scenario_file, "--depth", "2")
        path = tmp_path / "t.json"
        path.write_text(out)
        code, out, _ = run(capsys, "act", "--tree", str(path), "--word", "g0")
        assert code == 0
        assert sorted(json.loads(out)["vertices"]) == ["e", "g0'", "g1"]

    def test_act_insufficient_depth_exit_code(self, scenario_file, tmp_path, capsys):
        _, out, _ = run(capsys, "embed", "--scenario", scenario_file, "--depth", "2")
        path = tmp_path / "t.json"
        path.write_text(out)
        code, _, err = run(capsys, "act", "--tree", str(path), "--word", "g0 g1 g0")
        assert code == 2
        assert "error:" in err

    def test_orbit_from_scenario(self, scenario_file, capsys):
        code, out, _ = run(capsys, "orbit", "--scenario", scenario_file, "--depth", "6",
                           "--working-radius", "2", "--step-bound", "4")
        assert code == 0
        og = json.loads(out)
        assert len(og["nodes"]) == 2
        assert sorted(e["label"] for e in og["edges"]) == ["g0", "g1"]

    def test_orbit_dot_output(self, scenario_file, tmp_path, capsys):
        from treeshift.trees import orbit_graph, orbit_to_dot, tree_from_json

        _, out, _ = run(capsys, "embed", "--scenario", scenario_file, "--depth", "6")
        path = tmp_path / "t.json"
        path.write_text(out)
        og = orbit_graph(tree_from_json(json.loads(out)), step_bound=4, working_radius=2)
        code, out, err = run(capsys, "orbit", "--tree", str(path), "--working-radius", "2",
                             "--step-bound", "4", "--format", "dot")
        assert (code, out, err) == (0, orbit_to_dot(og), "")
        assert out.startswith("digraph orbit {") and out.count(" -> ") == 2

    def test_orbit_scenario_depth_defaults_to_6(self, scenario_file, capsys):
        args = ["--scenario", scenario_file, "--working-radius", "2", "--step-bound", "4"]
        assert run(capsys, "orbit", *args) == run(capsys, "orbit", *args, "--depth", "6")
        assert run(capsys, "orbit", *args) != run(capsys, "orbit", *args, "--depth", "3")

    def test_orbit_refuses_depth_with_a_tree(self, scenario_file, tmp_path, capsys):
        # a tree has its own radius: --depth would be ignored, so it is refused
        _, out, _ = run(capsys, "embed", "--scenario", scenario_file, "--depth", "6")
        path = tmp_path / "t.json"
        path.write_text(out)
        args = ["--tree", str(path), "--working-radius", "2", "--step-bound", "4"]
        code, out, err = run(capsys, "orbit", *args, "--depth", "6")
        assert (code, out) == (1, "")
        assert err.startswith("error: orbit takes --depth only with --scenario")
        assert run(capsys, "orbit", *args)[0] == 0


class TestPseudogroupCommands:
    def test_builtin_emits_cgs(self, capsys):
        code, out, _ = run(capsys, "builtin", "n0", "--alphabet", "0,1")
        assert code == 0
        cgs = json.loads(out)
        assert [g["name"] for g in cgs["generators"]] == ["1_0", "1_1"]

    def test_itinerary(self, tmp_path, capsys):
        point = tmp_path / "point.json"
        point.write_text('{"pre": [], "cycle": ["0", "1"]}')
        code, out, _ = run(capsys, "itinerary", "--builtin-n0", "0,1",
                           "--point", str(point), "--depth", "1")
        assert code == 0
        values = json.loads(out)["values"]
        assert values["e"] == "0"
        assert values["1_0"] == "1"
        assert values["1_1"] is None
        assert values["1_0'"] == "0"

    def test_deep_itinerary_needs_no_recursion(self, tmp_path):
        class Sink:  # counts the characters of a 40 MB output without keeping them
            chars = 0
            tail = ""

            def write(self, text):
                self.chars += len(text)
                self.tail = (self.tail + text)[-40:]

        point = tmp_path / "point.json"
        point.write_text('{"pre": [], "cycle": ["0"]}')
        sink = Sink()
        with contextlib.redirect_stdout(sink):
            code = main(["itinerary", "--builtin-n0", "0", "--point", str(point),
                         "--depth", "3000"])
        assert code == 0
        # what the pure-Python JSON encoder printed: 6,001 words, "e" sorting last
        assert sink.chars == 40_585_552
        assert sink.tail.endswith(" 1_0'\": \"0\",\n    \"e\": \"0\"\n  }\n}\n")

    def test_embed_pseudo(self, tmp_path, capsys):
        point = tmp_path / "point.json"
        point.write_text('{"pre": [], "cycle": ["0", "1"]}')
        alpha = tmp_path / "alpha.json"
        alpha.write_text(json.dumps({
            "M": 2, "alphabet": ["0", "1"], "n": 4,
            "table": {"t0,0": "g0", "t0,1": "g1", "t1,0": "g2", "t1,1": "g3"},
        }))
        code, out, _ = run(capsys, "embed-pseudo", "--builtin-n0", "0,1",
                           "--point", str(point), "--alpha", str(alpha), "--depth", "1")
        assert code == 0
        assert sorted(json.loads(out)["vertices"]) == ["e", "g0", "g0'", "g3'"]

    def test_builtin_over_one_empty_symbol(self, tmp_path, capsys):
        # --builtin-n0 "" is the one-symbol system that builtin n0 --alphabet "" prints
        code, out, _ = run(capsys, "builtin", "n0", "--alphabet", "")
        assert code == 0
        cgs = tmp_path / "cgs.json"
        cgs.write_text(out)
        point = tmp_path / "point.json"
        point.write_text('{"pre": [], "cycle": [""]}')
        outputs = []
        for system in (["--builtin-n0", ""], ["--cgs", str(cgs)]):
            code, out, err = run(capsys, "itinerary", *system, "--point", str(point),
                                 "--depth", "2")
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["values"]["e"] == ""


class TestEquivarianceAndSeparate:
    def test_equivariance_all_generators(self, scenario_file, capsys):
        code, out, _ = run(capsys, "equivariance", "--scenario", scenario_file, "--depth", "2")
        assert code == 0
        blob = json.loads(out)
        assert blob["all_equal"] is True
        assert len(blob["reports"]) == 2
        negative = [r for r in blob["reports"] if r["clause"] == "negative"][0]
        assert negative["witness"] == "g1'"
        assert negative["alternate_defined"] is False

    def test_equivariance_single_generator(self, scenario_file, capsys):
        code, out, _ = run(capsys, "equivariance", "--scenario", scenario_file,
                           "--depth", "2", "--generator", "t0")
        assert code == 0
        blob = json.loads(out)
        assert blob["reports"][0]["clause"] == "positive"
        assert blob["reports"][0]["witness"] == "g0"

    @staticmethod
    def separable_trees(scenario_file, tmp_path, capsys) -> list[str]:
        """Radius-3 trees of the E1 parity and of the constant configuration."""
        constant = dict(E1_SCENARIO, config={"rule": "periodic", "period": 1, "table": [0]})
        other_scenario = tmp_path / "const.json"
        other_scenario.write_text(json.dumps(constant))
        paths = []
        for name, scenario in (("a", scenario_file), ("b", str(other_scenario))):
            _, out, _ = run(capsys, "embed", "--scenario", scenario, "--depth", "3")
            (tmp_path / f"{name}.json").write_text(out)
            paths.append(str(tmp_path / f"{name}.json"))
        return paths

    def test_separate(self, scenario_file, tmp_path, capsys):
        a, b = self.separable_trees(scenario_file, tmp_path, capsys)
        code, out, _ = run(capsys, "separate", "--tree", a, "--tree", b)
        assert code == 0
        blob = json.loads(out)
        assert blob["witness"] == "e"
        assert blob["rebased"] == {"kind": "exact", "r": 0, "value": 1.0}

    def test_separate_rebases_each_tree_once(self, scenario_file, tmp_path, capsys, monkeypatch):
        from treeshift import embed, trees

        a, b = self.separable_trees(scenario_file, tmp_path, capsys)
        calls = []
        act = trees.act

        def counted(*args):
            calls.append(args)
            return act(*args)

        monkeypatch.setattr(trees, "act", counted)
        monkeypatch.setattr(embed, "act", counted)
        assert run(capsys, "separate", "--tree", a, "--tree", b)[0] == 0
        assert len(calls) == 2

    def test_separate_identical(self, scenario_file, tmp_path, capsys):
        _, out, _ = run(capsys, "embed", "--scenario", scenario_file, "--depth", "3")
        a = tmp_path / "a.json"
        a.write_text(out)
        code, out, _ = run(capsys, "separate", "--tree", str(a), "--tree", str(a))
        assert code == 0
        assert json.loads(out)["witness"] is None


class TestVerifyAndErrors:
    def test_verify_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lattice-collapse", "--seed", "7")
        assert code == 0
        assert out.startswith("PASS")

    def test_verify_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nonsense")
        assert code == 1
        assert err.splitlines()[-1].startswith("error: unknown suite 'nonsense'; choose from [")

    def test_verify_reports_a_key_error_inside_a_suite_as_a_bug(self, capsys, monkeypatch):
        from treeshift import verify

        def broken(seed):
            return {}[seed]

        monkeypatch.setitem(verify.SUITES, "broken", broken)
        with pytest.raises(KeyError):
            main(["verify", "--suite", "broken"])

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "embed", "--scenario", str(bad), "--depth", "1")
        assert code == 1
        assert "line 1" in err

    def test_unknown_subcommand_usage(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err.lower()

    @pytest.mark.parametrize("argv", [
        ["embed", "--scenario", "{scenario}", "--depth", "2"],
        ["decode", "--tree", "{tree}", "--alpha", "{alpha}", "--depth", "2"],
    ], ids=["embed", "decode"])
    def test_encoding_not_injective(self, scenario_file, tmp_path, capsys, argv):
        alpha = dict(E1_SCENARIO["alpha"], table={"t0,0": "g0", "t0,1": "g0"})
        paths = {name: tmp_path / f"{name}.json" for name in ("scenario", "alpha", "tree")}
        paths["scenario"].write_text(json.dumps(dict(E1_SCENARIO, alpha=alpha)))
        paths["alpha"].write_text(json.dumps(alpha))
        paths["tree"].write_text(
            run(capsys, "embed", "--scenario", scenario_file, "--depth", "2")[1])
        code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 1
        assert err.splitlines()[-1] == (
            "error: invalid encoding: not injective: g0 assigned to both (1, 0) and (1, 1)")

    def test_scenario_cross_validation(self, tmp_path, capsys):
        broken = dict(E1_SCENARIO)
        broken["alpha"] = {"M": 2, "alphabet": [0, 1], "n": 4,
                           "table": {"t0,0": "g0", "t0,1": "g1",
                                     "t1,0": "g2", "t1,1": "g3"}}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        code, _, err = run(capsys, "embed", "--scenario", str(path), "--depth", "1")
        assert code == 1
        assert "generators" in err


class TestMalformedInput:
    """Each malformed input ends in exit 1 with an error line, not a traceback."""

    @staticmethod
    def assert_clean_failure(code, err):
        assert code == 1
        assert err.splitlines()[-1].startswith("error:")
        assert "Traceback" not in err

    def test_period_longer_than_table(self, tmp_path, capsys):
        bad = dict(E1_SCENARIO, config={"rule": "periodic", "period": 3, "table": [0, 1]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "embed", "--scenario", str(path), "--depth", "2")
        self.assert_clean_failure(code, err)
        assert "table" in err

    def test_non_numeric_encoding_value(self, tmp_path, capsys):
        bad = dict(E1_SCENARIO, alpha={"M": 1, "alphabet": [0, 1], "n": 2,
                                       "table": {"t0,0": "gx", "t0,1": "g1"}})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "embed", "--scenario", str(path), "--depth", "2")
        self.assert_clean_failure(code, err)
        assert "'gx'" in err

    def test_decode_without_encoding(self, scenario_file, tmp_path, capsys):
        code, out, _ = run(capsys, "embed", "--scenario", scenario_file, "--depth", "1")
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(out)
        code, _, err = run(capsys, "decode", "--tree", str(tree_path), "--depth", "1")
        self.assert_clean_failure(code, err)
        assert "--alpha" in err and "--scenario" in err

    # each command reads exactly one of two input sources; the files named
    # here do not exist, since argument parsing fails before any is read
    SOURCES = {
        "decode": (["decode", "--tree", "t.json", "--depth", "1"], "--alpha", "--scenario"),
        "orbit": (["orbit", "--working-radius", "1", "--step-bound", "1"], "--tree", "--scenario"),
        "itinerary": (["itinerary", "--point", "p.json", "--depth", "1"], "--cgs", "--builtin-n0"),
        "embed-pseudo": (["embed-pseudo", "--point", "p.json", "--alpha", "a.json",
                          "--depth", "1"], "--cgs", "--builtin-n0"),
    }

    @pytest.mark.parametrize("given", ["neither", "both"])
    @pytest.mark.parametrize("command", list(SOURCES))
    def test_one_input_source(self, capsys, command, given):
        argv, first, second = self.SOURCES[command]
        if given == "both":
            argv = [*argv, first, "x.json", second, "0,1"]
        code, _, err = run(capsys, *argv)
        self.assert_clean_failure(code, err)
        assert first in err and second in err
        assert "cannot read" not in err

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("command", ["metric", "separate"])
    def test_two_trees(self, tmp_path, capsys, command, count):
        tree = tmp_path / "t.json"
        tree.write_text(json.dumps({"rank": 1, "radius": 0, "vertices": ["e"]}))
        code, _, err = run(capsys, command, *["--tree", str(tree)] * count)
        self.assert_clean_failure(code, err)
        assert err.splitlines()[-1] == f"error: {command} needs exactly two --tree arguments"

    @pytest.mark.parametrize("change", [
        {"alpha": dict(E1_SCENARIO["alpha"], M="x")},
        {"alpha": dict(E1_SCENARIO["alpha"], n=[2])},
        {"group": {"kind": "lattice", "d": "two"}},
        {"group": {"kind": "free", "M": "x"}},
        {"config": {"rule": "finite", "support": {"x": 1}, "default": 0}},
    ], ids=["encoding-M", "encoding-n", "group-d", "group-M", "support-key"])
    def test_non_integer_field(self, tmp_path, capsys, change):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(E1_SCENARIO, **change)))
        code, _, err = run(capsys, "embed", "--scenario", str(path), "--depth", "2")
        self.assert_clean_failure(code, err)

    @pytest.mark.parametrize("argv", [
        ["act", "--tree", "{tree}", "--word", "g0"],
        ["metric", "--tree", "{tree}", "--tree", "{tree}"],
        ["separate", "--tree", "{tree}", "--tree", "{tree}"],
        ["decode", "--tree", "{tree}", "--scenario", "{scenario}", "--depth", "1"],
        ["orbit", "--tree", "{tree}", "--working-radius", "1", "--step-bound", "1"],
    ], ids=lambda argv: argv[0])
    def test_unreadable_tree(self, scenario_file, tmp_path, capsys, argv):
        tree = str(tmp_path / "missing.json")
        code, out, err = run(capsys, *(a.format(tree=tree, scenario=scenario_file) for a in argv))
        self.assert_clean_failure(code, err)
        assert out == ""
        assert err.splitlines()[-1].startswith(f"error: cannot read {tree}: ")

    def test_missing_scenario_key(self, tmp_path, capsys):
        bad = {k: v for k, v in E1_SCENARIO.items() if k != "config"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "embed", "--scenario", str(path), "--depth", "2")
        self.assert_clean_failure(code, err)
        assert "scenario has no 'config' field" in err.splitlines()[-1]

    def test_scenario_is_a_list(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([E1_SCENARIO]))
        code, _, err = run(capsys, "embed", "--scenario", str(path), "--depth", "2")
        self.assert_clean_failure(code, err)

    @pytest.mark.parametrize("point,depth", [
        ([["0"], ["1"]], "2"),
        ({"pre": [], "cycle": ["0", "1"]}, "-1"),
    ], ids=["point-is-a-list", "negative-depth"])
    def test_itinerary_input(self, tmp_path, capsys, point, depth):
        path = tmp_path / "point.json"
        path.write_text(json.dumps(point))
        code, _, err = run(capsys, "itinerary", "--builtin-n0", "0,1",
                           "--point", str(path), "--depth", depth)
        self.assert_clean_failure(code, err)

    def test_non_integer_tree_rank(self, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"rank": "two", "radius": 0, "vertices": ["e"]}))
        code, _, err = run(capsys, "act", "--tree", str(path), "--word", "e")
        self.assert_clean_failure(code, err)

    def test_tree_rank_below_one(self, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"rank": 0, "radius": 0, "vertices": []}))
        code, _, err = run(capsys, "act", "--tree", str(path), "--word", "e")
        self.assert_clean_failure(code, err)
        assert err.splitlines()[-1] == "error: rank must be >= 1, got 0"

    @pytest.mark.parametrize("vertices,field", [
        ("e", "tree.vertices must be a list"),
        ([{}], "tree.vertices[0] must be a string"),
        (["e", 3], "tree.vertices[1] must be a string"),
        (["e", None], "tree.vertices[1] must be a string"),
    ], ids=["string", "object", "number", "null"])
    def test_tree_vertices_not_strings(self, tmp_path, capsys, vertices, field):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"rank": 2, "radius": 1, "vertices": vertices}))
        code, _, err = run(capsys, "act", "--tree", str(path), "--word", "e")
        self.assert_clean_failure(code, err)
        assert field in err.splitlines()[-1]

    @pytest.mark.parametrize("kind,change,field", [
        ("scenario", {"alphabet": [[1], 1]}, "alphabet"),
        ("scenario", {"alpha": dict(E1_SCENARIO["alpha"], table=[])}, "table"),
        ("scenario", {"alpha": dict(E1_SCENARIO["alpha"], alphabet=None)}, "alphabet"),
        ("scenario", {"config": {"rule": "finite", "support": [1], "default": 0}}, "support"),
        ("point", {"cycle": True}, "cycle"),
        ("point", {"pre": 5}, "pre"),
        ("generator", {"name": None}, "name"),
        ("generator", {"domain": 3}, "domain"),
        ("cgs", {"partition": []}, "partition"),
        ("cgs", {"alphabet": None}, "generating system.alphabet"),
        ("cgs", {"alphabet": "01"}, "generating system.alphabet"),
        ("cgs", {"generators": 5}, "generating system.generators"),
        ("generator", {"domain": [None]}, "generator.domain[0]"),
        ("generator", {"domain": [{"0": 1}]}, "generator.domain[0]"),
        ("generator", {"rewrite": {"consume": True, "emit": []}}, "generator.rewrite.consume"),
        ("generator", {"rewrite": {"consume": ["0"], "emit": 1.5}}, "generator.rewrite.emit"),
        ("cgs", {"partition": {"0": True, "1": [["1"]]}}, "generating system.partition.0"),
        ("cgs", {"partition": {"0": [0], "1": [["1"]]}}, "generating system.partition.0[0]"),
        ("scenario", {"group": {"kind": "lattice", "d": 1, "images": [[1.5]]}}, "images"),
        ("scenario", {"group": {"kind": "lattice", "d": True, "images": [[1]]}}, "'d'"),
        ("scenario", {"config": {"rule": "periodic", "period": True, "table": [0, 1]}},
         "period"),
    ], ids=["alphabet-entry", "encoding-table", "encoding-alphabet", "config-support",
            "point-cycle", "point-pre", "generator-name", "generator-domain", "cgs-partition",
            "cgs-alphabet-null", "cgs-alphabet-string", "cgs-generators-number",
            "domain-entry-null", "domain-entry-object", "rewrite-consume-bool",
            "rewrite-emit-float", "partition-value-bool",
            "partition-entry-number",
            "lattice-image-float", "lattice-d-bool", "config-period-bool"])
    def test_wrong_json_type_names_its_field(self, tmp_path, capsys, kind, change, field):
        bad, point = tmp_path / "bad.json", tmp_path / "point.json"
        point.write_text(json.dumps({"pre": [], "cycle": ["0", "1"]}))
        if kind == "scenario":
            bad.write_text(json.dumps(dict(E1_SCENARIO, **change)))
            argv = ["embed", "--scenario", str(bad), "--depth", "2"]
        elif kind == "point":
            bad.write_text(json.dumps(dict(json.loads(point.read_text()), **change)))
            argv = ["itinerary", "--builtin-n0", "0,1", "--point", str(bad), "--depth", "2"]
        else:
            cgs = json.loads(run(capsys, "builtin", "n0")[1])
            (cgs["generators"][0] if kind == "generator" else cgs).update(change)
            bad.write_text(json.dumps(cgs))
            argv = ["itinerary", "--cgs", str(bad), "--point", str(point), "--depth", "2"]
        code, _, err = run(capsys, *argv)
        self.assert_clean_failure(code, err)
        assert field in err.splitlines()[-1]

    @pytest.mark.parametrize("names,problem", [
        (["", "b"], "generators[0].name '' is empty"),
        (["e", "b"], "generators[0].name 'e' is the identity's text"),
        (["a", "a"], "generators[1].name 'a' repeats generators[0].name"),
        (["a", "a'"], "generators[1].name \"a'\" ends in"),
        (["a", "a b"], "generators[1].name 'a b' holds a character at or below ' '"),
    ], ids=["empty", "identity", "repeated", "inverse-mark", "space"])
    def test_generator_names_tell_words_apart(self, tmp_path, capsys, names, problem):
        cgs = json.loads(run(capsys, "builtin", "n0")[1])
        for generator, name in zip(cgs["generators"], names):
            generator["name"] = name
        bad, point = tmp_path / "cgs.json", tmp_path / "point.json"
        bad.write_text(json.dumps(cgs))
        point.write_text(json.dumps({"pre": ["0", "1"], "cycle": ["0", "1"]}))
        code, _, err = run(capsys, "itinerary", "--cgs", str(bad), "--point", str(point),
                           "--depth", "2")
        self.assert_clean_failure(code, err)
        assert problem in err.splitlines()[-1]

    def test_builtin_symbols_tell_words_apart(self, tmp_path, capsys):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"pre": [], "cycle": ["0", "0'"]}))
        code, _, err = run(capsys, "itinerary", "--builtin-n0", "0,0'", "--point", str(point),
                           "--depth", "1")
        self.assert_clean_failure(code, err)
        assert "generators[1].name \"1_0'\" ends in" in err.splitlines()[-1]

    @pytest.mark.parametrize("symbol", [None, True, False])
    @pytest.mark.parametrize("command", ["itinerary", "embed"])
    def test_null_and_boolean_symbols(self, tmp_path, capsys, command, symbol):
        # an itinerary prints a dead word as null, so null cannot be a live word's symbol
        path, point = tmp_path / "input.json", tmp_path / "point.json"
        if command == "itinerary":
            path.write_text(json.dumps({
                "alphabet": [symbol, "1"],
                "generators": [{"name": "a", "domain": [["1"]],
                                "rewrite": {"consume": "1", "emit": ""}}],
                "partition": {str(symbol): [[symbol]], "1": [["1"]]}}))
            point.write_text(json.dumps({"pre": [], "cycle": [symbol, "1"]}))
            argv = ["itinerary", "--cgs", str(path), "--point", str(point), "--depth", "1"]
        else:
            alpha = dict(E1_SCENARIO["alpha"], alphabet=[symbol, 1],
                         table={f"t0,{symbol}": "g0", "t0,1": "g1"})
            path.write_text(json.dumps(dict(E1_SCENARIO, alphabet=[symbol, 1], alpha=alpha)))
            argv = ["embed", "--scenario", str(path), "--depth", "2"]
        code, _, err = run(capsys, *argv)
        self.assert_clean_failure(code, err)
        assert "alphabet symbols must be strings or numbers" in err.splitlines()[-1]

    def test_missing_entries_of_a_huge_source_rank(self, tmp_path, capsys):
        point, alpha = tmp_path / "point.json", tmp_path / "alpha.json"
        point.write_text('{"pre": [], "cycle": ["0", "1"]}')
        alpha.write_text(json.dumps(dict(PSEUDO_ENCODING, M=1_000_000)))
        code, _, err = run(capsys, "embed-pseudo", "--builtin-n0", "0,1", "--point", str(point),
                           "--alpha", str(alpha), "--depth", "1")
        self.assert_clean_failure(code, err)
        line = err.splitlines()[-1]
        assert len(line) < 1024
        assert "target rank 4 below source_rank*alphabet = 2000000" in line
        assert line.endswith("missing entry for (t2, '0'); missing entry for (t2, '1'); "
                             "missing entry for (t3, '0'); and 1999993 more missing entries")

    def test_decode_partial_tree(self, tmp_path, capsys):
        point = tmp_path / "point.json"
        point.write_text('{"pre": ["0", "0"], "cycle": ["0", "1", "0"]}')
        alpha = tmp_path / "alpha.json"
        alpha.write_text(json.dumps({
            "M": 2, "alphabet": ["0", "1"], "n": 4,
            "table": {"t0,0": "g0", "t0,1": "g1", "t1,0": "g2", "t1,1": "g3"},
        }))
        _, out, _ = run(capsys, "embed-pseudo", "--builtin-n0", "0,1", "--point", str(point),
                        "--alpha", str(alpha), "--depth", "3")
        tree = tmp_path / "tree.json"
        tree.write_text(out)
        code, _, err = run(capsys, "decode", "--tree", str(tree), "--alpha", str(alpha),
                           "--depth", "3")
        self.assert_clean_failure(code, err)

    def test_decode_names_the_first_unreadable_word_without_the_ball(self, tmp_path, capsys):
        # a rank-1 ball of radius 29,999 holds 59,999 words of up to 29,999 letters
        tree, alpha = tmp_path / "tree.json", tmp_path / "alpha.json"
        tree.write_text(json.dumps({"rank": 2, "radius": 30_000, "vertices": ["e", "g0", "g0'"]}))
        alpha.write_text(json.dumps(E1_SCENARIO["alpha"]))
        start = time.perf_counter()
        code, _, err = run(capsys, "decode", "--tree", str(tree), "--alpha", str(alpha),
                           "--depth", "30000")
        assert time.perf_counter() - start < 1
        self.assert_clean_failure(code, err)
        assert err.splitlines()[-1] == (
            "error: cannot read the symbol at g0: no vertex decodes to it, "
            "or none that does has an outward positive continuation")

    @pytest.mark.parametrize("valid", [True, False])
    @pytest.mark.parametrize("d", [10, 16, 30])
    def test_partition_with_a_long_prefix(self, tmp_path, capsys, d, valid):
        # valid: 0, 10, 110, ..., 1^(d-1) 0 and 1^d; invalid: 0 and 1^d, which leave
        # 1 0, 1 1 0, ..., 1^(d-1) 0 uncovered
        ends = [["1"] * k + ["0"] for k in range(d)] if valid else [["0"]]
        system, point = tmp_path / "cgs.json", tmp_path / "point.json"
        system.write_text(json.dumps({
            "alphabet": ["0", "1"],
            "generators": [{"name": "a", "domain": [["0"]],
                            "rewrite": {"consume": ["0"], "emit": []}}],
            "partition": {"0": ends[::2], "1": ends[1::2] + [["1"] * d]},
        }))
        point.write_text('{"pre": [], "cycle": ["0", "1"]}')
        start = time.perf_counter()
        code, out, err = run(capsys, "itinerary", "--cgs", str(system), "--point", str(point),
                             "--depth", "2")
        assert time.perf_counter() - start < 1
        if valid:
            assert code == 0 and json.loads(out)["values"]["e"] == "0"
            return
        self.assert_clean_failure(code, err)
        line = err.splitlines()[-1]
        assert len(line) < 1024
        gaps = [f"cylinder on {('1',) * k + ('0',)} met 0 partition pieces; expected exactly 1"
                for k in (1, 2, 3)]
        assert line == ("error: invalid generating system: " + "; ".join(gaps)
                        + f"; and {d - 4} more cylinders not met by exactly 1 partition piece")

    @pytest.mark.parametrize("shape", ["partition", "gap", "domain"])
    def test_thousands_of_prefixes_load_without_comparing_pairs(self, tmp_path, capsys, shape):
        # the 8,192 binary prefixes of length 13 dealt to two pieces, the same with
        # 1^13 dropped, or one generator's domain
        prefixes = [list(p) for p in itertools.product("01", repeat=13)]
        generator = {"name": "a", "domain": [["0"]], "rewrite": {"consume": ["0"], "emit": []}}
        partition = {"0": prefixes[::2], "1": prefixes[1::2]}
        if shape == "gap":
            partition["1"] = partition["1"][:-1]
        elif shape == "domain":
            generator = {"name": "a", "domain": prefixes,
                         "rewrite": {"consume": [], "emit": ["1"]}}
            partition = {"0": [["0"]], "1": [["1"]]}
        system, point = tmp_path / "cgs.json", tmp_path / "point.json"
        system.write_text(json.dumps({"alphabet": ["0", "1"], "generators": [generator],
                                      "partition": partition}))
        point.write_text('{"pre": [], "cycle": ["0", "1"]}')
        start = time.perf_counter()
        code, out, err = run(capsys, "itinerary", "--cgs", str(system), "--point", str(point),
                             "--depth", "3")
        assert time.perf_counter() - start < 2
        if shape == "gap":
            self.assert_clean_failure(code, err)
            assert err.splitlines()[-1] == (
                f"error: invalid generating system: cylinder on {('1',) * 13} met 0 "
                "partition pieces; expected exactly 1")
            return
        live = ({"a": "1", "a'": "1", "a' a'": "0", "a' a' a'": "1"} if shape == "partition"
                else {"a": "1", "a a": "1", "a a a": "1"})
        dead = {"a": None, "a a": None, "a a a": None, "a'": None, "a' a'": None,
                "a' a' a'": None}
        assert code == 0 and json.loads(out) == {"depth": 3,
                                                 "values": {**dead, **live, "e": "0"}}

    def test_a_point_is_classified_among_thousands_of_prefixes(self, tmp_path, capsys,
                                                               monkeypatch):
        # the 8,192 binary prefixes of length 13 dealt to two pieces by their last
        # symbol; a prepends a 1 everywhere, b drops a leading 1
        prefixes = [list(p) for p in itertools.product("01", repeat=13)]
        generators = [{"name": "a", "domain": [["0"], ["1"]],
                       "rewrite": {"consume": [], "emit": ["1"]}},
                      {"name": "b", "domain": [["1"]], "rewrite": {"consume": ["1"], "emit": []}}]
        system, point = tmp_path / "cgs.json", tmp_path / "point.json"
        system.write_text(json.dumps({"alphabet": ["0", "1"], "generators": generators,
                                      "partition": {"0": prefixes[::2], "1": prefixes[1::2]}}))
        point.write_text('{"pre": [], "cycle": ["0", "1"]}')
        argv = ("itinerary", "--cgs", str(system), "--point", str(point), "--depth", "6")
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 0 and err == ""
        # the pieces are the streams whose 13th symbol is 0 and those where it is 1
        monkeypatch.setattr(treeshift.pseudogroup.CylinderPseudogroup, "classify",
                            lambda self, stream: stream.prefix(13)[12])
        assert run(capsys, *argv) == (0, out, "")

    def test_a_long_path_names_three_vertices(self, tmp_path, capsys):
        # 3,000 vertices beyond radius 0, whose texts add up to 13.5 MB
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({"rank": 1, "radius": 0,
                                    "vertices": ["e"] + [" ".join(["g0"] * n)
                                                         for n in range(1, 3001)]}))
        start = time.perf_counter()
        code, _, err = run(capsys, "act", "--tree", str(tree), "--word", "e")
        assert time.perf_counter() - start < 1
        self.assert_clean_failure(code, err)
        line = err.splitlines()[-1]
        assert len(line) < 1024
        assert line == ("error: vertex g0 exceeds radius 0; vertex g0 g0 exceeds radius 0; "
                        "vertex g0 g0 g0 exceeds radius 0; and 2997 more violations")


ENCODING = {"M": 2, "alphabet": [0, 1], "n": 4,
            "table": {"t0,0": "g0", "t0,1": "g1", "t1,0": "g2", "t1,1": "g3"}}
FREE_SCENARIO = {"group": {"kind": "free", "M": 2}, "alphabet": [0, 1],
                 "config": {"rule": "finite", "support": {"g0": 1, "g1 g0'": 1}, "default": 0},
                 "alpha": ENCODING}
Z2_SCENARIO = {"group": {"kind": "lattice", "d": 2, "images": [[1, 0], [0, 1]]},
               "alphabet": [0, 1],
               "config": {"rule": "periodic", "periods": [2, 2], "table": [[0, 1], [1, 0]]},
               "alpha": ENCODING}
POINT = {"pre": ["0"], "cycle": ["0", "1"]}
PSEUDO_ENCODING = dict(ENCODING, alphabet=["0", "1"])

# (command line, with "{input}" for the mutated file, and the file's base document);
# "{scenario}", "{tree}", "{point}" stand for unmutated inputs
MUTATED_COMMANDS = {
    "embed-free": (["embed", "--scenario", "{input}", "--depth", "2"], FREE_SCENARIO),
    "embed-z2": (["embed", "--scenario", "{input}", "--depth", "2"], Z2_SCENARIO),
    "equivariance-z2": (["equivariance", "--scenario", "{input}", "--depth", "2"], Z2_SCENARIO),
    "orbit-z1": (["orbit", "--scenario", "{input}", "--depth", "4", "--working-radius", "1",
                  "--step-bound", "2"], E1_SCENARIO),
    "act-tree": (["act", "--tree", "{input}", "--word", "g0"], "tree"),
    "decode-tree": (["decode", "--tree", "{input}", "--scenario", "{scenario}", "--depth", "3"],
                    "tree"),
    "metric-tree": (["metric", "--tree", "{input}", "--tree", "{tree}"], "tree"),
    "itinerary-point": (["itinerary", "--builtin-n0", "0,1", "--point", "{input}", "--depth", "2"],
                        POINT),
    "itinerary-cgs": (["itinerary", "--cgs", "{input}", "--point", "{point}", "--depth", "2"],
                      "cgs"),
    "embed-pseudo-encoding": (["embed-pseudo", "--builtin-n0", "0,1", "--point", "{point}",
                               "--alpha", "{input}", "--depth", "2"], PSEUDO_ENCODING),
}
DELETE = object()
FIELD_VALUES = [None, 0, -1, 1.5, True, "01", "", [], {}, [None], {"x": 1}, 10**6, DELETE]
# names that would let two words share a text, for each generator of a system
BAD_NAMES = ["", "e", "a'", "a b", "a\n", "{other}"]


def json_paths(node, path=()):
    """The path of every node of a JSON document, the root's ``()`` first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from json_paths(value, path + (key,))


def with_field(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` set to ``value``, or deleted."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def mutations(name: str, doc, per_value: int = 4):
    """A sample of the one-field mutations of ``doc``, seeded by ``name``:
    ``per_value`` nodes for each value, and every bad name for each
    generator of a two-generator system."""
    rng = random.Random(name)
    paths = list(json_paths(doc))
    for value in FIELD_VALUES:
        choices = [path for path in paths if path or value is not DELETE]
        for path in rng.sample(choices, min(per_value, len(choices))):
            yield path, value
    generators = doc.get("generators", [])
    for i in range(len(generators)):
        for bad in BAD_NAMES:
            yield ("generators", i, "name"), bad.format(other=generators[1 - i]["name"])


class TestOneFieldMutations:
    """Each input file with one node replaced by a value of another kind, or
    deleted, ends in exit 0, 1 or 2; a failure ends in an ``error:`` line, and
    nothing but a TreeshiftError (turned into that line by ``main``) escapes."""

    @pytest.fixture
    def inputs(self, tmp_path, capsys):
        scenario = self.write(tmp_path, "scenario", E1_SCENARIO)
        tree = json.loads(run(capsys, "embed", "--scenario", scenario, "--depth", "3")[1])
        docs = {"tree": tree, "cgs": json.loads(run(capsys, "builtin", "n0")[1])}
        paths = {"scenario": scenario, "tree": self.write(tmp_path, "tree", tree),
                 "point": self.write(tmp_path, "point", POINT)}
        return tmp_path, docs, paths

    @staticmethod
    def write(root, name, doc) -> str:
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("name", MUTATED_COMMANDS)
    def test_every_exit_is_clean(self, inputs, capsys, name):
        root, docs, paths = inputs
        argv, doc = MUTATED_COMMANDS[name]
        doc = docs[doc] if isinstance(doc, str) else doc
        unclean = []
        for path, value in mutations(name, doc):
            mutated = self.write(root, "input", with_field(doc, path, value))
            try:
                code, _, err = run(capsys, *(arg.format(input=mutated, **paths) for arg in argv))
            except Exception as exc:  # any escape is a finding: collect them all
                unclean.append((path, value, repr(exc)))
                continue
            lines = err.splitlines()
            if code not in (0, 1, 2) or code and not (lines and lines[-1].startswith("error:")):
                unclean.append((path, value, code, err))
        assert unclean == []


def _modules_after(code: str) -> set[str]:
    """Every module in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    src = str(Path(treeshift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = code + "\nimport sys\nprint(*sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@functools.lru_cache(maxsize=1)
def _bare_modules() -> frozenset[str]:
    """What ``python -c pass`` loads; it varies with the host's ``site``."""
    return frozenset(_modules_after("pass"))


def loaded_modules(code: str) -> set[str]:
    """The modules that ``code`` loads beyond those of a bare interpreter."""
    return _modules_after(code) - _bare_modules()


def treeshift_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.partition(".")[0] == "treeshift"}


def source_lines(modules: set[str]) -> int:
    """The lines of source of the package modules among ``modules``."""
    root = Path(treeshift.__file__).parent
    return sum(len((root / f"{m.partition('.')[2] or '__init__'}.py").read_text().splitlines())
               for m in treeshift_modules(modules))


BASE = {"treeshift", "treeshift.cli", "treeshift.errors"}
TREES = BASE | {"treeshift.freegroup", "treeshift.trees"}
EMBED = TREES | {"treeshift.embed"}
SCENARIO = EMBED | {"treeshift.groups", "treeshift.shift"}
PSEUDO = EMBED | {"treeshift.pseudogroup"}
ITINERARY = BASE | {"treeshift.freegroup", "treeshift.pseudogroup"}
EVERYTHING = SCENARIO | PSEUDO | {"treeshift.verify"}

# one run of every subcommand, with "{name}" standing for an input file of TestImports,
# the package modules it loads, and a ceiling on their lines of source, so that
# growth on a command's path shows in review
COMMANDS = [
    (["--help"], BASE, 593),
    (["act", "--tree", "{tree}", "--word", "g0"], TREES, 1505),
    (["metric", "--tree", "{tree}", "--tree", "{tree}"], TREES, 1505),
    (["separate", "--tree", "{tree}", "--tree", "{tree}"], EMBED, 1963),
    (["embed", "--scenario", "{scenario}", "--depth", "2"], SCENARIO, 2665),
    (["decode", "--tree", "{tree}", "--scenario", "{scenario}", "--depth", "3"], SCENARIO, 2665),
    (["orbit", "--scenario", "{scenario}", "--depth", "4", "--working-radius", "1",
      "--step-bound", "2"], SCENARIO, 2665),
    (["equivariance", "--scenario", "{scenario}", "--depth", "2"], SCENARIO, 2665),
    (["itinerary", "--builtin-n0", "0,1", "--point", "{point}", "--depth", "2"], ITINERARY,
     1588),
    (["embed-pseudo", "--builtin-n0", "0,1", "--point", "{point}", "--alpha", "{alpha}",
      "--depth", "1"], PSEUDO, 2451),
    (["builtin", "n0"], ITINERARY | {"treeshift.trees"}, 1993),
    # verify loads every module but pseudogroup, which only its own suite loads:
    # bench/launch.py wraps the spans of the modules that load with verify
    (["verify", "--suite", "lattice-collapse"], EVERYTHING - {"treeshift.pseudogroup"}, 3061),
    (["verify", "--suite", "pseudogroup"], EVERYTHING, 3549),
]


def command_ids(commands) -> list[str]:
    """Each command's name, and for a repeated name also its last argument."""
    ids: list[str] = []
    for argv, *_ in commands:
        name = argv[0].lstrip("-")
        ids.append(f"{name}-{argv[-1]}" if name in ids else name)
    return ids

# modules no command needs: dataclasses brings inspect, ast, dis and tokenize, and
# _hashlib (OpenSSL) comes with hashlib, although blake2b is the built-in _blake2
SLOW_IMPORTS = {"dataclasses", "inspect", "_hashlib"}


class TestImports:
    """Each command loads the package modules it runs and no others, and
    none of the slow standard modules."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("imports")
        paths = {name: str(root / f"{name}.json")
                 for name in ("scenario", "tree", "point", "alpha")}
        Path(paths["scenario"]).write_text(dumps_json(E1_SCENARIO))
        Path(paths["point"]).write_text('{"pre": [], "cycle": ["0", "1"]}')
        Path(paths["alpha"]).write_text(json.dumps({
            "M": 2, "alphabet": ["0", "1"], "n": 4,
            "table": {"t0,0": "g0", "t0,1": "g1", "t1,0": "g2", "t1,1": "g3"},
        }))
        tree = io.StringIO()
        with contextlib.redirect_stdout(tree):
            assert main(["embed", "--scenario", paths["scenario"], "--depth", "3"]) == 0
        Path(paths["tree"]).write_text(tree.getvalue())
        return paths

    @pytest.mark.parametrize("argv,expected,lines", COMMANDS,
                             ids=command_ids(COMMANDS))
    def test_command_loads_only_its_modules(self, inputs, argv, expected, lines):
        argv = [arg.format(**inputs) for arg in argv]
        loaded = loaded_modules(
            "import contextlib, io\n"
            "from treeshift import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n")
        assert treeshift_modules(loaded) == expected
        assert not loaded & SLOW_IMPORTS
        assert source_lines(expected) <= lines

    def test_package_root_loads_nothing(self):
        assert treeshift_modules(loaded_modules("import treeshift")) == {"treeshift"}
        assert treeshift_modules(loaded_modules("from treeshift import act")) == {
            "treeshift", "treeshift.errors", "treeshift.freegroup", "treeshift.trees"}

    @pytest.mark.parametrize("name", ["alphabet", "Alphabet"])
    def test_alphabet_loads_only_errors(self, name):
        assert treeshift_modules(loaded_modules(f"from treeshift import {name}")) == {
            "treeshift", "treeshift.errors"}

    def test_imports_point_one_way(self):
        # groups builds on shift, never the reverse; itineraries and their
        # trees need no configurations
        assert "treeshift.groups" not in loaded_modules("import treeshift.shift")
        assert "treeshift.shift" not in loaded_modules(
            "import treeshift.pseudogroup, treeshift.embed")
