"""Tests of the benchmark's reference code.

    PYTHONPATH=src python -m pytest bench -q
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import reference as ref
from layers import PER_LAYER
from calibrate import main as calibration_task
from run import CAL_REF_S, scale
from workloads import SUITES, Command, PrunedItinerary, VerifySuites, malformed_ok, round_robin

BENCH = Path(__file__).resolve().parent

PARITY = {
    "group": {"kind": "lattice", "d": 1, "images": [[1]]},
    "alphabet": [0, 1],
    "config": {"rule": "periodic", "period": 2, "table": [0, 1]},
    "alpha": {"M": 1, "alphabet": [0, 1], "n": 2, "table": {"t0,0": "g0", "t0,1": "g1"}},
}


def test_reduce_cancels_adjacent_inverse_pairs():
    assert ref.reduce((1, 2, -2, -1, 3)) == (3,)
    assert ref.reduce((1, -1, 1)) == (1,)
    w = (1, -2, 3)
    assert ref.reduce(w + ref.inverse(w)) == ()
    assert ref.reduce(ref.reduce((2, 1, -1, 2))) == (2, 2)


def test_render_and_parse_round_trip():
    for w in ref.ball(2, 3):
        assert ref.parse(ref.render(w)) == w
        assert ref.parse(ref.render(w, "t"), "t") == w
    assert ref.render(()) == "e"
    assert ref.render((1, -2)) == "g0 g1'"


@pytest.mark.parametrize("rank,radius", [(1, 5), (2, 4), (3, 3)])
def test_ball_is_reduced_and_has_ball_size_words(rank, radius):
    words = ref.ball(rank, radius)
    assert len(words) == len(set(words)) == ref.ball_size(rank, radius)
    assert all(ref.reduce(w) == w for w in words)


def test_ball_sizes_quoted_for_the_workloads():
    assert ref.ball_size(2, 7) == 4373
    assert ref.ball_size(2, 8) == 13121
    assert ref.ball_size(2, 9) == 39365


def test_embedding_rule_on_the_parity_ladder():
    sc = ref.Scenario(PARITY)
    tree = ref.embed_tree(sc, 2)
    assert {ref.render(v) for v in tree.vertices} == {"e", "g0", "g0 g1", "g1'", "g1' g0'"}


def test_total_embedding_fills_the_ball_without_collisions():
    rng = random.Random(3)
    obj = {
        "group": {"kind": "lattice", "d": 2, "images": [[1, 0], [0, 1]]},
        "alphabet": [0, 1, 2],
        "config": {"rule": "periodic", "periods": [2, 3],
                   "table": [[rng.randrange(3) for _ in range(3)] for _ in range(2)]},
        "alpha": {"M": 2, "alphabet": [0, 1, 2], "n": 6,
                  "table": {f"t{g},{s}": f"g{3 * g + s}" for g in range(2) for s in range(3)}},
    }
    sc = ref.Scenario(obj)
    kappa = ref.embedding(sc.rank, 4, sc.alpha, sc.symbol)
    assert len(kappa) == len(set(kappa.values())) == ref.ball_size(2, 4)
    assert all(len(v) == len(w) for w, v in kappa.items())


def test_finite_support_symbols_read_reduced_words():
    obj = dict(PARITY, group={"kind": "free", "M": 1},
               config={"rule": "finite", "support": {"g0 g0": 1}, "default": 0})
    sc = ref.Scenario(obj)
    assert sc.symbol((1, 1)) == 1
    assert sc.symbol((1, 1, -1, 1)) == 1
    assert sc.symbol((1,)) == 0


def test_periodic_symbols_follow_the_lattice_images():
    obj = dict(PARITY, group={"kind": "lattice", "d": 1, "images": [[1], [-2]]},
               config={"rule": "periodic", "period": 3, "table": [0, 1, 1]})
    sc = ref.Scenario(obj)
    assert sc.payload((1, 2)) == (-1,)
    assert sc.symbol((1, 2)) == 1  # -1 mod 3 == 2
    assert sc.symbol((2, 2, 2)) == 0  # -6 mod 3 == 0
    assert sc.translates() == 3


def test_decode_reads_the_ball_one_short_of_the_depth():
    decoded = ref.decode_json(ref.Scenario(PARITY), 3)
    assert decoded["depth"] == 2
    assert decoded["values"] == {"e": 0, "t0": 1, "t0'": 1, "t0 t0": 0, "t0' t0'": 0}


def test_act_rebases_and_truncates():
    tree = ref.Tree(2, 2, [(), (1,), (1, 2), (-2,), (-2, -1)])
    moved = ref.act(tree, (1,))
    assert moved.radius == 1
    assert moved.vertices == {(), (-1,), (2,)}
    assert ref.act(tree, ()).vertices == tree.vertices
    with pytest.raises(ValueError):
        ref.act(tree, (2,))


def test_metric_is_the_last_level_before_the_vertex_sets_differ():
    a = ref.Tree(2, 3, [(), (1,), (1, 1), (1, 1, 1)])
    b = ref.Tree(2, 3, [(), (1,), (1, 1), (1, 1, 2)])
    assert ref.metric(a, b) == ("exact", 2)
    assert ref.metric(a, a) == ("at-least", 3)
    assert ref.metric_json(a, b)["value"] == pytest.approx(0.1353352832366127)


def test_builtin_shift_itinerary_matches_the_papers_example():
    system = ref.RewriteSystem.builtin_n0([0, 1])
    values = system.itinerary([], [0, 1], 2)
    assert values[()] == 0
    assert values[(1,)] == 1  # drop the leading 0
    assert values[(2,)] is None  # 1_1 is undefined on a point starting with 0
    assert values[(-1,)] == 0  # prepend 0
    assert values[(2, 1)] is None  # dead words stay dead
    assert values[(1, 2)] == 0  # drop 0, then drop 1
    assert len(values) == ref.ball_size(2, 2)


def test_derived_inverses_undo_multi_symbol_rewrites():
    obj = {"alphabet": ["0", "1"],
           "generators": [{"name": "a", "domain": [["0", "1"]],
                           "rewrite": {"consume": ["0", "1"], "emit": ["1"]}}],
           "partition": {"0": [["0"]], "1": [["1"]]}}
    system = ref.RewriteSystem.from_json(obj)
    point = tuple("0110")
    image = system.rewrite(1, point)
    assert image == tuple("110")
    assert system.rewrite(-1, image) == point
    assert system.rewrite(1, tuple("1010")) is None
    assert system.itinerary_json({(1,): "1", (): "0"}, 1)["values"] == {"a": "1", "e": "0"}


def test_pseudo_embedding_keeps_only_live_words():
    system = ref.RewriteSystem.builtin_n0([0, 1])
    values = system.itinerary([], [0, 1], 1)
    alpha = {(1, 0): 1, (1, 1): 2, (2, 0): 3, (2, 1): 4}
    tree = ref.embed_pseudo_tree(values, 2, 1, alpha, 4)
    assert {ref.render(v) for v in tree.vertices} == {"e", "g0", "g0'", "g3'"}


def test_verify_lines_need_pass_and_the_fixed_sample_sizes():
    assert ref.verify_line_ok("round-trip", "PASS  round-trip         200 oracles, 0 failures\n")
    assert not ref.verify_line_ok("round-trip", "FAIL  round-trip         200 oracles, 1 failures")
    assert not ref.verify_line_ok("round-trip", "PASS  round-trip         20 oracles, 0 failures\n")
    assert ref.verify_line_ok(
        "equivariance", "PASS  equivariance       600 generator checks, 0 failures; "
                        "identity-symbol variant unusable in 187 of them\n")


def test_malformed_commands_must_end_in_an_error_line():
    assert malformed_ok(1, "usage: ...\nerror: bad input\n")
    assert not malformed_ok(1, "Traceback (most recent call last):\nIndexError: list index\n")
    assert not malformed_ok(0, "")


def test_round_robin_interleaves_kinds():
    cmds = [Command(k, [str(i)], None) for i, k in enumerate("aabbbc")]
    assert [c.kind for c in round_robin(cmds)] == list("abcabb")


def test_calibration_task_gets_its_answer_right():
    assert calibration_task() == 0


def test_scale_divides_by_the_mean_of_the_calibrations_around_each_time():
    cals = [CAL_REF_S, 3 * CAL_REF_S, CAL_REF_S]
    assert scale([1.0, 2.0], cals) == [0.5, 1.0]


def test_pruned_itinerary_passes_rotate_over_the_points():
    workload = PrunedItinerary(1, Path("work"))

    def points(p):
        return [c.args[c.args.index("--point") + 1] for c in workload.commands(p)]

    assert len(set(points(0))) == len(PrunedItinerary.SLOTS)
    assert points(0) != points(1)
    assert points(3) == points(3 + PrunedItinerary.POINTS)


def test_verify_suites_run_tree_shape_on_five_seeds_per_pass(tmp_path):
    workload = VerifySuites(1, tmp_path)
    workload.build()
    cmds = workload.commands(0)
    shapes = [c.args[-1] for c in cmds if c.kind == "verify tree-shape"]
    assert len(cmds) == len(SUITES) + 4
    assert len(set(shapes)) == 5
    assert not set(shapes) & {c.args[-1] for c in workload.commands(1)
                              if c.kind == "verify tree-shape"}


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert listed == {name: (unit, better) for name, (unit, better, _, _) in PER_LAYER.items()}


def test_reference_embedding_agrees_with_the_package():
    pytest.importorskip("treeshift")
    from treeshift.cli import Scenario
    from treeshift.embed import embed_config, encoding_from_json
    from treeshift.groups import group_from_json
    from treeshift.shift import alphabet, config_from_json

    obj = {
        "group": {"kind": "lattice", "d": 2, "images": [[1, 0], [1, 1]]},
        "alphabet": [0, 1],
        "config": {"rule": "periodic", "periods": [2, 3], "table": [[0, 1, 1], [1, 0, 0]]},
        "alpha": {"M": 2, "alphabet": [0, 1], "n": 4,
                  "table": {"t0,0": "g2", "t0,1": "g0", "t1,0": "g3", "t1,1": "g1"}},
    }
    group = group_from_json(obj["group"])
    bits = alphabet(obj["alphabet"])
    scenario = Scenario(group, bits, config_from_json(group, bits, obj["config"]),
                        encoding_from_json(obj["alpha"], alphabet=bits))
    tree = embed_config(scenario.free_config(), scenario.encoding, 4).tree
    expected = ref.embed_tree(ref.Scenario(obj), 4)
    assert {ref.parse(str(v)) for v in tree.vertices} == expected.vertices
