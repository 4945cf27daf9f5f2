"""The benchmark's workloads.

Each workload builds its input files through the ``treeshift`` library from
the workload seed (:meth:`Workload.build`, the timed set-up) and then lists
the fixed commands one pass runs, each with the check its output must pass
(:meth:`Workload.commands`, untimed).  The checks use :mod:`reference` only.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

M = 2  # generators of every source group: the tree layers see the same ball sizes


@dataclass
class Command:
    """One CLI invocation.  ``check`` is None for a malformed-input command,
    whose expected outcome is exit 1 with an ``error:`` line and no traceback."""

    kind: str
    args: list[str]
    check: Callable[[int, str], bool] | None

    @property
    def malformed(self) -> bool:
        return self.check is None


def malformed_ok(rc: int, stderr: str) -> bool:
    lines = stderr.strip().splitlines()
    return rc == 1 and bool(lines) and lines[-1].startswith("error:") and "Traceback" not in stderr


def round_robin(commands: list[Command]) -> list[Command]:
    """Interleave by kind (first of every kind, then second of every kind, ...)
    so that drift on the host lands evenly on every kind."""
    kinds: dict[str, list[Command]] = {}
    for c in commands:
        kinds.setdefault(c.kind, []).append(c)
    out = []
    for i in range(max(len(v) for v in kinds.values())):
        out.extend(v[i] for v in kinds.values() if i < len(v))
    return out


def _read(path: str):
    with open(path) as handle:
        return json.load(handle)


def _write(path: str, obj) -> None:
    with open(path, "w") as handle:
        json.dump(obj, handle)


def _tree_ok(out: str, expected: ref.Tree, total: bool = False) -> bool:
    obj = json.loads(out)
    vertices = [ref.parse(v) for v in obj["vertices"]]
    if total and len(vertices) != ref.ball_size(M, expected.radius):
        return False
    return (obj["rank"] == expected.rank and obj["radius"] == expected.radius
            and len(vertices) == len(set(vertices)) and set(vertices) == expected.vertices)


def check_embed(scenario: str, depth: int):
    def check(rc, out):
        return rc == 0 and _tree_ok(out, ref.embed_tree(ref.Scenario(_read(scenario)), depth),
                                    total=True)
    return check


def check_decode(scenario: str, depth: int):
    def check(rc, out):
        return rc == 0 and json.loads(out) == ref.decode_json(ref.Scenario(_read(scenario)), depth)
    return check


def check_act(tree: str, word: str):
    def check(rc, out):
        return rc == 0 and _tree_ok(out, ref.act(ref.Tree.from_json(_read(tree)), ref.parse(word)))
    return check


def check_metric(a: str, b: str):
    def check(rc, out):
        t1, t2 = ref.Tree.from_json(_read(a)), ref.Tree.from_json(_read(b))
        return rc == 0 and json.loads(out) == ref.metric_json(t1, t2)
    return check


def check_separate(a: str, b: str):
    def check(rc, out):
        t1, t2 = ref.Tree.from_json(_read(a)), ref.Tree.from_json(_read(b))
        obj = json.loads(out)
        kind, r = ref.metric(t1, t2)
        if rc != 0 or kind != "exact":
            return rc == 0 and obj["witness"] is None
        g = ref.parse(obj["witness"])
        return (len(g) == r == obj["length"]
                and ref.metric(ref.act(t1, g), ref.act(t2, g)) == ("exact", 0)
                and obj["rebased"] == {"kind": "exact", "r": 0, "value": 1.0})
    return check


def check_equivariance(depth: int):
    def check(rc, out):
        obj = json.loads(out)
        return (rc == 0 and obj["depth"] == depth and obj["all_equal"] is True
                and len(obj["reports"]) == 2 * M
                and all(r["ball_equal"] for r in obj["reports"]))
    return check


def check_orbit(scenario: str, working_radius: int, step_bound: int):
    def check(rc, out):
        sc = ref.Scenario(_read(scenario))
        obj = json.loads(out)
        nodes = obj["nodes"]
        labels = {f"g{i}" for i in range(sc.target_rank)}
        edges_ok = all(0 <= e["from"] < len(nodes) and 0 <= e["to"] < len(nodes)
                       and e["label"] in labels for e in obj["edges"])
        nodes_ok = all(n["rank"] == sc.target_rank and n["radius"] == working_radius
                       for n in nodes)
        root = ref.Tree.from_json(nodes[0]).vertices == \
            ref.embed_tree(sc, working_radius).vertices
        return (rc == 0 and obj["step_bound"] == step_bound and edges_ok and nodes_ok and root
                and 1 <= len(nodes) <= sc.translates())
    return check


class Workload:
    """A seed, a directory for the generated files, and a command list."""

    name = ""
    why = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self._commands: list[Command] | None = None

    def path(self, name: str) -> str:
        return str(self.work / name)

    def build(self) -> None:
        raise NotImplementedError

    def command_list(self) -> list[Command]:
        raise NotImplementedError

    def commands(self, p: int) -> list[Command]:
        """The commands of pass ``p``: the same list in every pass."""
        if self._commands is None:
            self._commands = self.command_list()
        return self._commands


def _tree_file(path: str, tree) -> None:
    from treeshift.trees import dumps_json, tree_to_json

    with open(path, "w") as handle:
        handle.write(dumps_json(tree_to_json(tree)))


def _scenario_trees(workload: Workload, obj: dict, prefix: str, depths,
                    flip_length: int | None, rng: random.Random) -> str:
    """Write the scenario, its trees at ``depths`` and, unless ``flip_length``
    is None, a radius-7 tree of the same configuration flipped at one word of
    that length.  Returns the radius-7 tree, whose vertices ``act`` takes."""
    from treeshift.cli import load_scenario
    from treeshift.embed import embed_config
    from treeshift.freegroup import enumerate_spheres
    from treeshift.shift import flipped_config

    path = workload.path(f"{prefix}.json")
    _write(path, obj)
    scenario = load_scenario(path)
    sigma = scenario.free_config()
    trees = {}
    for depth in depths:
        trees[depth] = embed_config(sigma, scenario.encoding, depth).tree
        _tree_file(workload.path(f"{prefix}-t{depth}.json"), trees[depth])
    if flip_length is not None:
        at = rng.choice(enumerate_spheres(M, flip_length)[flip_length])
        flipped = flipped_config(scenario.config, at, seed=0)
        if scenario.group.kind != "free":
            from treeshift.groups import induced_config
            flipped = induced_config(scenario.group, flipped)
        _tree_file(workload.path(f"{prefix}-flip.json"),
                   embed_config(flipped, scenario.encoding, 7).tree)
    return trees[7]


def _vertex(rng: random.Random, tree, length: int) -> str:
    return str(rng.choice(sorted((v for v in tree.vertices if len(v) == length),
                                 key=lambda v: v.sort_key())))


def _alpha(rng: random.Random, symbols) -> dict:
    from treeshift.embed import encoding_to_json, random_encoding
    from treeshift.shift import alphabet

    # the smallest target rank: every target letter is used, whatever the seed
    n = M * len(symbols)
    return encoding_to_json(random_encoding(M, alphabet(symbols), n, seed=rng.randrange(2**31)))


class FreeBall(Workload):
    name = "free-ball"
    why = ("embed, decode, act, metric, separate and equivariance on free-group trees of "
           "radius 7-8: Word building, hashing and tree loading")
    # embed runs on this many scenarios and act on two words: two commands
    # take less time than embed and four take more, so the median command of
    # a run falls among the embeds, not in a gap between two kinds
    EMBEDS = 4

    def build(self):
        from treeshift.freegroup import enumerate_ball

        rng = random.Random(self.seed)
        words = enumerate_ball(M, 4)
        obj = {
            "group": {"kind": "free", "M": M},
            "alphabet": [0, 1],
            "config": {"rule": "finite", "default": 0,
                       "support": {str(w): 1 for w in rng.sample(words, 24)}},
            "alpha": _alpha(rng, [0, 1]),
        }
        tree = _scenario_trees(self, obj, "free", (1, 7, 8), 4, rng)
        _write(self.path("act-words.json"), [_vertex(rng, tree, 2), _vertex(rng, tree, 3)])
        for i in range(1, self.EMBEDS):
            other = dict(obj, config=dict(obj["config"],
                                          support={str(w): 1 for w in rng.sample(words, 24)}))
            _write(self.path(f"free-other{i}.json"), other)
        bad = json.loads(json.dumps(obj))
        bad["alpha"]["table"]["t0,0"] = "gx"
        _write(self.path("free-gx.json"), bad)

    def command_list(self):
        p = self.path
        words = _read(p("act-words.json"))
        scenarios = ["free.json", *(f"free-other{i}.json" for i in range(1, self.EMBEDS))]
        return round_robin([
            *(Command("embed", ["embed", "--scenario", p(sc), "--depth", "7"],
                      check_embed(p(sc), 7)) for sc in scenarios),
            Command("decode", ["decode", "--tree", p("free-t8.json"), "--scenario",
                               p("free.json"), "--depth", "8"], check_decode(p("free.json"), 8)),
            *(Command("act", ["act", "--tree", p("free-t7.json"), "--word", word],
                      check_act(p("free-t7.json"), word)) for word in words),
            Command("metric", ["metric", "--tree", p("free-t7.json"), "--tree",
                               p("free-flip.json"), "--format", "json"],
                    check_metric(p("free-t7.json"), p("free-flip.json"))),
            Command("separate", ["separate", "--tree", p("free-t7.json"), "--tree",
                                 p("free-flip.json")],
                    check_separate(p("free-t7.json"), p("free-flip.json"))),
            Command("equivariance", ["equivariance", "--scenario", p("free.json"), "--depth", "6"],
                    check_equivariance(6)),
            Command("embed-bad-alpha", ["embed", "--scenario", p("free-gx.json"), "--depth", "7"],
                    None),
            Command("decode-no-alpha", ["decode", "--tree", p("free-t1.json"), "--depth", "1"],
                    None),
        ])


LATTICES = {  # name: lattice images of the two generators, periods of the config
    "z1": ([[1], [-2]], [3]),
    "z2": ([[1, 0], [0, 1]], [2, 3]),
    "z3": ([[1, 0, 1], [0, 1, 1]], [2, 2, 2]),
}


def _periodic_table(rng: random.Random, periods: list[int]):
    if len(periods) == 1:
        cells = [rng.randrange(2) for _ in range(periods[0])]
        if len(set(cells)) == 1:
            cells[0] ^= 1
        return cells
    return [_periodic_table(rng, periods[1:]) for _ in range(periods[0])]


class LatticeBall(Workload):
    name = "lattice-ball"
    why = ("the free-ball mix plus orbit on periodic configs over Z1-Z3 at the same radii: "
           "group normalization and Config.eval")

    def build(self):
        rng = random.Random(self.seed)
        for name, (images, periods) in LATTICES.items():
            config = {"rule": "periodic", "table": _periodic_table(rng, periods)}
            if len(periods) == 1:
                config["period"] = periods[0]
            else:
                config["periods"] = periods
            obj = {"group": {"kind": "lattice", "d": len(images[0]), "images": images},
                   "alphabet": [0, 1], "config": config, "alpha": _alpha(rng, [0, 1])}
            # metric and separate run on Z2 only, so only Z2 needs a flipped twin
            tree = _scenario_trees(self, obj, name, (7,), 3 if name == "z2" else None, rng)
            _write(self.path(f"{name}-act-word.json"), _vertex(rng, tree, 2))
        bad = _read(self.path("z1.json"))
        bad["config"]["table"] = bad["config"]["table"][:2]
        _write(self.path("z1-short-table.json"), bad)

    def command_list(self):
        p = self.path
        cmds = []
        for name in LATTICES:
            cmds.append(Command("embed", ["embed", "--scenario", p(f"{name}.json"), "--depth", "7"],
                                check_embed(p(f"{name}.json"), 7)))
            cmds.append(Command("orbit", ["orbit", "--scenario", p(f"{name}.json"), "--depth", "6",
                                          "--working-radius", "2", "--step-bound", "4"],
                                check_orbit(p(f"{name}.json"), 2, 4)))
        word = _read(p("z3-act-word.json"))
        cmds += [
            Command("decode", ["decode", "--tree", p("z1-t7.json"), "--scenario", p("z1.json"),
                               "--depth", "7"], check_decode(p("z1.json"), 7)),
            Command("act", ["act", "--tree", p("z3-t7.json"), "--word", word],
                    check_act(p("z3-t7.json"), word)),
            Command("metric", ["metric", "--tree", p("z2-t7.json"), "--tree", p("z2-flip.json"),
                               "--format", "json"],
                    check_metric(p("z2-t7.json"), p("z2-flip.json"))),
            Command("separate", ["separate", "--tree", p("z2-t7.json"), "--tree",
                                 p("z2-flip.json")],
                    check_separate(p("z2-t7.json"), p("z2-flip.json"))),
            Command("equivariance", ["equivariance", "--scenario", p("z2.json"), "--depth", "6"],
                    check_equivariance(6)),
            Command("embed-short-table", ["embed", "--scenario", p("z1-short-table.json"),
                                          "--depth", "7"], None),
        ]
        return round_robin(cmds)


class PrunedItinerary(Workload):
    name = "pruned-itinerary"
    why = ("itinerary and embed-pseudo at depths 8-9 on eventually periodic points: the "
           "whole ball is enumerated while few words stay live")
    POINTS = 8

    def build(self):
        from treeshift.pseudogroup import (
            Cylinder,
            CylinderPseudogroup,
            CylinderUnion,
            PartialMap,
            cgs_to_json,
            inverse_of,
        )
        from treeshift.shift import alphabet

        rng = random.Random(self.seed)
        bits = alphabet(["0", "1"])

        def rewrite(name, domain, consume, emit):
            return PartialMap(name, CylinderUnion.of(Cylinder(tuple(p)) for p in domain),
                              tuple(consume), tuple(emit), name + "'")

        # both generators rewrite more than one symbol on one side
        positive = (rewrite("a", ["01"], "01", "1"), rewrite("b", ["10", "11"], "1", "00"))
        cgs = CylinderPseudogroup(bits, positive, tuple(inverse_of(pm) for pm in positive),
                                  (("0", CylinderUnion.of([Cylinder(("0",))])),
                                   ("1", CylinderUnion.of([Cylinder(("1",))]))))
        _write(self.path("cgs.json"), cgs_to_json(cgs))
        for i in range(self.POINTS):
            pre = [rng.choice("01") for _ in range(2 + rng.randrange(2))]
            cycle = [rng.choice("01") for _ in range(2 + rng.randrange(3))]
            if len(set(cycle)) == 1:
                cycle[0] = "1" if cycle[0] == "0" else "0"
            _write(self.path(f"point{i}.json"), {"pre": pre, "cycle": cycle})
        _write(self.path("alpha.json"), _alpha(rng, ["0", "1"]))

    def _system(self, source: str) -> ref.RewriteSystem:
        if source == "n0":
            return ref.RewriteSystem.builtin_n0(["0", "1"])
        return ref.RewriteSystem.from_json(_read(self.path("cgs.json")))

    def _check_itinerary(self, source: str, point: str, depth: int):
        def check(rc, out):
            system = self._system(source)
            pt = _read(point)
            values = system.itinerary(pt["pre"], pt["cycle"], depth)
            return rc == 0 and json.loads(out) == system.itinerary_json(values, depth)
        return check

    def _check_embed_pseudo(self, source: str, point: str, depth: int):
        def check(rc, out):
            system = self._system(source)
            pt = _read(point)
            values = system.itinerary(pt["pre"], pt["cycle"], depth)
            alpha = _read(self.path("alpha.json"))
            expected = ref.embed_pseudo_tree(values, M, depth,
                                             ref.encoding_table(alpha, system.symbols), alpha["n"])
            return rc == 0 and _tree_ok(out, expected)
        return check

    # (command, system, depth); the three middle ones take about the same
    # time, so the median command of a run falls among them, not in a gap
    SLOTS = (("itinerary", "n0", 9), ("itinerary", "cgs", 8), ("itinerary", "cgs", 8),
             ("embed-pseudo", "n0", 8), ("embed-pseudo", "cgs", 8))

    def commands(self, p):
        """Pass ``p`` runs its ``j``-th command on point ``p + j`` (mod
        ``POINTS``), so a run covers several points per command."""
        path = self.path
        source = {"n0": ["--builtin-n0", "0,1"], "cgs": ["--cgs", path("cgs.json")]}
        cmds = []
        for j, (kind, src, depth) in enumerate(self.SLOTS):
            pt = path(f"point{(p + j) % self.POINTS}.json")
            args = [kind, *source[src], "--point", pt, "--depth", str(depth)]
            if kind == "itinerary":
                check = self._check_itinerary(src, pt, depth)
            else:
                args += ["--alpha", path("alpha.json")]
                check = self._check_embed_pseudo(src, pt, depth)
            cmds.append(Command(kind, args, check))
        return round_robin(cmds)


SUITES = ("ladder-orbit", "round-trip", "equivariance", "tree-shape", "metric-axioms",
          "separation", "pseudogroup", "lattice-collapse", "continuity")


class VerifySuites(Workload):
    name = "verify-suites"
    why = ("the nine verify suites on seeds drawn from the workload seed: many small inputs "
           "(depth <= 5) where per-call overhead outweighs per-vertex work")
    SEEDS = 16
    # tree-shape is the median command of a pass, and its work varies by
    # about 15 % with its seed: it runs on five seeds per pass, so that the
    # median of a run covers about ten seeds of it instead of two
    RUNS = {"tree-shape": 5}

    def build(self):
        rng = random.Random(self.seed)
        _write(self.path("suite-seeds.json"),
               {s: [rng.randrange(10**6) for _ in range(self.SEEDS * self.RUNS.get(s, 1))]
                for s in SUITES})

    def commands(self, p):
        """Pass ``p`` runs every suite on the next of its seeds (on the next
        five for tree-shape).  A suite's work varies by about 15 % from seed
        to seed (the case depths are drawn from the seed), so a run reports
        medians over several seeds per suite."""
        seeds = _read(self.path("suite-seeds.json"))

        def check(suite):
            return lambda rc, out: rc == 0 and ref.verify_line_ok(suite, out)

        cmds = []
        for s in SUITES:
            k = self.RUNS.get(s, 1)
            cmds += [Command(f"verify {s}", ["verify", "--suite", s, "--seed",
                                             str(seeds[s][(p * k + i) % len(seeds[s])])],
                             check(s)) for i in range(k)]
        return round_robin(cmds)


WORKLOADS = {w.name: w for w in (VerifySuites, FreeBall, LatticeBall, PrunedItinerary)}
