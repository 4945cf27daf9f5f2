"""The command line against ``bench/reference.py``, the one implementation of
the paper's constructions that imports nothing from treeshift: random
scenarios go through ``cli.main``, embedded and then decoded, and the answers
must be the reference's."""
import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from treeshift.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def reference():
    """The reference module, imported with ``bench/`` on the path only while
    it loads."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("reference")
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """A scenario file's path and that of its embedded tree."""
    root = tmp_path_factory.mktemp("reference")
    return root / "scenario.json", root / "tree.json"


def _words(draw, rank: int, radius: int) -> list[str]:
    """Up to three distinct reduced words of length <= radius, as text."""
    texts = set()
    for _ in range(draw(st.integers(0, 3))):
        letters: list[int] = []
        for _ in range(draw(st.integers(0, radius))):
            x = draw(st.sampled_from([x for g in range(1, rank + 1) for x in (g, -g)
                                      if not letters or x != -letters[-1]]))
            letters.append(x)
        texts.add(" ".join(f"g{abs(x) - 1}" + ("'" if x < 0 else "") for x in letters) or "e")
    return sorted(texts)


@st.composite
def scenarios(draw) -> tuple[dict, int]:
    """A scenario file's object and an embedding depth: a finite support on a
    free group of rank 1-2, flipped at one more word or not, or a periodic
    configuration on a lattice Z^1-Z^2 with random images, over 2-3 symbols;
    the encoding is a random injective table."""
    m = draw(st.integers(2, 3))
    symbols = draw(st.sampled_from([list(range(m)), ["a", "b", "c"][:m]]))
    rank = draw(st.integers(1, 2))
    if draw(st.booleans()):
        group = {"kind": "free", "M": rank}
        support = {w: draw(st.sampled_from(symbols)) for w in _words(draw, rank, 3)}
        default = draw(st.sampled_from(symbols))
        for w in _words(draw, rank, 3)[:draw(st.integers(0, 1))]:  # a flip at w
            support[w] = draw(st.sampled_from([s for s in symbols
                                               if s != support.get(w, default)]))
        config = {"rule": "finite", "support": support, "default": default}
    else:
        d = draw(st.integers(1, 2))
        images = [[draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(rank)]
        group = {"kind": "lattice", "d": d, "images": images}
        periods = [draw(st.integers(1, 3)) for _ in range(d)]

        def table(periods: list[int]):
            if not periods:
                return draw(st.sampled_from(symbols))
            return [table(periods[1:]) for _ in range(periods[0])]

        config = {"rule": "periodic", "periods": periods, "table": table(periods)}
    n = rank * m + draw(st.integers(0, 1))
    targets = draw(st.permutations(range(n)))
    pairs = [(g, s) for g in range(rank) for s in symbols]
    alpha = {"M": rank, "alphabet": symbols, "n": n,
             "table": {f"t{g},{s}": f"g{t}" for (g, s), t in zip(pairs, targets)}}
    obj = {"group": group, "alphabet": symbols, "config": config, "alpha": alpha}
    return obj, draw(st.integers(0, 4))


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_embed_and_decode_match_the_reference(reference, paths, case):
    obj, depth = case
    scenario_path, tree_path = paths
    scenario_path.write_text(json.dumps(obj))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["embed", "--scenario", str(scenario_path), "--depth", str(depth)]) == 0
    tree = reference.Tree.from_json(json.loads(out.getvalue()))
    expected = reference.embed_tree(reference.Scenario(obj), depth)
    assert (tree.rank, tree.radius) == (expected.rank, expected.radius)
    assert tree.vertices == expected.vertices
    if depth:  # the symbols of radius depth - 1; decoding refuses depth 0
        tree_path.write_text(out.getvalue())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["decode", "--tree", str(tree_path), "--scenario", str(scenario_path),
                         "--depth", str(depth)]) == 0
        assert json.loads(out.getvalue()) == reference.decode_json(reference.Scenario(obj), depth)
