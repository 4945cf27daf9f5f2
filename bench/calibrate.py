"""Calibration task: a fixed amount of the CLI's kind of work that runs no
``treeshift`` code, to measure how fast the host is right now.

    python bench/calibrate.py

It starts an interpreter, builds the radius-8 ball of the free group on two
generators, writes it as a JSON tree, reads it back and rebases it at a
fixed vertex, all with :mod:`reference` (tuples, sets, strings, JSON).  The
work is the same in every run, whatever the workload or seed.  ``run.py``
runs it in its own process right before every timed command and divides
the command's time by its time, so that a change in host speed between or
within runs cancels while a change in ``treeshift`` does not.  Exits 1 if
the answer is wrong.
"""
from __future__ import annotations

import json
import sys

import reference as ref

RANK, RADIUS = 2, 8
AT = (1, -2)


def main() -> int:
    text = json.dumps({"rank": RANK, "radius": RADIUS,
                       "vertices": [ref.render(w) for w in ref.ball(RANK, RADIUS)]})
    tree = ref.Tree.from_json(json.loads(text))
    moved = ref.act(tree, AT)
    ok = (len(tree.vertices) == ref.ball_size(RANK, RADIUS)
          and moved.vertices == frozenset(ref.ball(RANK, RADIUS - len(AT))))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
