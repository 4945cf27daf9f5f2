"""Traced launcher: runs one ``treeshift`` command in this process with
wrappers around the package's layer entry points, then writes what they
recorded to a JSON file.

    python bench/launch.py spans  OUT.json <cli arguments...>
    python bench/launch.py counts OUT.json <cli arguments...>

``spans`` wraps the public functions and methods listed in ``SPANS``.  Each
call records a span (name, start, end, parent span) in memory; when the
command ends the spans are reduced to per-name totals (calls, inclusive
time, self time = duration minus the time its child spans cover) and
written out, with the import time, garbage-collection time and the bytes
written to stdout.

``counts`` counts calls of the tiny hot ``Word`` methods and takes the
``tracemalloc`` peak.  It is a pass of its own because wrapping those
methods, or tracing allocations, would inflate every span around them.

Stdout, stderr and the exit status are those of ``python -m treeshift.cli``:
an uncaught exception still ends in a traceback and exit status 1.
"""
from __future__ import annotations

import functools
import gc
import json
import sys
import time
import tracemalloc

# (module, attribute, span name); an attribute "Class.method" wraps a method
SPANS = [
    ("freegroup", "reduce", "freegroup.reduce"),
    ("freegroup", "parse_word", "freegroup.parse_word"),
    ("freegroup", "enumerate_spheres", "freegroup.enumerate_spheres"),
    ("groups", "GroupModel.normalize", "groups.normalize"),
    ("groups", "group_from_json", "groups.group_from_json"),
    ("shift", "Config.eval", "shift.eval"),
    ("shift", "agree_depth", "shift.agree_depth"),
    ("shift", "config_from_json", "shift.config_from_json"),
    ("embed", "embed_config", "embed.embed_config"),
    ("embed", "decode_tree", "embed.decode_tree"),
    ("embed", "check_equivariance", "embed.check_equivariance"),
    ("embed", "separate_witness", "embed.separate_witness"),
    ("embed", "validate_alpha", "embed.validate_alpha"),
    ("embed", "encoding_from_json", "embed.encoding_from_json"),
    ("trees", "tree_from_json", "trees.tree_from_json"),
    ("trees", "act", "trees.act"),
    ("trees", "box_distance", "trees.box_distance"),
    ("trees", "orbit_graph", "trees.orbit_graph"),
    ("trees", "tree_to_json", "trees.tree_to_json"),
    ("trees", "tree_to_dot", "trees.tree_to_dot"),
    ("trees", "orbit_to_json", "trees.orbit_to_json"),
    ("trees", "dumps_json", "trees.dumps_json"),
    ("pseudogroup", "itinerary", "pseudogroup.itinerary"),
    ("pseudogroup", "PartialMap.apply", "pseudogroup.apply"),
    ("pseudogroup", "CylinderPseudogroup.classify", "pseudogroup.classify"),
    ("pseudogroup", "embed_pseudo", "pseudogroup.embed_pseudo"),
    ("pseudogroup", "cgs_from_json", "pseudogroup.cgs_from_json"),
    ("pseudogroup", "stream_from_json", "pseudogroup.stream_from_json"),
    ("cli", "load_json", "cli.load_json"),
    ("cli", "load_scenario", "cli.load_scenario"),
]

# spans whose outermost occurrences make up cli.load and cli.emit
GROUPS = {
    "cli.load": {"cli.load_json", "cli.load_scenario", "trees.tree_from_json",
                 "embed.encoding_from_json", "pseudogroup.cgs_from_json",
                 "pseudogroup.stream_from_json", "groups.group_from_json",
                 "shift.config_from_json"},
    "cli.emit": {"trees.tree_to_json", "trees.tree_to_dot", "trees.orbit_to_json",
                 "trees.dumps_json", "cli.write"},
}

COUNTED = ("__post_init__", "__eq__", "sort_key")


class Tracer:
    """Spans of one process, kept in memory until the command ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, size]
        self.stack: list[int] = []
        self.payloads: set = set()
        self.live = 0
        self.gc_ms = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0

    def wrap(self, name, fn, size=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size is not None:
                record[4] = size(args, result)
            return result

        return wrapper

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_ms += (time.perf_counter() - self._gc_start) * 1e3
            self.gc_gen2 += info["generation"] == 2

    def summary(self) -> dict:
        names: dict[str, dict] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, size in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, size) in enumerate(self.spans):
            entry = names.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "size": 0})
            entry["calls"] += 1
            entry["ms"] += (end - start) * 1e3
            entry["self_ms"] += (end - start - child_time[i]) * 1e3
            entry["size"] += size
        groups = {}
        for group, members in GROUPS.items():
            total = 0.0
            for name, start, end, parent, _ in self.spans:
                if name in members and not self._inside(parent, members):
                    total += (end - start) * 1e3
            groups[group] = total
        rebasings = sum(1 for name, _, _, parent, _ in self.spans
                        if name == "trees.act" and parent >= 0
                        and self.spans[parent][0] == "trees.orbit_graph")
        return {"names": names, "groups": groups, "orbit_rebasings": rebasings,
                "normalize_distinct": len(self.payloads), "itinerary_live": self.live,
                "gc_ms": self.gc_ms, "gc_gen2": self.gc_gen2}

    def _inside(self, index: int, members: set) -> bool:
        while index >= 0:
            if self.spans[index][0] in members:
                return True
            index = self.spans[index][3]
        return False


def _vertices(tree) -> int:
    return len(getattr(tree, "tree", tree).vertices)


def _install_spans(tracer: Tracer) -> None:
    import treeshift
    from treeshift import verify
    from treeshift.pseudogroup import S_EMPTY

    def normalized(args, result):
        tracer.payloads.add(result.payload)
        return 0

    def itinerary_entries(args, result):
        tracer.live += sum(1 for v in result.values.values() if v is not S_EMPTY)
        return len(result.values)

    sizes = {
        "groups.normalize": normalized,
        "embed.embed_config": lambda args, result: _vertices(result),
        "embed.decode_tree": lambda args, result: _vertices(args[0]),
        "trees.tree_from_json": lambda args, result: _vertices(result),
        "trees.act": lambda args, result: _vertices(args[0]),
        "trees.orbit_graph": lambda args, result: len(result.nodes),
        "pseudogroup.itinerary": itinerary_entries,
    }
    modules = [m for n, m in sys.modules.items()
               if n == "treeshift" or n.startswith("treeshift.")]
    for module_name, attribute, name in SPANS:
        module = getattr(treeshift, module_name)
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), sizes.get(name)))
            continue
        original = getattr(module, attribute)
        wrapped = tracer.wrap(name, original, sizes.get(name))
        for m in modules:
            if vars(m).get(attribute) is original:
                setattr(m, attribute, wrapped)
    for suite, fn in list(verify.SUITES.items()):
        verify.SUITES[suite] = tracer.wrap(f"verify.{suite}", fn)


class _Stdout:
    """sys.stdout with a traced ``write`` that counts the characters written."""

    def __init__(self, stream, tracer: Tracer):
        self._stream = stream
        self.chars = 0
        self._write = tracer.wrap("cli.write", stream.write)

    def write(self, text: str) -> int:
        self.chars += len(text)
        return self._write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def run_spans(out_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    gc.callbacks.append(tracer.on_gc)
    start = time.perf_counter()
    import treeshift.cli
    import_ms = (time.perf_counter() - start) * 1e3
    _install_spans(tracer)
    stdout = sys.stdout = _Stdout(sys.stdout, tracer)
    try:
        return treeshift.cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stdout = stdout._stream
        gc.callbacks.remove(tracer.on_gc)
        record = tracer.summary()
        record.update(import_ms=import_ms, stdout_chars=stdout.chars)
        with open(out_path, "w") as handle:
            json.dump(record, handle)


def run_counts(out_path: str, argv: list[str]) -> int:
    tracemalloc.start()
    import treeshift.cli
    from treeshift.freegroup import Word

    calls = dict.fromkeys(COUNTED, 0)

    def counted(method, fn):
        def wrapper(*args):
            calls[method] += 1
            return fn(*args)
        return wrapper

    for method in COUNTED:
        setattr(Word, method, counted(method, getattr(Word, method)))
    try:
        return treeshift.cli.main(argv)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        with open(out_path, "w") as handle:
            json.dump({"word_validations": calls["__post_init__"], "word_eq": calls["__eq__"],
                       "sort_key": calls["sort_key"], "peak_alloc_bytes": peak}, handle)


if __name__ == "__main__":
    mode, out = sys.argv[1], sys.argv[2]
    runner = {"spans": run_spans, "counts": run_counts}[mode]
    sys.exit(runner(out, sys.argv[3:]))
