"""Per-layer metrics, computed from the records that ``launch.py`` writes.

A traced run alternates a spans pass and a counts pass.  The records of
one pass's well-formed commands are summed into one total (:func:`add`),
each metric below is read off that total, and the run reports the median
over its passes.  Times and calls are per pass; ``cli.import_ms`` is per
command and ``runtime.peak_alloc_mb`` is the largest of any command.
A layer that a workload never enters reads 0.
"""
from __future__ import annotations

import statistics

from workloads import SUITES


def add(total: dict, record: dict) -> None:
    """Fold one command's launcher record into a pass total."""
    for key, value in record.items():
        if key == "names":
            names = total.setdefault("names", {})
            for name, entry in value.items():
                into = names.setdefault(name, dict.fromkeys(entry, 0))
                for k, v in entry.items():
                    into[k] += v
        elif key == "groups":
            groups = total.setdefault("groups", {})
            for name, v in value.items():
                groups[name] = groups.get(name, 0) + v
        elif key == "import_ms":
            total.setdefault("import_ms", []).append(value)
        elif key == "peak_alloc_bytes":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def _entry(t, name, field):
    return t.get("names", {}).get(name, {}).get(field, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def _ms(name):
    return lambda t: _entry(t, name, "ms")


def _self_ms(name):
    return lambda t: _entry(t, name, "self_ms")


def _calls(name):
    return lambda t: _entry(t, name, "calls")


def _total(key):
    return lambda t: t.get(key, 0)


def _scaled(key, scale):
    return lambda t: t.get(key, 0) / scale


def _group(name):
    return lambda t: t.get("groups", {}).get(name, 0)


def _per_call(key, name, field="calls"):
    return lambda t: _ratio(t.get(key, 0), _entry(t, name, field))


def _ns_per(name):
    return lambda t: _ratio(_entry(t, name, "ms") * 1e6, _entry(t, name, "size"))


# name: (unit, better, source pass, value from the pass total)
PER_LAYER = {
    "freegroup.word_validations": ("count", "lower", "counts", _total("word_validations")),
    "freegroup.word_eq": ("count", "lower", "counts", _total("word_eq")),
    "freegroup.reduce.calls": ("count", "lower", "spans", _calls("freegroup.reduce")),
    "freegroup.reduce.self_ms": ("ms", "lower", "spans", _self_ms("freegroup.reduce")),
    "freegroup.parse_word.self_ms": ("ms", "lower", "spans", _self_ms("freegroup.parse_word")),
    "freegroup.sort_key.calls": ("count", "lower", "counts", _total("sort_key")),
    "freegroup.enumerate_spheres.ms": ("ms", "lower", "spans", _ms("freegroup.enumerate_spheres")),
    "groups.normalize.calls": ("count", "lower", "spans", _calls("groups.normalize")),
    "groups.normalize.self_ms": ("ms", "lower", "spans", _self_ms("groups.normalize")),
    "groups.normalize.distinct_ratio": ("ratio", "higher", "spans",
                                        _per_call("normalize_distinct", "groups.normalize")),
    "shift.eval.calls": ("count", "lower", "spans", _calls("shift.eval")),
    "shift.eval.self_ms": ("ms", "lower", "spans", _self_ms("shift.eval")),
    "shift.agree_depth.ms": ("ms", "lower", "spans", _ms("shift.agree_depth")),
    "embed.embed_config.ms": ("ms", "lower", "spans", _ms("embed.embed_config")),
    "embed.embed_config.ns_per_vertex": ("ns/vertex", "lower", "spans",
                                         _ns_per("embed.embed_config")),
    "embed.decode_tree.ms": ("ms", "lower", "spans", _ms("embed.decode_tree")),
    "embed.decode_tree.ns_per_vertex": ("ns/vertex", "lower", "spans",
                                        _ns_per("embed.decode_tree")),
    "embed.check_equivariance.ms": ("ms", "lower", "spans", _ms("embed.check_equivariance")),
    "embed.separate_witness.ms": ("ms", "lower", "spans", _ms("embed.separate_witness")),
    "embed.validate_alpha.calls": ("count", "lower", "spans", _calls("embed.validate_alpha")),
    "trees.tree_from_json.ms": ("ms", "lower", "spans", _ms("trees.tree_from_json")),
    "trees.tree_from_json.ns_per_vertex": ("ns/vertex", "lower", "spans",
                                           _ns_per("trees.tree_from_json")),
    "trees.act.ms": ("ms", "lower", "spans", _ms("trees.act")),
    "trees.act.ns_per_vertex": ("ns/vertex", "lower", "spans", _ns_per("trees.act")),
    "trees.box_distance.ms": ("ms", "lower", "spans", _ms("trees.box_distance")),
    "trees.orbit_graph.ms": ("ms", "lower", "spans", _ms("trees.orbit_graph")),
    "trees.orbit_graph.rebasings_per_node": (
        "rebasings/node", "lower", "spans",
        _per_call("orbit_rebasings", "trees.orbit_graph", "size")),
    "trees.tree_to_json.ms": ("ms", "lower", "spans", _ms("trees.tree_to_json")),
    "trees.dumps_json.ms": ("ms", "lower", "spans", _ms("trees.dumps_json")),
    "pseudogroup.itinerary.ms": ("ms", "lower", "spans", _ms("pseudogroup.itinerary")),
    "pseudogroup.itinerary.ns_per_entry": ("ns/entry", "lower", "spans",
                                           _ns_per("pseudogroup.itinerary")),
    "pseudogroup.itinerary.live_ratio": (
        "ratio", "higher", "spans",
        _per_call("itinerary_live", "pseudogroup.itinerary", "size")),
    "pseudogroup.apply.calls": ("count", "lower", "spans", _calls("pseudogroup.apply")),
    "pseudogroup.classify.calls": ("count", "lower", "spans", _calls("pseudogroup.classify")),
    "pseudogroup.embed_pseudo.ms": ("ms", "lower", "spans", _ms("pseudogroup.embed_pseudo")),
    **{f"verify.{s}.ms": ("ms", "lower", "spans", _ms(f"verify.{s}")) for s in SUITES},
    "cli.import_ms": ("ms", "lower", "spans", lambda t: statistics.median(t.get("import_ms", [0]))),
    "cli.load.ms": ("ms", "lower", "spans", _group("cli.load")),
    "cli.emit.ms": ("ms", "lower", "spans", _group("cli.emit")),
    "cli.stdout_kb": ("KB", "lower", "spans", _scaled("stdout_chars", 1024)),
    "runtime.gc_ms": ("ms", "lower", "spans", _total("gc_ms")),
    "runtime.gc_gen2": ("count", "lower", "spans", _total("gc_gen2")),
    "runtime.peak_alloc_mb": ("MB", "lower", "counts", _scaled("peak_alloc_bytes", 2**20)),
}


def metrics(span_totals: list[dict], count_totals: list[dict]) -> dict:
    """Every per-layer metric as the median over the run's passes."""
    passes = {"spans": span_totals, "counts": count_totals}
    out = {}
    for name, (unit, _, source, value) in PER_LAYER.items():
        out[name] = {"value": statistics.median(value(t) for t in passes[source]), "unit": unit}
    return out
