"""Command line front end.

Subcommands: embed, decode, metric, act, orbit, equivariance, separate,
itinerary, embed-pseudo, builtin, verify.  Output is deterministic for a
fixed scenario and seed.  Exit codes: 0 success, 1 validation or usage
failure, 2 insufficient depth.

Each command imports the modules it runs inside its own function, so that
``act`` or ``metric`` does not pay for loading the pseudogroup or the
verification suites.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Iterable, NoReturn

from .errors import InsufficientDepthError, TreeshiftError, alphabet, json_field, json_kind

if TYPE_CHECKING:
    from .embed import EdgeEncoding
    from .errors import Alphabet
    from .shift import Config
    from .trees import BoxDistance


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with status 1, keeping
    status 2 reserved for insufficient-depth errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


class Scenario:
    def __init__(self, group, alphabet: Alphabet, config: Config,
                 encoding: EdgeEncoding) -> None:
        self.group = group
        self.alphabet = alphabet
        self.config = config
        self.encoding = encoding

    def free_config(self) -> Config:
        from .groups import induced_config

        if self.group.kind == "free":
            return self.config
        return induced_config(self.group, self.config)


def load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise TreeshiftError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except OSError as exc:
        raise TreeshiftError(f"cannot read {path}: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    from .embed import encoding_from_json
    from .groups import group_from_json
    from .shift import config_from_json

    obj = load_json(path)
    group = group_from_json(json_field(obj, "group", "scenario"))
    alph = alphabet(json_kind(json_field(obj, "alphabet", "scenario"), list, "scenario.alphabet"))
    config = config_from_json(group, alph, json_field(obj, "config", "scenario"))
    encoding = encoding_from_json(json_field(obj, "alpha", "scenario"), alphabet=alph)
    if encoding.source_rank != group.generator_count:
        raise TreeshiftError(
            f"alpha covers {encoding.source_rank} generators but the group has "
            f"{group.generator_count}")
    return Scenario(group, alph, config, encoding)


def _write(pieces: Iterable[str]) -> None:
    """Write the pieces one by one with ``sys.stdout.write``, so a streamed
    text is never held whole."""
    for piece in pieces:
        sys.stdout.write(piece)


def _write_tree(tree, fmt: str) -> None:
    from .trees import tree_json, tree_to_dot

    _write([tree_to_dot(tree)] if fmt == "dot" else tree_json(tree))


def cmd_embed(args) -> int:
    from .embed import embed_config

    scenario = load_scenario(args.scenario)
    result = embed_config(scenario.config, scenario.encoding, args.depth)
    _write_tree(result.tree, args.format)
    return 0


def cmd_decode(args) -> int:
    from .embed import decode_tree, encoding_from_json
    from .freegroup import ball_json, letter_str
    from .trees import tree_from_json

    tree = tree_from_json(load_json(args.tree))
    if args.alpha is not None:
        encoding = encoding_from_json(load_json(args.alpha))
    else:
        encoding = load_scenario(args.scenario).encoding
    decoded = decode_tree(tree, encoding, args.depth)
    _write(ball_json(decoded.source_rank, decoded.depth, decoded.values,
                     lambda x: letter_str(x, prefix="t")))
    return 0


def _distance_json(d: BoxDistance) -> dict:
    return {"kind": "exact" if d.exact else "at-least", "r": d.r, "value": d.value}


def _two_trees(args):
    from .trees import tree_from_json

    if len(args.tree) != 2:
        raise TreeshiftError(f"{args.command} needs exactly two --tree arguments")
    return tree_from_json(load_json(args.tree[0])), tree_from_json(load_json(args.tree[1]))


def cmd_metric(args) -> int:
    from .trees import box_distance, dumps_json

    d = box_distance(*_two_trees(args))
    if args.format == "json":
        sys.stdout.write(dumps_json(_distance_json(d)))
    else:
        sys.stdout.write(str(d) + "\n")
    return 0


def cmd_act(args) -> int:
    from .freegroup import parse_word
    from .trees import act, tree_from_json

    tree = tree_from_json(load_json(args.tree))
    moved = act(tree, parse_word(args.word, tree.rank))
    _write_tree(moved, args.format)
    return 0


def cmd_orbit(args) -> int:
    from .trees import dumps_json, orbit_graph, orbit_to_dot, orbit_to_json, tree_from_json

    if args.tree is not None:
        if args.depth is not None:
            raise TreeshiftError("orbit takes --depth only with --scenario: a tree has its radius")
        tree = tree_from_json(load_json(args.tree))
    else:
        from .embed import embed_config

        scenario = load_scenario(args.scenario)
        depth = 6 if args.depth is None else args.depth
        tree = embed_config(scenario.config, scenario.encoding, depth).tree
    og = orbit_graph(tree, step_bound=args.step_bound, working_radius=args.working_radius)
    if args.format == "dot":
        sys.stdout.write(orbit_to_dot(og))
    else:
        sys.stdout.write(dumps_json(orbit_to_json(og)))
    return 0


def _load_cgs(args):
    from .pseudogroup import builtin_n0_shift, cgs_from_json

    if args.builtin_n0 is not None:
        return builtin_n0_shift(alphabet(args.builtin_n0.split(",")))
    return cgs_from_json(load_json(args.cgs))


def cmd_itinerary(args) -> int:
    from .freegroup import ball_json
    from .pseudogroup import itinerary, stream_from_json

    cgs = _load_cgs(args)
    point = stream_from_json(load_json(args.point), cgs.base_alphabet)
    itin = itinerary(cgs, point, args.depth)
    names = [pm.name for pm in cgs.positive]

    def token(x: int) -> str:
        return names[abs(x) - 1] + ("" if x > 0 else "'")

    # a dead word's key is missing from itin.values, and it prints as null
    _write(ball_json(itin.source_rank, itin.depth, itin.values, token))
    return 0


def cmd_embed_pseudo(args) -> int:
    from .embed import encoding_from_json
    from .pseudogroup import embed_pseudo, itinerary, stream_from_json

    cgs = _load_cgs(args)
    point = stream_from_json(load_json(args.point), cgs.base_alphabet)
    encoding = encoding_from_json(load_json(args.alpha))
    itin = itinerary(cgs, point, args.depth)
    result = embed_pseudo(itin, encoding, args.depth)
    _write_tree(result.tree, args.format)
    return 0


def _equivariance_report_json(report) -> dict:
    from .freegroup import letter_str

    blob = {
        "generator": letter_str(report.generator, prefix="t"),
        "depth": report.depth,
        "clause": report.clause,
        "witness": str(report.witness),
        "ball_equal": report.ball_equal,
    }
    if report.alternate_witness is not None:
        blob["alternate_witness"] = str(report.alternate_witness)
        blob["alternate_defined"] = report.alternate_defined
        blob["alternate_equal"] = report.alternate_equal
    return blob


def cmd_equivariance(args) -> int:
    from .embed import check_equivariance
    from .freegroup import parse_letter, signed_letters
    from .trees import dumps_json

    scenario = load_scenario(args.scenario)
    if args.generator:
        letters = [parse_letter(args.generator, scenario.encoding.source_rank, prefix="t")]
    else:
        letters = signed_letters(scenario.encoding.source_rank)
    reports = check_equivariance(scenario.config, scenario.encoding, letters, args.depth)
    all_equal = all(r.ball_equal for r in reports)
    sys.stdout.write(dumps_json({
        "depth": args.depth,
        "all_equal": all_equal,
        "reports": [_equivariance_report_json(r) for r in reports],
    }))
    return 0 if all_equal else 1


def cmd_separate(args) -> int:
    from .embed import separate_witness
    from .trees import BoxDistance, dumps_json

    witness = separate_witness(*_two_trees(args))
    if witness is None:
        sys.stdout.write(dumps_json({"witness": None,
                                     "note": "trees ball-equal to their common depth"}))
        return 0
    # separate_witness has checked that the rebased trees are at exact distance 1
    sys.stdout.write(dumps_json({
        "witness": str(witness),
        "length": len(witness),
        "rebased": _distance_json(BoxDistance(0, exact=True)),
    }))
    return 0


def cmd_builtin(args) -> int:
    from .pseudogroup import builtin_n0_shift, cgs_to_json
    from .trees import dumps_json

    cgs = builtin_n0_shift(alphabet(args.alphabet.split(",")))
    sys.stdout.write(dumps_json(cgs_to_json(cgs)))
    return 0


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suites

    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    for result in results:
        sys.stdout.write(result.line() + "\n")
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="treeshift",
                     description="Finite-depth tree models of shift dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    embed = sub.add_parser("embed", help="embed a scenario's configuration as a tree")
    embed.add_argument("--scenario", required=True)
    embed.add_argument("--depth", type=int, required=True)
    embed.add_argument("--format", choices=("json", "dot"), default="json")
    embed.set_defaults(fn=cmd_embed)

    decode = sub.add_parser("decode", help="recover symbols from an image tree")
    decode.add_argument("--tree", required=True)
    source = decode.add_mutually_exclusive_group(required=True)
    source.add_argument("--alpha")
    source.add_argument("--scenario")
    decode.add_argument("--depth", type=int, required=True)
    decode.set_defaults(fn=cmd_decode)

    metric = sub.add_parser("metric", help="box distance between two trees")
    metric.add_argument("--tree", action="append", default=[])
    metric.add_argument("--format", choices=("text", "json"), default="text")
    metric.set_defaults(fn=cmd_metric)

    act_cmd = sub.add_parser("act", help="rebase a tree at one of its vertices")
    act_cmd.add_argument("--tree", required=True)
    act_cmd.add_argument("--word", required=True)
    act_cmd.add_argument("--format", choices=("json", "dot"), default="json")
    act_cmd.set_defaults(fn=cmd_act)

    orbit = sub.add_parser("orbit", help="bounded orbit graph of a tree")
    source = orbit.add_mutually_exclusive_group(required=True)
    source.add_argument("--tree")
    source.add_argument("--scenario")
    orbit.add_argument("--depth", type=int, help="embedding depth of --scenario (default: 6)")
    orbit.add_argument("--working-radius", type=int, required=True)
    orbit.add_argument("--step-bound", type=int, required=True)
    orbit.add_argument("--format", choices=("json", "dot"), default="json")
    orbit.set_defaults(fn=cmd_orbit)

    itin = sub.add_parser("itinerary", help="symbolic itinerary of a stream")
    system = itin.add_mutually_exclusive_group(required=True)
    system.add_argument("--cgs")
    system.add_argument("--builtin-n0", metavar="SYMBOLS")
    itin.add_argument("--point", required=True)
    itin.add_argument("--depth", type=int, required=True)
    itin.set_defaults(fn=cmd_itinerary)

    pseudo = sub.add_parser("embed-pseudo", help="embed an itinerary as a tree")
    system = pseudo.add_mutually_exclusive_group(required=True)
    system.add_argument("--cgs")
    system.add_argument("--builtin-n0", metavar="SYMBOLS")
    pseudo.add_argument("--point", required=True)
    pseudo.add_argument("--alpha", required=True)
    pseudo.add_argument("--depth", type=int, required=True)
    pseudo.add_argument("--format", choices=("json", "dot"), default="json")
    pseudo.set_defaults(fn=cmd_embed_pseudo)

    equi = sub.add_parser("equivariance", help="check shift-versus-rebase agreement")
    equi.add_argument("--scenario", required=True)
    equi.add_argument("--depth", type=int, required=True)
    equi.add_argument("--generator", help="one source generator like t0 or t0' (default: all)")
    equi.set_defaults(fn=cmd_equivariance)

    separate = sub.add_parser("separate", help="find a rebasing word reaching distance 1")
    separate.add_argument("--tree", action="append", default=[])
    separate.set_defaults(fn=cmd_separate)

    builtin = sub.add_parser("builtin", help="emit a built-in generating system")
    builtin.add_argument("which", choices=("n0",))
    builtin.add_argument("--alphabet", default="0,1")
    builtin.set_defaults(fn=cmd_builtin)

    verify = sub.add_parser("verify", help="run the property suites")
    verify.add_argument("--suite", default="all")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except InsufficientDepthError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except TreeshiftError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run() -> NoReturn:
    """The process entry point of ``python -m treeshift.cli`` and of the
    ``treeshift`` script: run :func:`main`, flush both streams and end the
    process with ``os._exit``.  That skips the interpreter's teardown, which
    frees every module and object and changes no output, so nothing in the
    package may rely on ``atexit`` or on finalizers.  A missing stdout, or a
    write or flush that fails on it (a reader that closed its pipe), ends in
    an ``error:`` line and status 1: ``main`` does no other I/O that can
    raise ``OSError``, as ``load_json`` turns its own into TreeshiftError."""
    if sys.stdout is None:
        sys.stderr.write("error: cannot write to standard output: it is closed\n")
        status = 1
    else:
        try:
            status = main()
            sys.stdout.flush()
        except OSError as exc:
            sys.stderr.write(f"error: cannot write to standard output: {exc}\n")
            status = 1
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
