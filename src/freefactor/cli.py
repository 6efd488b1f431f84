"""Command-line driver: one subcommand per library operation.

Every subcommand prints a human-readable summary to stdout and, with
``--out PATH``, writes a full JSON document.  Exit codes: 0 on success
(and zero violations for experiments), 1 on domain errors and unwritable
output paths, 2 on usage errors, 3 when a computed result contradicts a
theorem (a bug).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .errors import DomainError, InternalContradictionError
from .experiments import EXPERIMENT_NAMES, EXPERIMENTS, run_experiment
from .factors import FreeFactorVertex, factor_invariant
from .farey import Slope, farey_distance
from .report import SCHEMA_VERSION, json_pieces
from .trees import geometric_index
from .whitehead import Classification, classify, is_primitive, minimize_cyclic_length
from .words import Word, _format_letters, b_reduced_decomposition, format_word, parse_word


def _emit(args, text: str, payload: dict) -> None:
    print(text)
    if getattr(args, "out", None):
        if "schema_version" not in payload:  # experiment reports carry it
            payload = {"schema_version": SCHEMA_VERSION, **payload}
        with open(args.out, "w") as fh:
            fh.writelines(json_pieces(payload))


def _cmd_reduce(args) -> int:
    w = parse_word(args.word, args.n)
    _emit(args, format_word(w), {"command": "reduce", "word": format_word(w),
                                 "length": len(w), "rank": args.n})
    return 0


def _cmd_classify(args) -> int:
    w = parse_word(args.word, args.n)
    cert = minimize_cyclic_length(w)
    verdict = classify(w, cert)
    cut = None
    if cert.cut_vertex is not None:
        cut = _format_letters((cert.cut_vertex,), args.n)
    label = {
        Classification.PRIMITIVE: "Primitive",
        Classification.SIMPLE_NON_PRIMITIVE: "SimpleNonPrimitive",
        Classification.FILLING: "Filling",
    }[verdict]
    _emit(
        args,
        label,
        {
            "command": "classify",
            "verdict": label,
            "cut_vertex": cut,
            **cert.to_json_dict(),
        },
    )
    return 0


def _cmd_minimize(args) -> int:
    w = parse_word(args.word, args.n)
    cert = minimize_cyclic_length(w)
    _emit(
        args,
        f"{format_word(cert.minimized)} (length {len(cert.minimized)}, "
        f"{len(cert.chain)} moves)",
        {"command": "minimize", **cert.to_json_dict()},
    )
    return 0


def _cmd_index(args) -> int:
    b = parse_word(args.b, args.n)
    w = parse_word(args.word, args.n)
    dec = b_reduced_decomposition(w, b)
    payload = {
        "command": "index",
        "b": format_word(b),
        "word": format_word(w),
        "k": dec.k,
        "core": format_word(dec.core),
    }
    text = f"k = {dec.k}"
    if args.geometric:
        geo = geometric_index(w, b)
        if geo != dec.k:
            raise InternalContradictionError(
                f"geometric index {geo} != combinatorial index {dec.k}"
            )
        payload["geometric_k"] = geo
        text = f"k = {dec.k} (geometric agrees)"
    _emit(args, text, payload)
    return 0


def _cmd_factor_invariant(args) -> int:
    b = parse_word(args.b, args.n)
    gens = tuple(parse_word(g, args.n) for g in args.gen)
    vertex = FreeFactorVertex(gens, args.n)
    # <g> is a free factor iff g is primitive; a factor of two or more
    # nontrivial generators is not checked
    g = vertex._cyclic
    if g is not None and not is_primitive(Word(g, args.n)):
        raise DomainError(f"generator {_format_letters(g, args.n)} is not primitive, "
                          "so it generates no free factor")
    inv = factor_invariant(vertex, b)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(vertex.graph.to_dot() + "\n")
    witness = format_word(inv.witness)
    _emit(
        args,
        f"value = {inv.value} (witness {witness})",
        {
            "command": "factor-invariant",
            "b": format_word(b),
            "generators": [format_word(g) for g in gens],
            "value": inv.value,
            "witness": witness,
        },
    )
    return 0


def _cmd_farey_dist(args) -> int:
    s = Slope.from_string(args.s)
    t = Slope.from_string(args.t)
    d = farey_distance(s, t)
    _emit(
        args,
        str(d),
        {"command": "farey-dist", "s": str(s), "t": str(t), "distance": d},
    )
    return 0


# experiment parameter -> (flag, argparse options).  One flat flag set
# serves every experiment; an experiment ignores the flags it does not take.
# Every flag defaults to None, which leaves the experiment's own default.
_EXPERIMENT_FLAGS = {
    "rank": ("--n", {"type": int, "metavar": "N",
                     "help": "ambient rank (boundary-length: ranks 2..N)"}),
    "b": ("--b", {"help": "base word (default per rank)"}),
    "trials": ("--trials", {"type": int}),
    "seed": ("--seed", {"type": int}),
    "radius": ("--radius", {"type": int, "help": "grid radius"}),
    "a": ("--word", {"metavar": "WORD", "help": "probe word (zero-fiber)"}),
    "k_lo": ("--k-lo", {"type": int}),
    "k_hi": ("--k-hi", {"type": int}),
}


def _cmd_experiment(args) -> int:
    _, parameters = EXPERIMENTS[args.name]
    kwargs = {
        key: getattr(args, key)
        for key in ("rank", *parameters)
        if getattr(args, key) is not None
    }
    rank = kwargs.get("rank", parameters.get("rank"))
    for key in ("b", "a"):
        if key in kwargs:
            kwargs[key] = parse_word(kwargs[key], rank)
    report = run_experiment(args.name, **kwargs)
    lines = [
        f"{report.name}: {len(report.trials)} records, {report.violations} violations",
        *(
            f"  {key}: {value}"
            for key, value in sorted(report.summary.items())
            if not isinstance(value, (list, dict))
        ),
    ]
    _emit(args, "\n".join(lines), report.json_payload())
    if args.csv:
        report.write_csv(args.csv)
    return 0 if report.violations == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="freefactor",
        description=(
            "Exact computation with free-group words, Whitehead graphs, "
            "core graphs and Farey-graph geometry."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_b=False):
        p.add_argument("--n", type=int, default=2, help="ambient rank (default 2)")
        p.add_argument("--out", help="write a JSON report to this path")
        if needs_b:
            p.add_argument("--b", required=True, help="base word b")

    p = sub.add_parser("reduce", help="freely reduce a word")
    p.add_argument("word")
    add_common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("classify", help="primitive / simple / filling verdict")
    p.add_argument("word")
    add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("minimize", help="minimal cyclic length certificate")
    p.add_argument("word")
    add_common(p)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("index", help="balanced-b exponent of a word")
    p.add_argument("word")
    add_common(p, needs_b=True)
    p.add_argument(
        "--geometric",
        action="store_true",
        help="also compute the axis-projection index and assert equality",
    )
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser(
        "factor-invariant",
        help="invariant of a free factor",
        description="Invariant of the free factor the --gen words generate. One "
        "nontrivial generator must be primitive; two or more are not checked "
        "to generate a free factor.",
    )
    add_common(p, needs_b=True)
    p.add_argument(
        "--gen", action="append", required=True, help="factor generator (repeatable)"
    )
    p.add_argument("--dot", help="write the folded core graph as DOT text")
    p.set_defaults(func=_cmd_factor_invariant)

    p = sub.add_parser("farey-dist", help="exact Farey graph distance")
    # read -3/5 as a slope, not as an option: argparse's default pattern for
    # a negative number may not take a fraction
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
    p.add_argument("s", help="slope p/q")
    p.add_argument("t", help="slope p/q")
    p.add_argument("--out", help="write a JSON report to this path")
    p.set_defaults(func=_cmd_farey_dist)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("name", choices=EXPERIMENT_NAMES)
    for key, (flag, options) in _EXPERIMENT_FLAGS.items():
        p.add_argument(flag, dest=key, **options)
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--csv", help="write the per-trial trace to this path")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalContradictionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the CLI reads no file: only its writes can fail
        where = exc.filename or "output"  # a failed write() names no file
        print(f"error: cannot write {where}: {exc.strerror}", file=sys.stderr)
        return 1
    except MemoryError:
        # what the failed command held is freed by the time this runs
        print(
            "error: out of memory: the input needs more memory than is available",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
