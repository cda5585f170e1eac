"""Command-line entry point: ingestion -> embedding -> evaluation.

Subcommands: embed, eval, stats, synth; README.md states their flags,
defaults and @FILE and output-path rules. embed, eval, stats and synth
check their flags and output paths before they parse an edge list or an
embedding or generate a graph.
Exit codes: 0 success, 2 input/validation error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
import warnings

from . import __version__
from .evaluate import EvalProtocol, run_protocol
from .factorize import FactorizeConfig, embedding, factorize, write_run_metadata
from .graph import (ParseError, _naming, build_multiview, load_labels, read_embedding,
                    read_manifest, view_stats, write_edge_list, write_embedding)
from .multiview import MvneConfig, ViewWeights, combine_as_configured
from .testkit import SbmSpec, dataset_files, dump_dataset, generate_multiview_sbm


class _Parser(argparse.ArgumentParser):
    def convert_arg_line_to_args(self, arg_line):
        return [] if not arg_line.strip() or arg_line.startswith("#") else [arg_line]


def _parse_floats(flag, text):
    fields = text.split(",")
    if not all(x.strip() for x in fields):
        raise ParseError(f"{flag} has an empty field in {text!r}; "
                         "expected comma-separated finite numbers")
    return [float(x) for x in fields]


def build_parser():
    # allow_abbrev=False everywhere: a flag, on the command line or in an
    # @FILE, must be written out in full (`--max=2` would otherwise set --max-iters)
    parser = _Parser(
        prog="mvne",
        description="Sparse-graph node embeddings via shared-community factorization",
        allow_abbrev=False, fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version", version=f"mvne {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", allow_abbrev=False,
                       help="embed a single view or a view manifest")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--edges", help="edge-list file (single view)")
    src.add_argument("--manifest", help="view manifest file (multi-view)")
    p.add_argument("-d", "--dim", type=int, default=128, help="embedding dimension")
    p.add_argument("--max-iters", type=int, default=argparse.SUPPRESS)
    p.add_argument("--rel-tol", type=float, default=argparse.SUPPRESS)
    p.add_argument("--beta", help="comma-separated explicit view weights")
    p.add_argument("--no-normalize-views", action="store_true",
                   help="combine raw view weights instead of unit-total views")
    p.add_argument("--out", required=True, help="embedding output path")
    p.add_argument("--meta", help="run metadata JSON output path")
    p.add_argument("--export-weighted", action="store_true",
                   help="also write the mass-weighted matrix H*Lambda next to --out")
    p.add_argument("--export-combined", metavar="PATH",
                   help="write the combined view as an edge list for inspection")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="base PRNG seed")

    p = sub.add_parser("eval", allow_abbrev=False,
                       help="score an embedding on node-label prediction")
    p.add_argument("--embedding", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--fractions", default=argparse.SUPPRESS)
    p.add_argument("--repeats", type=int, default=argparse.SUPPRESS)
    p.add_argument("--reg", type=float, default=argparse.SUPPRESS)
    p.add_argument("--json", help="report JSON output path")
    p.add_argument("--tsv", help="plot-ready TSV output path")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="base PRNG seed")

    p = sub.add_parser("stats", allow_abbrev=False,
                       help="per-view node/edge statistics")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--edges")
    src.add_argument("--manifest")
    p.add_argument("--json", help="stats JSON output path")

    p = sub.add_parser("synth", allow_abbrev=False,
                       help="generate a synthetic multi-view dataset")
    p.add_argument("--nodes", type=int, default=200)
    p.add_argument("--communities", type=int, default=4)
    p.add_argument("--p-in", type=float, default=0.3)
    p.add_argument("--p-out", type=float, default=0.01)
    p.add_argument("--views", type=int, default=3)
    p.add_argument("--keep", type=float, default=argparse.SUPPRESS)
    p.add_argument("--noise", type=float, default=argparse.SUPPRESS)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=42, help="base PRNG seed")

    return parser


def _config(cls, args, **values):
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name in args}
    return cls(**given, **values)


def _views(args):
    """The (view name, edge-list path) pairs of --manifest or --edges, and the
    (flag, path) of every file embed or stats reads; parses no edge list."""
    if not args.manifest:
        return [("view0", args.edges)], [("--edges", args.edges)]
    with _naming(f"--manifest {args.manifest}: "):
        views = read_manifest(args.manifest)
    return views, [("--manifest", args.manifest)] + [
        (f"--manifest view {name!r}", path) for name, path in views]


def _check_out_paths(paths, inputs):
    named = {os.path.realpath(path): flag for flag, path in inputs}
    for flag, path in paths.items():
        if path is None:
            continue
        if os.path.isdir(path):
            raise ParseError(f"{flag}: {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ParseError(f"{flag}: directory {os.path.dirname(path)!r} does not exist")
        other = named.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise ParseError(f"{flag}: {path!r} is also named by {other}")


def _check_out_dir(path, names):
    existing = os.path.realpath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ParseError(f"--out-dir: {existing!r} is not a directory")
    if os.path.isdir(path):
        _check_out_paths({f"--out-dir {name}": os.path.join(path, name) for name in names}, [])


def _combined_input(views, config):
    """(node names, view names, weights, combined view) of embed's input.

    The graph lives in this frame alone, so its registry index and per-view
    adjacencies are freed when it returns, before the fit.
    """
    graph = build_multiview(views)
    weights, combined = combine_as_configured(graph.views, config)
    return graph.registry.names, graph.view_names, weights, combined


def cmd_embed(args) -> int:
    t0 = time.perf_counter()
    fit = _config(FactorizeConfig, args, d=args.dim)
    if args.beta is not None and args.edges:
        raise ParseError("--beta weighs the views of a --manifest; --edges reads one view")
    betas = None
    if args.beta is not None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            betas = ViewWeights(_parse_floats("--beta", args.beta))
        for warning in caught:
            print(f"mvne: warning: {warning.message}", file=sys.stderr)
    config = MvneConfig(fit, betas, normalize_views=not args.no_normalize_views)
    weighted = args.out + ".weighted" if args.export_weighted else None
    views, inputs = _views(args)
    _check_out_paths({"--out": args.out, "--meta": args.meta,
                      "--export-combined": args.export_combined, "--export-weighted": weighted},
                     inputs)
    names, view_names, weights, combined = _combined_input(views, config)
    fac = factorize(combined, fit)
    if args.export_combined:
        write_edge_list(combined, names, args.export_combined)
    write_embedding(args.out, embedding(fac), names)
    if weighted:
        write_embedding(weighted, fac.H * fac.lam[None, :], names)
    if args.meta:
        meta = fac.run.to_dict()
        meta.update(dataclasses.asdict(fit))
        meta.update({
            "views": view_names,
            "betas": [float(b) for b in weights.beta],
            "normalize_views": config.normalize_views,
            "wall_time_s": time.perf_counter() - t0,
        })
        write_run_metadata(args.meta, meta)
    print(f"embedded {len(names)} nodes from {len(view_names)} view(s) into d={fit.d} "
          f"({fac.run.iterations} iterations, objective {fac.run.objective:.6g})")
    return 0


def cmd_eval(args) -> int:
    if "fractions" in args:
        args.fractions = _parse_floats("--fractions", args.fractions)
    protocol = _config(EvalProtocol, args)
    _check_out_paths({"--json": args.json, "--tsv": args.tsv},
                     [("--embedding", args.embedding), ("--labels", args.labels)])
    with _naming(f"--embedding {args.embedding}: "):
        names, X = read_embedding(args.embedding)
    with _naming(f"--labels {args.labels}: "):
        labels = load_labels(args.labels, {name: i for i, name in enumerate(names)})
    report = run_protocol(X, labels, protocol)
    doc = report.to_dict()
    if args.json:
        write_run_metadata(args.json, doc)
    if args.tsv:
        with open(args.tsv, "w", encoding="utf-8") as fh:
            fh.write(report.to_tsv())
    print("fraction  micro-F1 (sd)      macro-F1 (sd)")
    for key, micro in doc["mean_micro"].items():
        print(f"{key:>8}  {micro:.4f} ({doc['sd_micro'][key]:.4f})"
              f"   {doc['mean_macro'][key]:.4f} ({doc['sd_macro'][key]:.4f})")
    return 0


def cmd_stats(args) -> int:
    views, inputs = _views(args)
    _check_out_paths({"--json": args.json}, inputs)
    graph = build_multiview(views)
    rows = view_stats(graph)
    if args.json:
        write_run_metadata(args.json, rows)
    header = f"{'view':<16}{'nodes':>8}{'edges':>10}{'weight':>14}{'deg min':>9}{'deg max':>9}{'deg mean':>10}"
    print(header)
    for r in rows:
        print(f"{r['view']:<16}{r['nodes']:>8}{r['edges']:>10}{r['total_weight']:>14.6g}"
              f"{r['degree']['min']:>9}{r['degree']['max']:>9}{r['degree']['mean']:>10.3f}")
    print(f"registry: {graph.n} nodes across {graph.k} view(s)")
    return 0


def cmd_synth(args) -> int:
    spec = _config(SbmSpec, args, n=args.nodes)
    _check_out_dir(args.out_dir, dataset_files(spec.view_names))
    graph, labels = generate_multiview_sbm(spec)
    manifest = dump_dataset(graph, labels, args.out_dir)
    print(f"wrote {graph.k} view(s) of {graph.n} nodes to {args.out_dir} "
          f"(manifest: {manifest})")
    return 0


COMMANDS = {"embed": cmd_embed, "eval": cmd_eval, "stats": cmd_stats, "synth": cmd_synth}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except (ParseError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"mvne: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"mvne: invalid input: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"mvne: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
