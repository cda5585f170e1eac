"""Traced replay: the benchmark's pipeline through the library's public API.

The replay makes the library calls that `mvne embed` and `mvne eval` make,
in the same order, with one span around each call into a module (graph,
multiview, factorize, evaluate), under one root span per command (cli.embed,
cli.eval). `mvne embed` reaches default_betas, combine_views and factorize
through mvne_embed; the replay calls them directly. `mvne eval` parses the
label file itself, against the embedding's row names, and never calls
graph.load_labels; the replay does the same, under a cli.read_labels span.

Probes then time calls outside the replayed commands: update_step and
kl_objective from the initial state, load_labels, the export of the combined
view where the pipeline does not export it, and the per-split steps of the
evaluation protocol. The probes time these calls on their own and assume
nothing about how factorize() or run_protocol() use them.

Spans are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

from mvne import (EvalProtocol, FactorizeConfig, LabelStore, build_multiview,
                  combine_views, default_betas, embedding, factorize,
                  init_factorization, kl_objective, load_labels, macro_f1,
                  micro_f1, predict_multilabel, read_embedding, read_manifest,
                  run_protocol, split_labeled, train_ovr, update_step,
                  write_edge_list, write_embedding)
from mvne.factorize import write_run_metadata

from run import Checks, dataset_seeds, maxrss_mb, thread_count, usable_cores
from workloads import Inputs

PROBE_MIN_SAMPLES = 3
PROBE_MAX_SAMPLES = 20
PROBE_BUDGET_S = 0.5
SPAN_COST_BATCHES = 5
SPAN_COST_BATCH = 1_000


class Tracer:
    """In-memory spans: name, start, end, parent span and trace id."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, trace):
        record = {"id": len(self.spans), "name": name, "trace": trace,
                  "parent": self._open[-1]["id"] if self._open else None}
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self):
        """Each span's duration minus the part of it its children cover."""
        children = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for start, end in sorted(children.get(s["id"], ())):
                start, end = max(start, reach), min(end, s["end"])
                if end > start:
                    covered += end - start
                    reach = end
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def first(self, name: str, trace):
        """Duration of the first span with this name in one trace."""
        for s in self.spans:
            if s["name"] == name and s["trace"] == trace:
                return s["end"] - s["start"]
        raise KeyError(f"no span {name} in trace {trace}")

    def durations(self, name: str):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def dump(self, path):
        selfs = self.self_times()
        rows = [dict(s, self=selfs[s["id"]]) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh, indent=1)


def replay_embed(tracer, j, wl, inp, embed_seed, out):
    """What `mvne embed` does, one span per call into the library."""
    with tracer.span("cli.embed", j):
        with tracer.span("graph.build_multiview", j):
            graph = build_multiview(read_manifest(inp.manifest))
        with tracer.span("multiview.combine_views", j):
            combined = combine_views(graph, default_betas(graph))
        config = FactorizeConfig(d=wl.d, seed=embed_seed, **wl.fit)
        rss_before = maxrss_mb()
        with tracer.span("factorize.factorize", j):
            fac = factorize(combined, config)
        rss_growth = maxrss_mb() - rss_before
        with tracer.span("multiview.default_betas", j):
            betas = default_betas(graph)
        if wl.export_combined:
            with tracer.span("multiview.combine_views", j):
                exported = combine_views(graph, betas)
            with tracer.span("graph.write_edge_list", j):
                write_edge_list(exported, graph.registry, str(out / "combined.edges"))
        with tracer.span("factorize.write_embedding", j):
            write_embedding(str(out / "emb.txt"), embedding(fac), graph.registry.names)
        meta = dict(fac.run.to_dict(), views=graph.view_names,
                    betas=[float(b) for b in betas.beta], d=wl.d, seed=embed_seed)
        with tracer.span("factorize.write_run_metadata", j):
            write_run_metadata(str(out / "meta.json"), meta)
    return graph, combined, config, fac, rss_growth


def read_labels_as_cli(path, names) -> LabelStore:
    """The label file parsed as `mvne eval` parses it, keyed by embedding row."""
    index = {name: i for i, name in enumerate(names)}
    labels = LabelStore()
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) == 1:
                parts = line.split(None, 1)
            name, labs = parts
            labels.add(index[name], [x.strip() for x in labs.split(",") if x.strip()])
    return labels


def replay_eval(tracer, j, wl, inp, eval_seed, out):
    """What `mvne eval` does, one span per call into the library."""
    with tracer.span("cli.eval", j):
        with tracer.span("factorize.read_embedding", j):
            names, X = read_embedding(str(out / "emb.txt"))
        with tracer.span("cli.read_labels", j):
            labels = read_labels_as_cli(inp.labels, names)
        protocol = EvalProtocol(fractions=wl.fractions, repeats=wl.repeats, seed=eval_seed)
        with tracer.span("evaluate.run_protocol", j):
            report = run_protocol(X, labels, protocol)
        with tracer.span("evaluate.to_json", j):
            text = report.to_json()
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            fh.write(text)
    return X, labels, protocol, report


def sample(tracer, name, fn):
    """Time repeated calls of fn until the probe budget is spent; returns (median, n)."""
    times = []
    while len(times) < PROBE_MIN_SAMPLES or (
            sum(times) < PROBE_BUDGET_S and len(times) < PROBE_MAX_SAMPLES):
        with tracer.span(name, "probe") as s:
            fn()
        times.append(s["end"] - s["start"])
    return statistics.median(times), len(times)


def span_cost() -> float:
    """Wall time of one empty span on a tracer of its own: median of batch means."""
    means = []
    for _ in range(SPAN_COST_BATCHES):
        tracer = Tracer()
        start = time.perf_counter()
        for _ in range(SPAN_COST_BATCH):
            with tracer.span("empty", None):
                pass
        means.append((time.perf_counter() - start) / SPAN_COST_BATCH)
    return statistics.median(means)


def probe_factorize(tracer, combined, config):
    """update_step and kl_objective, each called repeatedly on the init state."""
    state = init_factorization(combined.n, config, combined.total_weight)
    step_s, step_n = sample(tracer, "factorize.update_step",
                            lambda: update_step(combined, state, config))
    obj_s, obj_n = sample(tracer, "factorize.kl_objective",
                          lambda: kl_objective(combined, state, config.epsilon))
    return {"factorize.update_step_s": step_s, "factorize.kl_objective_s": obj_s}, \
        {"factorize.update_step": step_n, "factorize.kl_objective": obj_n}


def probe_evaluate(tracer, X, labels, protocol):
    """The protocol's splits, each timed as train / predict / score."""
    nodes = labels.labeled_nodes()
    train_s, predict_s, f1_s, binary_fits = [], [], [], 0
    for fraction in protocol.fractions:
        for rep in range(protocol.repeats):
            train, test = split_labeled(nodes, fraction, protocol.seed + rep)
            binary_fits += len(set().union(*(labels.labels_of(v) for v in train)))
            with tracer.span("evaluate.train_ovr", "probe") as s:
                model = train_ovr(X, labels, train, protocol.reg)
            train_s.append(s["end"] - s["start"])
            truth = {v: set(labels.labels_of(v)) for v in test}
            with tracer.span("evaluate.predict_multilabel", "probe") as s:
                predicted = {v: set(predict_multilabel(model, X[v], len(truth[v])))
                             for v in test}
            predict_s.append(s["end"] - s["start"])
            with tracer.span("evaluate.f1", "probe") as s:
                micro_f1(truth, predicted)
                macro_f1(truth, predicted)
            f1_s.append(s["end"] - s["start"])
    return {"evaluate.train_ovr_s": statistics.median(train_s),
            "evaluate.predict_s": statistics.median(predict_s),
            "evaluate.f1_s": statistics.median(f1_s),
            "evaluate.splits": len(train_s),
            "evaluate.binary_fits": binary_fits}


def run_traced(wl, seed: int, work, trace_path) -> dict:
    with open(work / "inputs.json", encoding="utf-8") as fh:
        inputs = [(Inputs(**{k: v for k, v in row.items() if k != "nodes"}), row["nodes"])
                  for row in json.load(fh)]
    tracer, checks = Tracer(), Checks()
    datasets, per_ds, rss_growth, first = [], [], [], None
    for j, (inp, nodes) in enumerate(inputs):
        _, embed_seed, eval_seed = dataset_seeds(seed, j)
        out = work / "traced" / f"d{j}"
        out.mkdir(parents=True)
        graph, combined, config, fac, growth = replay_embed(
            tracer, j, wl, inp, embed_seed, out)
        rss_growth.append(growth)
        X, labels, protocol, report = replay_eval(tracer, j, wl, inp, eval_seed, out)
        checks.record(f"dataset {j}: graph size as generated",
                      graph.n == nodes and combined.nnz == inp.stored_entries,
                      f"{graph.n} nodes, {combined.nnz} entries; expected "
                      f"{nodes}, {inp.stored_entries}")
        doc = report.to_dict()
        datasets.append({"objective": fac.run.objective,
                         "scores": {"micro_f1": doc["micro_f1"], "macro_f1": doc["macro_f1"]}})
        fit_s = tracer.first("factorize.factorize", j)
        iterations = fac.run.iterations
        per_ds.append({
            "graph.build_multiview_s": tracer.first("graph.build_multiview", j),
            "graph.lines_per_s": inp.edge_lines / tracer.first("graph.build_multiview", j),
            "multiview.combine_views_s": tracer.first("multiview.combine_views", j),
            "factorize.fit_s": fit_s,
            "factorize.iterations": iterations,
            "factorize.s_per_iter": fit_s / iterations,
            "factorize.entries_per_s": combined.nnz * iterations / fit_s,
            "factorize.write_embedding_s": tracer.first("factorize.write_embedding", j),
            "factorize.read_embedding_s": tracer.first("factorize.read_embedding", j),
            "evaluate.run_protocol_s": tracer.first("evaluate.run_protocol", j),
        })
        if wl.export_combined:
            per_ds[-1]["graph.write_edge_list_s"] = tracer.first("graph.write_edge_list", j)
        if first is None:
            first = (inp, graph, combined, config, X, labels, protocol)
    replay_wall_s = sum(tracer.durations("cli.embed")) + sum(tracer.durations("cli.eval"))
    replay_spans = len(tracer.spans)

    metrics = {name: statistics.median(ds[name] for ds in per_ds) for name in per_ds[0]}
    metrics["factorize.rss_growth_mb"] = max(rss_growth)
    inp, graph, combined, config, X, labels, protocol = first
    with tracer.span("probe", "probe"):
        found, samples = probe_factorize(tracer, combined, config)
        metrics.update(found)
        metrics["graph.load_labels_s"], samples["graph.load_labels"] = sample(
            tracer, "graph.load_labels", lambda: load_labels(inp.labels, graph.registry))
        if not wl.export_combined:  # the pipeline writes no edge list here
            with tracer.span("graph.write_edge_list", "probe") as s:
                write_edge_list(combined, graph.registry, str(work / "probe.edges"))
            metrics["graph.write_edge_list_s"] = s["end"] - s["start"]
        metrics.update(probe_evaluate(tracer, X, labels, protocol))
    # What the replay's own spans cost; trace.overhead_s also carries run-to-run noise.
    metrics["trace.span_cost_s"] = replay_spans * span_cost()
    threads = thread_count()
    checks.record("threads <= usable cores", threads <= usable_cores(), f"{threads} threads")
    tracer.dump(trace_path)
    return {"metrics": metrics, "checks": checks.to_dict(), "datasets": datasets,
            "replay_wall_s": replay_wall_s, "replay_spans": replay_spans,
            "probe_samples": samples,
            "trace_file": str(trace_path)}
