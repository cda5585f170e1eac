"""Benchmark of the mvne pipeline: generated inputs -> `mvne embed` -> `mvne eval`.

Run from the repository root:

    python3 perfbench/run.py --workload sbm_converge --seed 1 --seconds 10 --trace 0

Each run executes one workload in fresh child processes with the BLAS thread
pools capped at the number of usable cores. ``--trace 0`` runs the CLI
in-process in a closed loop (one client, each call waits for the previous
one) for at least ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` does the same, then replays the pipeline in a second child
through the library's public functions with a span around every call and
prints the per-layer metrics. Every output is checked; a failed check counts
against the operations attempted. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, with provenance, goes to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
DEADLINE_S = 170.0  # the whole run, both children included

END_TO_END = {
    "setup_s": "s",
    "embed_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "micro_f1": "1",
    "macro_f1": "1",
    "objective": "nats",
}

PER_LAYER = {
    "graph.build_multiview_s": "s",
    "graph.lines_per_s": "lines/s",
    "graph.write_edge_list_s": "s",
    "graph.load_labels_s": "s",
    "multiview.combine_views_s": "s",
    "factorize.fit_s": "s",
    "factorize.iterations": "count",
    "factorize.s_per_iter": "s",
    "factorize.entries_per_s": "entries/s",
    "factorize.update_step_s": "s",
    "factorize.kl_objective_s": "s",
    "factorize.rss_growth_mb": "MB",
    "factorize.write_embedding_s": "s",
    "factorize.read_embedding_s": "s",
    "evaluate.run_protocol_s": "s",
    "evaluate.train_ovr_s": "s",
    "evaluate.predict_s": "s",
    "evaluate.f1_s": "s",
    "evaluate.splits": "count",
    "evaluate.binary_fits": "count",
    "trace.overhead_s": "s",
    "trace.span_cost_s": "s",
}

WORKLOAD_NAMES = ("sbm_converge", "large_fit", "ingest_io")  # defined in workloads.py

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# glibc raises its mmap threshold when a large block is freed, so in a
# long-lived process a call's speed depends on what earlier calls freed: up to
# 2x on sbm_converge's embed. Setting the threshold to glibc's default turns
# that adjustment off, so every call meets the allocator that a fresh `mvne`
# process starts with.
ALLOCATOR_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------------------
# shared by both children


class Checks:
    """Output checks, counted as operations next to the CLI calls."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}".rstrip(": "))

    def run(self, name: str, fn, *args):
        """Run one check function; any exception it raises is a failure."""
        try:
            value = fn(*args)
        except Exception as exc:  # a check that cannot complete has failed
            self.record(name, False, f"{type(exc).__name__}: {exc}")
            return None
        self.record(name, True)
        return value

    def to_dict(self):
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures}


def derive_seed(seed: int, *key: int) -> int:
    """Independent 31-bit seed for one dataset or one CLI call of a run."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0] >> 1)


def dataset_seeds(seed: int, j: int):
    """(generator seed, embed --seed, eval --seed) for dataset j."""
    return derive_seed(seed, j, 0), derive_seed(seed, j, 1), derive_seed(seed, j, 2)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def thread_count() -> int:
    """OS threads of this process (BLAS pools included)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import threading

    return threading.active_count()


def versions() -> dict:
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def import_mvne():
    """Import the package from this checkout's src/, and nowhere else."""
    import mvne

    where = Path(mvne.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise ImportError(f"mvne imported from {where}, not from {ROOT / 'src'}")
    return mvne


# --------------------------------------------------------------------------
# untraced child: the CLI in a closed loop


def cli(args) -> tuple:
    """Call `mvne <args>` in-process; returns (exit code, seconds, stderr)."""
    from mvne.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main([str(a) for a in args])
        except SystemExit as exc:  # argparse rejects a flag
            rc = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    return rc, elapsed, err.getvalue().strip()


def read_embedding_file(path):
    """Independent reader for the embedding format: (names, rows as floats)."""
    with open(path, encoding="utf-8") as fh:
        n, d = (int(x) for x in fh.readline().split())
        names, rows = [], []
        for line in fh:
            parts = line.split()
            if len(parts) != d + 1:
                raise ValueError(f"row {len(names) + 1} has {len(parts)} fields, "
                                 f"expected {d + 1}")
            names.append(parts[0])
            rows.append(parts[1:])
    if len(names) != n:
        raise ValueError(f"header says {n} rows, file has {len(names)}")
    return names, np.array(rows, dtype=np.float64).reshape(n, d)


def check_embedding(path, node_ids):
    """One row per registry node; each row nonnegative and summing to 1."""
    names, X = read_embedding_file(path)
    if len(names) != len(node_ids) or set(names) != set(node_ids):
        raise ValueError(f"{len(names)} rows for {len(node_ids)} nodes, or ids differ")
    if not np.isfinite(X).all() or (X < 0).any():
        raise ValueError("non-finite or negative membership")
    worst = float(np.abs(X.sum(axis=1) - 1.0).max())
    if worst > 1e-9:
        raise ValueError(f"a row sums to 1 {worst:+.3g}")


def check_meta(path) -> float:
    """The --meta objective trace never rises; returns the final objective."""
    with open(path, encoding="utf-8") as fh:
        meta = json.load(fh)
    trace = meta["objective_trace"]
    for it, (prev, cur) in enumerate(zip(trace, trace[1:]), start=1):
        if cur > prev + 1e-9 * max(1.0, abs(prev)):
            raise ValueError(f"objective rose at iteration {it}: {prev!r} -> {cur!r}")
    return float(meta["objective"])


def check_export(path, upper_entries):
    """The exported combined view reloads with unit total weight, all entries kept.

    Each view is scaled to unit weight and the view weights sum to one, so
    the combined view the program factorizes has total weight 1.
    """
    from mvne import load_edge_list

    adj, _ = load_edge_list(path)
    with open(path, encoding="utf-8") as fh:
        lines = sum(1 for line in fh if line.strip())
    if lines != upper_entries:
        raise ValueError(f"{lines} lines exported, expected {upper_entries}")
    if abs(adj.total_weight - 1.0) > 1e-9:
        raise ValueError(f"reloaded total weight {adj.total_weight!r}, expected 1")


def check_report(path, fractions, repeats) -> dict:
    """Every F1 of the eval JSON lies in [0, 1]; returns the per-repeat scores."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    scores = {"micro_f1": report["micro_f1"], "macro_f1": report["macro_f1"]}
    for kind, by_fraction in scores.items():
        if sorted(by_fraction) != sorted(f"{f:g}" for f in fractions):
            raise ValueError(f"{kind}: fractions {sorted(by_fraction)}")
        for f, values in by_fraction.items():
            if len(values) != repeats or not all(0.0 <= v <= 1.0 for v in values):
                raise ValueError(f"{kind} at {f}: {values}")
    return scores


def mean_over_fractions(by_fraction: dict) -> float:
    return statistics.fmean(statistics.fmean(v) for v in by_fraction.values())


def check_recovery(scores: dict, communities: int):
    """Planted communities are recovered well above chance (twice chance)."""
    micro = mean_over_fractions(scores["micro_f1"])
    if micro < 2.0 / communities:
        raise ValueError(f"mean micro-F1 {micro:.4f} with {communities} communities")


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(path).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def output_digest(out: Path):
    """Digest of one pipeline's outputs minus the wall time in --meta; None if unreadable."""
    h = hashlib.sha256()
    try:
        for name in ("emb.txt", "combined.edges", "report.json"):
            if (out / name).is_file():
                h.update((out / name).read_bytes())
        with open(out / "meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError):
        return None
    meta.pop("wall_time_s", None)
    h.update(json.dumps(meta, sort_keys=True).encode())
    return h.hexdigest()


def embed_args(wl, inp, embed_seed, out: Path):
    args = ["embed", "--manifest", inp.manifest, "-d", wl.d, "--seed", embed_seed,
            "--out", out / "emb.txt", "--meta", out / "meta.json"]
    for key, value in wl.fit.items():
        args += ["--" + key.replace("_", "-"), value]
    if wl.export_combined:
        args += ["--export-combined", out / "combined.edges"]
    return args


def eval_args(wl, inp, eval_seed, out: Path):
    return ["eval", "--embedding", out / "emb.txt", "--labels", inp.labels,
            "--fractions", ",".join(f"{f:g}" for f in wl.fractions),
            "--repeats", wl.repeats, "--seed", eval_seed, "--json", out / "report.json"]


def setup(wl, seed: int, data: Path, checks: Checks):
    """Generate every dataset of the run several times; returns (inputs, times)."""
    times, digests = [], []
    while len(times) < 3 or (sum(times) < 1.0 and len(times) < 25):
        start = time.perf_counter()
        inputs = [wl.write(dataset_seeds(seed, j)[0], str(data / f"d{j}"))
                  for j in range(wl.datasets)]
        times.append(time.perf_counter() - start)
        digests.append(tree_digest(data))
    checks.record("setup writes identical bytes for one seed", len(set(digests)) == 1)
    return inputs, times


def run_untraced(wl, seed: int, seconds: float, work: Path) -> dict:
    checks = Checks()
    inputs, setup_times = setup(wl, seed, work / "data", checks)

    reps = []
    deadline = time.perf_counter() + seconds
    # Every dataset once, then at least one re-run, then re-runs until the deadline.
    while len(reps) <= wl.datasets or time.perf_counter() < deadline:
        j = len(reps) % wl.datasets
        _, embed_seed, eval_seed = dataset_seeds(seed, j)
        first_pass = len(reps) < wl.datasets
        out = work / "out" / (f"d{j}" if first_pass else "rerun")
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        calls = [("embed", cli(embed_args(wl, inputs[j], embed_seed, out)))]
        calls += [("eval", cli(eval_args(wl, inputs[j], eval_seed, out)))
                  for _ in range(wl.eval_calls)]
        rep = {"dataset": j, "calls": calls}
        for step in ("embed", "eval"):
            rep[step + "_s"] = [t for name, (_, t, _) in calls if name == step]
        if not first_pass:  # later passes must rewrite the first pass's bytes
            rep["digest"] = output_digest(out)
        reps.append(rep)
    peak_rss_mb = maxrss_mb()  # before the checks below read any output
    threads = thread_count()
    checks.record("threads <= usable cores", threads <= usable_cores(),
                  f"{threads} threads")

    datasets = []
    for j, inp in enumerate(inputs):
        out = work / "out" / f"d{j}"
        checks.run("embedding covers the registry, rows sum to 1",
                   check_embedding, out / "emb.txt", inp.node_ids)
        objective = checks.run("objective trace non-increasing", check_meta,
                               out / "meta.json")
        if wl.export_combined:
            checks.run("exported combined view reloads", check_export,
                       out / "combined.edges", inp.upper_entries)
        scores = checks.run("every F1 in [0, 1]", check_report, out / "report.json",
                            wl.fractions, wl.repeats)
        if wl.name == "sbm_converge" and scores is not None:
            checks.run("planted labels recovered", check_recovery, scores,
                       inp.communities)
        datasets.append({"objective": objective, "scores": scores,
                         "embed_s": reps[j]["embed_s"][0], "eval_s": reps[j]["eval_s"][0],
                         "digest": output_digest(out)})
    for rep in reps:
        for step, (rc, _, err) in rep["calls"]:
            checks.record(f"mvne {step} exits 0", rc == 0, f"exit {rc}: {err}")
        if "digest" in rep:
            first = datasets[rep["dataset"]]["digest"]
            checks.record("rerun writes identical outputs",
                          first is not None and rep["digest"] == first,
                          f"dataset {rep['dataset']}")

    metrics = {
        "setup_s": statistics.median(setup_times),
        "embed_s": statistics.median(t for r in reps for t in r["embed_s"]),
        "eval_s": statistics.median(t for r in reps for t in r["eval_s"]),
        "peak_rss_mb": peak_rss_mb,
    }
    if all(ds["scores"] is not None and ds["objective"] is not None for ds in datasets):
        metrics["micro_f1"] = statistics.fmean(
            mean_over_fractions(ds["scores"]["micro_f1"]) for ds in datasets)
        metrics["macro_f1"] = statistics.fmean(
            mean_over_fractions(ds["scores"]["macro_f1"]) for ds in datasets)
        metrics["objective"] = statistics.fmean(ds["objective"] for ds in datasets)
    sizes = [{"nodes": inp.nodes, "edge_lines": inp.edge_lines,
              "stored_entries": inp.stored_entries, "d": wl.d} for inp in inputs]
    with open(work / "inputs.json", "w", encoding="utf-8") as fh:
        json.dump([dict(asdict(inp), node_ids=None, nodes=inp.nodes) for inp in inputs], fh)
    return {
        "metrics": metrics, "checks": checks.to_dict(), "datasets": datasets,
        "samples": {"setup_s": setup_times,
                    "reps": [{k: r[k] for k in ("dataset", "embed_s", "eval_s")}
                             for r in reps]},
        "sizes": sizes, "threads": threads, "versions": versions(),
    }


# --------------------------------------------------------------------------
# parent


class ChildFailed(RuntimeError):
    pass


def child_env(cores: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(cores)
    env.update(ALLOCATOR_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(role: str, args, work: Path, env: dict, deadline: float) -> dict:
    """Run one child to completion (or kill it at the deadline); returns its result."""
    result_path = work / f"{role}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role, "--work", str(work),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{role} child passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0 or not result_path.is_file():
        raise ChildFailed(f"{role} child exited {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compare_replay(untraced: dict, traced: dict, checks: Checks):
    """The traced replay reproduces the CLI's objective and F1 scores exactly."""
    for j, (cli_ds, lib_ds) in enumerate(zip(untraced["datasets"], traced["datasets"])):
        same = (cli_ds["objective"] == lib_ds["objective"]
                and cli_ds["scores"] == lib_ds["scores"])
        checks.record(f"dataset {j}: replay equals CLI run", same,
                      f"objective {cli_ds['objective']!r} vs {lib_ds['objective']!r}")
    if len(untraced["datasets"]) != len(traced["datasets"]):
        checks.record("replay covers every dataset", False)


def parent(args) -> int:
    if not (ROOT / "src" / "mvne" / "__init__.py").is_file():
        print(f"perfbench: no mvne sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    cores = usable_cores()
    env = child_env(cores)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK_DIR / stem
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    checks = Checks()
    try:
        untraced = spawn("untraced", args, work, env, deadline)
        traced = spawn("traced", args, work, env, deadline) if args.trace else None
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    parts = [untraced["checks"]]
    if traced is None:
        metrics, units = untraced["metrics"], END_TO_END
    else:
        compare_replay(untraced, traced, checks)
        parts.append(traced["checks"])
        metrics, units = dict(traced["metrics"]), PER_LAYER
        first_pass = sum(ds["embed_s"] + ds["eval_s"] for ds in untraced["datasets"])
        metrics["trace.overhead_s"] = traced["replay_wall_s"] - first_pass
    parts.append(checks.to_dict())
    attempted = sum(p["attempted"] for p in parts)
    failures = [f for p in parts for f in p["failures"]]
    missing = sorted(set(units) - set(metrics))

    provenance = {
        "git_commit": git_commit(), "src_sha256": src_digest(), "nproc": cores,
        "cpu_model": cpu_model(), **untraced["versions"],
        "blas_thread_caps": {var: env[var] for var in THREAD_VARS},
        "allocator_env": ALLOCATOR_ENV,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": untraced["sizes"],
        "child_threads": untraced["threads"],
    }
    line = {
        "correct": not failures and not missing,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    full = {"provenance": provenance, "result": line, "failures": failures, "missing": missing,
            "untraced": untraced, "traced": traced}
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)

    for name, unit in units.items():
        value = metrics.get(name)
        shown = "not measured" if value is None else f"{value:.6g} {unit}"
        print(f"{args.workload:14s} {name:28s} {shown}")
    for failure in failures:
        print(f"FAILED {failure}")
    if missing:
        print(f"NOT MEASURED {', '.join(missing)}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(line))
    return 0


def child(args) -> int:
    import_mvne()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    work = Path(args.work)
    if args.role == "untraced":
        result = run_untraced(wl, args.seed, args.seconds, work)
    else:
        from traced import run_traced

        result = run_traced(wl, args.seed, work, OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    with open(work / f"{args.role}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("untraced", "traced"), help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    return p.parse_args(argv)


if __name__ == "__main__":
    arguments = parse_args(sys.argv[1:])
    sys.exit(child(arguments) if arguments.role else parent(arguments))
