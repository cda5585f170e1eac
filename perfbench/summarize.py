"""Summarize result files into one point of the bench trajectory.

    python3 perfbench/summarize.py .bench_out/*-trace0.json .bench_out/*-trace1.json

Prints JSON: per workload and metric, the median, quartiles and count of the
values in the given results (as `statistics.quantiles(values, n=4)` gives
them), the seeds they came from, and the provenance of the first result.
"""

import json
import statistics
import sys


def summarize(paths):
    values, seeds, provenance = {}, {}, None
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        prov, line = result["provenance"], result["result"]
        if not line["correct"]:
            raise SystemExit(f"{path}: failed checks: {result['failures']}")
        provenance = provenance or prov
        workload = prov["workload"]
        seeds.setdefault(workload, set()).add(prov["seed"])
        for name, metric in line["metrics"].items():
            values.setdefault(workload, {}).setdefault(name, (metric["unit"], []))[1].append(
                metric["value"])
    point = {"provenance": {k: v for k, v in provenance.items()
                            if k not in ("workload", "seed", "trace", "inputs")},
             "workloads": {}}
    for workload, metrics in sorted(values.items()):
        rows = {}
        for name, (unit, vals) in metrics.items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            median = statistics.median(vals)
            rows[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3, "n": len(vals),
                          "spread": (q3 - q1) / median if median else None}
        point["workloads"][workload] = {"seeds": sorted(seeds[workload]), "metrics": rows}
    return point


if __name__ == "__main__":
    print(json.dumps(summarize(sys.argv[1:]), indent=1, sort_keys=True))
