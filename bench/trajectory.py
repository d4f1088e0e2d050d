#!/usr/bin/env python3
"""Run the benchmark as BENCHMARK.json's driver does — every workload once per
seed, tracing off — and hold it to the driver's steadiness rule: for each
end-to-end metric the distance between the first and third quartile of the
runs, as a share of their median, must stay within the metric's bound.

    python3 bench/trajectory.py [--label NAME] [--append]

--append adds the measured values (median, quartiles, n, report digests at
the golden seeds, nproc, Go version) as one line to bench/TRAJECTORY.jsonl.
Exit status 1 when a spread exceeds its bound or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

# Seeds 7 and 12345 are the ones specs/full/golden.txt covers, so these runs
# also check the cold workloads against it.
SEEDS = [7, 12345, 101, 202, 303, 404, 505, 606, 707, 808]

bench = os.path.dirname(os.path.abspath(__file__))
root = os.path.dirname(bench)


def run(spec, workload, seed):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    p = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    digest = next(l.split()[1] for l in lines if l.startswith("report_digest"))
    go = next(l.split()[1] for l in lines if l.startswith("go_version"))
    return result["metrics"], digest, go


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", default="", help="what this entry measures, e.g. a commit or PR name")
    ap.add_argument("--append", action="store_true", help="append the entry to bench/TRAJECTORY.jsonl")
    args = ap.parse_args()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    entry = {"label": args.label, "seeds": SEEDS, "nproc": os.cpu_count(),
             "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for w in (w["name"] for w in spec["workloads"]):
        values, digests = {}, {}
        for seed in SEEDS:
            metrics, digest, entry["go_version"] = run(spec, w, seed)
            if seed in (7, 12345):
                digests[str(seed)] = digest
            for name, m in metrics.items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w}")
        measured = {}
        for d in spec["end_to_end"]:
            v = values[d["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            ok = d["name"] == "setup_s" or spread <= d["bound"]
            steady = steady and ok
            print(f"  {d['name']:20s} median {med:12.6g} {d['unit']:4s} spread {100 * spread:6.2f}%"
                  f"  bound {100 * d['bound']:3.0f}%  {'ok' if ok else 'UNSTEADY'}")
            measured[d["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(v), "unit": d["unit"]}
        sys.stdout.flush()
        entry["workloads"][w] = {"report_digest": digests, "end_to_end": measured}

    if args.append:
        with open(os.path.join(bench, "TRAJECTORY.jsonl"), "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
