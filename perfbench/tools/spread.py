#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per end-to-end metric,
the median and the interquartile spread as a share of the median (the
figure BENCHMARK.json's bounds are checked against).

    python3 perfbench/tools/spread.py --workload warm_lookup --seeds 1-5
    python3 perfbench/tools/spread.py --all --seeds 1-10 --binary <path>

Run from the repository root. `--binary` runs a prebuilt `perfbench`
instead of going through `cargo run`.
"""
import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["warm_lookup", "advert_churn", "udp_gateway", "sim_bridge"]


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--binary")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    cmd = [args.binary] if args.binary else bench["command"]
    for w in WORKLOADS if args.all else args.workload:
        runs = []
        for s in seeds(args.seeds):
            out = subprocess.run(
                cmd + ["--workload", w, "--seed", str(s), "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2]).get("detail", {}) if len(lines) > 1 else {}
            for k, v in detail.items():
                if k.startswith("raw_") or k == "ref_ns":
                    result["metrics"]["(" + k + ")"] = {"value": v}
            runs.append(result)
            print(f"{w} seed {s}: attempted {result['attempted']} failed {result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            flag = "" if spread < bound / 3 else ("  <-- above bound/3" if spread <= bound else "  <-- ABOVE BOUND")
            print(f"{w:13s} {name:20s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}{flag}")
        fails = {r["failed"] / r["attempted"] for r in runs}
        print(f"{w:13s} failed share {sorted(fails)}  correct {all(r['correct'] for r in runs)}")


if __name__ == "__main__":
    main()
