"""Run every workload of the gep benchmark, each in a fresh process.

    python3 perfbench/run_all.py [--seed N] [--trace] [--out PATH]

Workloads and the run length come from BENCHMARK.json.  Each workload's
report is printed as it finishes; all results, with the environment
record of each run, are written to PATH (default
.perfbench_work/results.json).  ``--trace`` adds the traced run of every
workload.  Exits 1 if any run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="also make the traced runs")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench_work", "results.json"))
    args = parser.parse_args(argv)

    results = []
    ok = True
    for workload in bench["workloads"]:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload["name"],
                   "--seed", str(args.seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=RUN_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(done.stderr)
            if done.returncode != 0 or not lines:
                print(f"{workload['name']}: run.py exited {done.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            env = next(json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("environment "))
            ok = ok and result["correct"]
            results.append({"workload": workload["name"], "trace": trace,
                            "environment": env, **result})

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(results)} results to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
