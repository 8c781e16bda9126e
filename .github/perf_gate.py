#!/usr/bin/env python3
"""Paired perfbench gate: the head commit against its base, on one host.

    python3 .github/perf_gate.py

The base is HEAD^: on a pull-request build HEAD is the merge commit and
HEAD^ the base branch tip, on a push it is the previous commit. The base
is checked out into a temporary git worktree. For each workload in
BENCHMARK.json the script runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 1

in two base-head-head-base blocks, four runs per side, so a drift in
host speed lands on both sides and no one slow pass sets a median. At
one second each run is a single pass. On a shared 2-vCPU host, one
block read run_s up to +9% (paper-64) and +13% (compute-64) base
against base; one two-block run read +1.1%, +5.2%, +15.4% and -7.0%
(paper-64, hotshare-64, compute-64, mcheck-2l1). It exits 1 if a
head run reports correct: false, if the head fails more ops than the
base, or if the head's median run_s, setup_s or peak_rss_mb exceeds
the base's by more than that metric's bound in BENCHMARK.json. setup_s is perfbench's median of at least 41 set-ups
(workload.Program plus NewSystem, or mcheck.New) per run, so it is
steady enough to gate at one second per run.

The paired blocks use input set 1 only. After them the head alone runs
once more on input sets 2-4 of every workload, at one second each, and
the gate also fails if one of those runs reports correct: false or any
failed op: every op's output is checked against perfbench's recorded
fingerprints. Sets 5-16 stay out to keep the job short, and paper-64's
set 16 could not be checked anyway: its fingerprint is not recorded
yet, which only a change to perfbench's fingerprints can fix.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

HEAD = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The end-to-end metrics the gate holds, with the unit it prints.
GATED = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# The input sets the head alone runs for correctness after the paired
# blocks on set 1.
EXTRA_SEEDS = (2, 3, 4)


def perfbench(tree, workload, seed=1):
    """Runs one perfbench pass in tree and returns its JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1"]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"perf gate: perfbench {workload} failed in {tree} (exit {p.returncode})")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(HEAD, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base")
        subprocess.run(["git", "worktree", "add", "--detach", base, "HEAD^"], cwd=HEAD, check=True)
        try:
            for w in (wl["name"] for wl in bench["workloads"]):
                runs = {base: [], HEAD: []}
                for tree in (base, HEAD, HEAD, base) * 2:
                    runs[tree].append(perfbench(tree, w))
                b, h = runs[base], runs[HEAD]
                line = [f"{w:12}"]
                for metric, unit in GATED:
                    b_med = statistics.median(r["metrics"][metric]["value"] for r in b)
                    h_med = statistics.median(r["metrics"][metric]["value"] for r in h)
                    change, bound = h_med / b_med - 1, bounds[metric]
                    line.append(f"{metric} base {b_med:.4g} {unit}, head {h_med:.4g} {unit} "
                                f"({change:+.1%}, bound +{bound:.0%});")
                    if change > bound:
                        failures.append(f"{w}: head {metric} is {change:+.1%} over base, bound +{bound:.0%}")
                b_failed = sum(r["failed"] for r in b)
                h_failed = sum(r["failed"] for r in h)
                print(" ".join(line), f"failed ops base {b_failed}, head {h_failed}", flush=True)
                if not all(r["correct"] for r in h):
                    failures.append(f"{w}: head reports correct: false")
                if h_failed > b_failed:
                    failures.append(f"{w}: head fails {h_failed} ops, base {b_failed}")
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", base], cwd=HEAD)
    for w in (wl["name"] for wl in bench["workloads"]):
        for seed in EXTRA_SEEDS:
            r = perfbench(HEAD, w, seed)
            outcome = f"correct {str(r['correct']).lower()}, failed ops {r['failed']}"
            print(f"{w:12} input set {seed}: {outcome}", flush=True)
            if not r["correct"] or r["failed"]:
                failures.append(f"{w}: head on input set {seed}: {outcome}")
    for f in failures:
        print("perf gate: FAIL", f)
    if failures:
        return 1
    print("perf gate: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
