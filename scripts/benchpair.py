#!/usr/bin/env python3
"""Gate a change against its merge base on the end-to-end benchmark.

Run from the root of a checkout, naming the branch the change goes into:

    python3 scripts/benchpair.py origin/main

The script checks HEAD (the change) and the merge base of HEAD and that
ref (the parent) out into two sibling git worktrees under one temporary
directory, so both sides build and run from the same kind of tree on
the same filesystem; uncommitted edits are not benchmarked. For each of
WORKLOADS it runs PAIRS pairs of

    bash perfbench/run.sh --workload <w> --seed <pair> --seconds SECONDS --trace 0

once in each tree, parent first in even pairs and change first in odd
ones, so slow drift of the host hits both sides alike. It exits 1 when

  - a run reports an incorrect answer or dies,
  - the change fails more operations than the parent, or
  - the change's median of an end-to-end metric is worse than the
    parent's median by more than that metric's bound.

The metrics, their direction and their bounds are read from the
change's BENCHMARK.json, so this gate and the benchmark apply one rule.
Naming HEAD itself as the ref runs the parent against an identical
copy, which measures the harness's own side bias.
"""
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

# The two workloads whose spread is small enough to gate on: every
# cold-flat job runs an eigensolve, every cached-sweep job MELO and
# DP-RP on a cached spectrum.
WORKLOADS = ["cold-flat", "cached-sweep"]
# Five pairs keep a gate run near 10 minutes on two cores. On a 2-core
# VM the parent-vs-parent medians of five pairs stayed within 16%
# (cold-flat setup_s) and 8% (every job metric) of each other, inside
# the 0.25 timing bounds. SECONDS is BENCHMARK.json's run length.
PAIRS = 5
SECONDS = 20


def git(*args, cwd=None):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def bench(tree, workload, seed):
    """Runs the benchmark once in tree and returns its JSON report."""
    cmd = ["bash", "perfbench/run.sh", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    # Exit 2 is an incorrect answer: the report is still printed.
    if out.returncode not in (0, 2) or not lines:
        sys.exit(f"{tree}: {workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stdout}{out.stderr}")
    return json.loads(lines[-1])


def worse(metric, parent, change):
    """Returns how much worse change is than parent as a share of parent."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    if metric["better"] == "lower":
        return change / parent - 1
    return 1 - change / parent


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: python3 scripts/benchpair.py <base-ref>")
    repo = git("rev-parse", "--show-toplevel")
    head = git("rev-parse", "HEAD", cwd=repo)
    base = git("merge-base", "HEAD", sys.argv[1], cwd=repo)

    # A cancelled run still removes its worktrees (finally runs on exit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix="benchpair-")
    trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
    problems = []
    try:
        for side, rev in (("parent", base), ("change", head)):
            git("worktree", "add", "--detach", trees[side], rev, cwd=repo)
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
            metrics = json.load(f)["end_to_end"]
        print(f"parent {base[:12]} vs change {head[:12]}: {PAIRS} pairs of "
              f"{SECONDS}s runs per workload", flush=True)
        for w in WORKLOADS:
            runs = {"parent": [], "change": []}
            for seed in range(1, PAIRS + 1):
                order = ["parent", "change"] if seed % 2 == 0 else ["change", "parent"]
                for side in order:
                    rep = bench(trees[side], w, seed)
                    runs[side].append(rep)
                    print(f"{w} seed {seed} {side}: correct={rep['correct']} "
                          f"failed={rep['failed']}/{rep['attempted']} "
                          f"job_p50_s={rep['metrics']['job_p50_s']['value']:.4g} "
                          f"cpu_s_per_job={rep['metrics']['cpu_s_per_job']['value']:.4g}",
                          flush=True)
                    if not rep["correct"]:
                        problems.append(f"{w}: {side} seed {seed} gave an incorrect answer")
            failed = {s: sum(r["failed"] for r in rs) for s, rs in runs.items()}
            if failed["change"] > failed["parent"]:
                problems.append(f"{w}: change failed {failed['change']} operations, "
                                f"parent {failed['parent']}")
            print(f"\n{w}: {'metric':18s} {'parent':>10s} {'change':>10s} {'worse':>7s} {'bound':>6s}")
            for m in metrics:
                med = {s: statistics.median(r["metrics"][m["name"]]["value"] for r in rs)
                       for s, rs in runs.items()}
                x = worse(m, med["parent"], med["change"])
                flag = "  FAIL" if x > m["bound"] else ""
                print(f"{w}: {m['name']:18s} {med['parent']:10.4g} {med['change']:10.4g} "
                      f"{x:+7.3f} {m['bound']:6.2f}{flag}")
                if flag:
                    problems.append(f"{w}: {m['name']} median is {x:.1%} worse than the "
                                    f"parent's, bound {m['bound']:.0%}")
            print(flush=True)
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=repo,
                           capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=repo)
    if problems:
        print("benchpair: FAIL\n  " + "\n  ".join(problems))
        sys.exit(1)
    print("benchpair: pass")


if __name__ == "__main__":
    main()
