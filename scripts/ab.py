"""A/B runs of one perfbench workload on two git revisions.

    python3 scripts/ab.py PARENT CHANGE --workload spot-check --pairs 10 --seconds 5

Each revision is exported with ``git archive`` into one of two sibling
temporary directories whose paths have equal length, since the heap layout
alone (which a path's length shifts) can move a short workload's wall time
by about 10%.  The pairs then run ``perfbench/run.py`` in each export, one
run at a time, alternating which side goes first.  For every end-to-end
metric that ``BENCHMARK.json`` (of CHANGE) lists, it prints each side's
median and quartiles, the change's wins (ties count for neither side) out
of the pairs, the relative change of the medians, whether the change is a
gain by the benchmark's rule (``gain``: at least nine wins in ten and
medians further apart than the parent's quartiles), and whether it is
worse than the parent by more than the metric's ``bound`` (``worse``: the
medians differ, the wrong way, by more than that fraction of the parent's
median).  Each metric that is worse also gets a ``# WORSE <metric>`` line.
After the table, each op's best latency in a run (read from the
``.perfbench_out/<workload>-seed<s>-trace0.json`` that the run writes in its
export, times the run's host-speed scale, as ``op_p50_s`` takes it) is
printed as its median over each side's runs, so a move in ``op_p50_s`` or
``wall_s`` can be traced to the ops that made it.  Every run's values are
printed too.  The exit code is 1 when a run is not
correct or an op's output digest differs between the sides, else 2 when
any metric is worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")  # equal lengths, so both exports' paths are as long


def export(revision: str, into: Path) -> str:
    """Write the tree of revision into the empty directory into; return its commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{revision}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    into.mkdir()
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {commit} failed")
    return commit


def run(tree: Path, args) -> dict:
    """One perfbench run in tree: its last-line result plus the op digests."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"error: no result from the run in {tree} (exit {done.returncode})")
    result["digests"] = dict(line.split()[-2:] for line in lines if line.startswith("# digest "))
    result["failures"] = [line for line in lines if line.startswith("# FAILED ")]
    ops = json.loads(next(line for line in lines if line.startswith("# ops ")).split(" ", 2)[2])
    trace = tree / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace0.json"
    result["op_best_s"] = op_bests(json.loads(trace.read_text())["rotations"], ops["scale"])
    return result


def op_bests(rotations, scale: float) -> dict[str, float]:
    """Per op key, its best latency over the rotations where it passed, times scale."""
    best: dict[str, float] = {}
    for rotation in rotations:
        for sample in rotation["ops"]:
            if sample["ok"]:
                best[sample["key"]] = min(best.get(sample["key"], sample["latency_s"]),
                                          sample["latency_s"])
    return {key: value * scale for key, value in best.items()}


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def gain(parent: list[float], change: list[float], direction: str) -> bool:
    """The benchmark's gain rule on paired runs: nine wins in ten, medians beyond the parent's IQR."""
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    (q1, median, q3), change_median = quartiles(parent), quartiles(change)[1]
    return (wins * 10 >= 9 * len(parent) and better(change_median, median, direction)
            and abs(change_median - median) > q3 - q1)


def worse(parent: list[float], change: list[float], direction: str, bound: float) -> bool:
    """The no-regression rule: the change's median is worse than the parent's by more than bound."""
    median, change_median = quartiles(parent)[1], quartiles(change)[1]
    limit = median * (1.0 + bound if direction == "lower" else 1.0 - bound)
    return better(limit, change_median, direction)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", help="the revision to compare against")
    parser.add_argument("change", help="the revision whose gain or regression is measured")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")

    base = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        trees = {side: base / side for side in SIDES}
        commits = {side: export(getattr(args, side), trees[side]) for side in SIDES}
        print(f"# parent {commits['parent']}  change {commits['change']}  workload {args.workload}"
              f"  seed {args.seed}  seconds {args.seconds}  pairs {args.pairs}", flush=True)
        metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        runs = {side: [] for side in SIDES}
        problems = []
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run(trees[side], args)
                runs[side].append(result)
                if not result.get("correct"):
                    problems.append(f"pair {pair} {side}: not correct {result['failures']}")
            values = {side: {m["name"]: runs[side][-1]["metrics"][m["name"]]["value"]
                             for m in metrics} for side in SIDES}
            print(f"# pair {pair} ({order[0]} first) " + json.dumps(values), flush=True)
        first = runs["parent"][0]["digests"]
        if not first:
            problems.append("the runs printed no output digests")
        for side in SIDES:
            for index, result in enumerate(runs[side]):
                if result["digests"] != first:
                    problems.append(f"the digests of {side} run {index} differ from parent run 0's")

        print(f"{'metric':<13}{'parent median [q1, q3]':>33}{'change median [q1, q3]':>33}"
              f"{'change':>9}{'wins':>8}  gain  worse")
        regressions = []
        for metric in metrics:
            name, direction = metric["name"], metric["better"]
            series = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
            q = {side: quartiles(series[side]) for side in SIDES}
            wins = sum(better(c, p, direction) for p, c in zip(series["parent"], series["change"]))
            won = gain(series["parent"], series["change"], direction)
            lost = worse(series["parent"], series["change"], direction, metric["bound"])
            if lost:
                regressions.append(name)
            delta = (q["change"][1] / q["parent"][1] - 1.0) if q["parent"][1] else float("nan")
            print(f"{name:<13}" + "".join(f"{f'{qs[1]:.4g} [{qs[0]:.4g}, {qs[2]:.4g}]':>33}"
                                          for qs in q.values())
                  + f"{delta:>+9.1%}{f'{wins}/{args.pairs}':>8}  {'yes' if won else 'no':<4}"
                  + f"  {'yes' if lost else 'no'}")
        seen = [{key for r in runs[side] for key in r["op_best_s"]} for side in SIDES]
        keys = sorted(seen[0] & seen[1])
        width = max(map(len, keys), default=0) + 2
        print(f"{'op':<{width}}{'parent median':>15}{'change median':>15}{'change':>9}")
        for key in keys:
            medians = [statistics.median(r["op_best_s"][key] for r in runs[side]
                                         if key in r["op_best_s"]) for side in SIDES]
            print(f"{key:<{width}}{medians[0]:>15.4g}{medians[1]:>15.4g}"
                  f"{medians[1] / medians[0] - 1.0:>+9.1%}")
        for name in regressions:
            print(f"# WORSE {name}")
        for problem in problems:
            print(f"# FAILED {problem}")
        return 1 if problems else 2 if regressions else 0
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
