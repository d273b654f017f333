"""Compare a parent checkout with a changed checkout on the benchmark.

    python3 perfbench/compare.py --parent ../parent --change .

For every workload in BENCHMARK.json, each of ten pairs runs
``perfbench/run.py`` once in each checkout with one seed (1000 to 1009),
alternating which side runs first.  One row per workload and end-to-end
metric gives both medians with their quartiles, the share of pairs the
change won (ties count for neither side), and a verdict:

* ``REGRESSION``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
* ``unresolved``: the parent's own spread (quartile distance over median)
  exceeds the bound, and not every change run beats every parent run;
* ``gain``: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance;
* ``no change`` otherwise.

Both checkouts must hold the same benchmark files; the bounds are read from
the BENCHMARK.json of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PAIRS = 10
FIRST_SEED = 1000


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=str(checkout), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    pmed, cmed = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = (q3 - q1) / pmed
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change)) / len(parent)
    worse = sign * (cmed - pmed) / pmed
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if worse > bound:
        return "REGRESSION", wins, spread
    if spread > bound and not all_better:
        return "unresolved", wins, spread
    if wins >= 0.9 and abs(cmed - pmed) > q3 - q1:
        return "gain", wins, spread
    return "no change", wins, spread


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    args = ap.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    rows, counts = [], {}
    for workload in workloads:
        values = {side: {} for side in sides}
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(sides[side], workload, seed, bench["run_seconds"])
                tally = counts.setdefault((workload, side), [0, 0, 0])
                tally[0] += res["failed"]
                tally[1] += res["attempted"]
                tally[2] += not res["correct"]
                for name, m in res["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
        for metric in bench["end_to_end"]:
            p, c = values["parent"][metric["name"]], values["change"][metric["name"]]
            v, wins, spread = verdict(p, c, metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": metric["name"],
                         "unit": metric["unit"], "bound": metric["bound"],
                         "parent": [statistics.median(p)] + statistics.quantiles(p, n=4)[::2],
                         "change": [statistics.median(c)] + statistics.quantiles(c, n=4)[::2],
                         "change_won": wins, "parent_spread": spread, "verdict": v})

    print(f"{'workload':<13} {'metric':<12} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'won':>5}  verdict")
    for r in rows:
        fmt = lambda t: f"{t[0]:.4g} [{t[1]:.4g}, {t[2]:.4g}] {r['unit']}"
        print(f"{r['workload']:<13} {r['metric']:<12} {fmt(r['parent']):<32} "
              f"{fmt(r['change']):<32} {r['change_won']:>5.0%}  {r['verdict']}")
    failures = {f"{w} {side}": {"failed": f, "attempted": a, "runs_not_correct": bad}
                for (w, side), (f, a, bad) in counts.items()}
    for key, t in failures.items():
        print(f"{key:<20} failed {t['failed']} of {t['attempted']} tasks; "
              f"{t['runs_not_correct']} runs not correct")
    frac = lambda w, side: counts[(w, side)][0] / counts[(w, side)][1]
    worse = [w for w in workloads
             if frac(w, "change") > frac(w, "parent") or counts[(w, "change")][2]]
    for w in worse:
        print(f"{w}: the change fails a larger share of tasks than the parent, "
              "or gave wrong answers")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "compare.json").write_text(json.dumps({"rows": rows, "failures": failures}, indent=2))
    return 1 if worse or any(r["verdict"] == "REGRESSION" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
