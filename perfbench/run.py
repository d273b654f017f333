"""Run one braidrep benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of a timed phase of
``--seconds``; ``--trace 1`` prints the per-layer metrics of a traced run of
a fixed number of rounds per workload.  Each metric is printed on its own line with its
unit; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the checkout this file sits in; every measured
process is a fresh child process, and outputs are re-checked by the sympy
oracle in this process after the measured ones have exited.  A result
record with provenance is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("suite", "cli_symbolic", "points")

END_TO_END = [("wall_s", "s"), ("task_p50_ms", "ms"), ("task_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]
# Set-up-only processes run before and again after the measured one; the
# median of all their set-up times and the measured one's is setup_s.  Half
# run after the timed phase, so that one slow stretch of the host does not
# hold every sample.
SETUP_SAMPLES_EACH_SIDE = 3
# Rounds of each pass of a traced run.  Fixed, so that the per-layer counts
# of a seed do not depend on --seconds; both passes together take about 30 s
# on a 2-core x86 machine.
TRACED_ROUNDS = {"suite": 6, "cli_symbolic": 3, "points": 50}
DEADLINE_S = 170
# Fewest reference loops a timed phase must time for its speed factor.
MIN_PROBES = 20


class BenchError(RuntimeError):
    pass


def provenance(workload, seed, seconds, trace) -> dict:
    src = ROOT / "src"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": commit, "src_sha256": h.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_at_start": list(os.getloadavg()),
            "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")}


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, mode, seconds=0.0, rounds=0, trace=0) -> dict:
        """Run one worker process; its task results come back under "results"."""
        sink = OUT / f"results-{self.workload}-{mode}-trace{trace}-{os.getpid()}.jsonl"
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--outdir", str(OUT), "--results", str(sink), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--seconds", str(seconds),
               "--rounds", str(rounds), "--trace", str(trace)]
        env = dict(os.environ, PYTHONHASHSEED="0")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  cwd=str(ROOT), timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker did not finish in time") from None
        try:
            if proc.returncode != 0:
                raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                                 f"{proc.stderr[-3000:]}")
            report = json.loads(proc.stdout.splitlines()[-1])
            if mode != "setup":
                with open(sink) as lines:
                    report["results"] = [json.loads(line) for line in lines]
            return report
        finally:
            sink.unlink(missing_ok=True)


def classify(workload, results) -> list:
    import oracle
    orc = oracle.Oracle()
    return [orc.check(workload, r["task"], r["output"], r["code"]) for r in results]


def quantile(values, p) -> float:
    """Harrell-Davis estimate of the ``p``-quantile of ``values``.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights, instead of one or two of them.  A round is a fixed recipe of
    tasks whose latencies fall in clusters (the 14 suite checks, say), so a
    plain median often sits in the gap between two clusters and jumps from
    one side to the other between runs; the weighted mean moves smoothly.
    Weights further than 12 standard deviations from ``p`` are left out.
    """
    import mpmath
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    sd = math.sqrt(p * (1 - p) / (n + 2))
    lo, hi = max(0, int(n * (p - 12 * sd))), min(n, int(n * (p + 12 * sd)) + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(lo, hi + 1)]
    return sum((cdf[k + 1] - cdf[k]) * x[lo + k] for k in range(hi - lo)) / (cdf[-1] - cdf[0])


def setup_sample(report) -> tuple:
    """One process's set-up time, measured and in reference seconds."""
    return report["setup_s"], report["setup_s"] * speed.scale(report["setup_probes"])


def untraced(runner, seconds):
    setups = [setup_sample(runner.spawn("setup")) for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    main = runner.spawn("timed", seconds=seconds)
    setups.append(setup_sample(main))
    setups += [setup_sample(runner.spawn("setup")) for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    lat = [r["latency_s"] for r in main["results"]]
    if len(lat) < 2:
        raise BenchError("fewer than two tasks completed; raise --seconds")
    if len(main["probes"]) < MIN_PROBES:
        raise BenchError(f"only {len(main['probes'])} reference loops timed; raise --seconds")
    measured = {"wall_s": statistics.fmean(main["round_walls"]),
                "task_p50_ms": quantile(lat, 0.5) * 1000.0,
                "task_p90_ms": quantile(lat, 0.9) * 1000.0,
                "setup_s": statistics.median(raw for raw, _ in setups)}
    factor = speed.scale(main["probes"], main["probe_weights"])
    metrics = {name: value * factor for name, value in measured.items()}
    metrics["setup_s"] = statistics.median(ref for _, ref in setups)
    metrics["peak_rss_mb"] = main["peak_rss_mb"]
    golden = json.loads((HERE / "golden.json").read_text()).get(runner.workload)
    ref = main["reference"]
    drift = None
    if golden is not None:
        drift = sum(a != b for a, b in zip(ref, golden)) + abs(len(ref) - len(golden))
    notes = {"rounds": len(main["round_walls"]), "tasks": len(lat),
             "measured": measured, "speed_factor": factor, "probes": len(main["probes"]),
             "setup_samples": setups, "drift": drift, "drift_checked": len(ref),
             "rejections": main["rejections"]}
    return metrics, main["results"], notes


def traced(runner):
    rounds = TRACED_ROUNDS[runner.workload]
    base = runner.spawn("fixed", rounds=rounds, trace=0)
    trace = runner.spawn("fixed", rounds=rounds, trace=1)
    metrics = dict(trace["layers"])
    metrics["trace.overhead_frac"] = (trace["phase_s"] - base["phase_s"]) / base["phase_s"]
    same = [(r["output"], r["code"]) for r in base["results"]] == \
        [(r["output"], r["code"]) for r in trace["results"]]
    notes = {"rounds": rounds, "tasks": len(trace["results"]),
             "traced_output_identical": same, "spans_file": trace["spans_file"],
             "span_count": trace["span_count"], "rejections": trace["rejections"]}
    return metrics, base["results"] + trace["results"], notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "braidrep" / "__init__.py").is_file():
        print(f"error: no braidrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    prov = provenance(args.workload, args.seed, args.seconds, args.trace)
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, results, notes = traced(runner)
        else:
            metrics, results, notes = untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    verdicts = classify(args.workload, results)
    refused = sum(v == "refused" for v, _ in verdicts)
    wrong = sum(v == "wrong" for v, _ in verdicts)
    failed = refused + wrong
    correct = wrong == 0 and notes.get("traced_output_identical", True)

    if args.trace:
        import tracer  # only for the metric order and units; touches no braidrep code
        units = dict(tracer.PER_LAYER)
    else:
        units = dict(END_TO_END)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  ({notes['rounds']} rounds, {notes['tasks']} tasks)")
    print("provenance " + json.dumps(prov))
    for name, unit in units.items():
        print(f"{name:<42} {metrics[name]:>14.6g} {unit}")
    print(f"{'failed_frac':<42} {failed / len(verdicts):>14.6g} frac  "
          f"({failed} of {len(verdicts)} tasks: {refused} refused, {wrong} wrong)")
    if "measured" in notes:
        print(f"times above are reference seconds (speed.py): measured x {notes['speed_factor']:.4f}"
              f" from {notes['probes']} reference loops; measured: "
              + ", ".join(f"{k} {v:.6g}" for k, v in notes["measured"].items()))
    if "drift" in notes:
        print(f"{'drift':<42} {notes['drift']!s:>14} count  "
              f"(reference outputs differing from the seed commit, of {notes['drift_checked']})")
    if notes.get("rejections"):
        rej = notes["rejections"]
        print(f"{'points_rejected_ill_conditioned':<42} "
              f"{rej['near_pole'] + rej['near_zero']:>14} count  "
              f"(of {rej['points_drawn']} drawn: {rej['near_pole']} near z=-1, "
              f"{rej['near_zero']} near z=0; see perfbench/README.md)")
    if "traced_output_identical" in notes:
        print(f"traced stdout identical to untraced: {notes['traced_output_identical']}; "
              f"{notes['span_count']} spans in {notes['spans_file']}")
    reasons = sorted({f"{v}: {why}" for v, why in verdicts if v != "ok"})
    for line in reasons[:10]:
        print("  " + line)

    record = {"provenance": prov, "metrics": metrics, "notes": notes,
              "attempted": len(verdicts), "failed": failed, "refused": refused,
              "wrong": wrong, "failure_reasons": reasons, "correct": correct}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2))
    print(json.dumps({"correct": correct, "attempted": len(verdicts), "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
