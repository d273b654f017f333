"""One benchmark process: import braidrep, set up a workload, run it.

Started by ``run.py``, never by hand.  Modes:

* ``setup``: import, input generation and warm-up, then exit.  The set-up
  time runs from just after the first statements of this file, which time
  the reference loop of ``speed.py`` a few times; every mode times it as
  many times again right after set-up.
* ``timed``: set up, then run rounds until ``--seconds`` have passed,
  timing the reference loop between tasks; then record peak RSS and run
  the reference tasks (round 0 of seed 0, or its first
  ``reference_tasks``) used to count output drift against the seed
  commit.
* ``fixed``: set up, then run exactly ``--rounds`` rounds, traced when
  ``--trace 1``; fixed lengths make traced counts repeat exactly.

Prints one JSON object on stdout.  Task outputs are captured, never
printed: each round's results are appended to the JSON-lines file
``--results`` as soon as the round ends, so the process holds at most one
round of them and peak RSS does not grow with the number of rounds run.
"""

from time import perf_counter

import speed

# Reference loops timed right before set-up starts and again right after it
# ends, in every mode, so that the set-up time can be given in reference
# seconds.
SETUP_PROBES = 4
PROBES_BEFORE = [speed.reference_loop() for _ in range(SETUP_PROBES)]
T0 = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--results", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import braidrep
    if Path(braidrep.__file__).resolve().parent != (src / "braidrep").resolve():
        print(f"braidrep imported from {braidrep.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    from braidrep import suite

    outdir = Path(args.outdir)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=outdir))
    try:
        tracer = probe = None
        if args.trace:
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer()
        elif args.mode == "timed":
            probe = speed.SpeedProbe()
        cls = workloads.CLASSES[args.workload]
        wl = cls(args.seed, workdir, hooks=tracer or probe or workloads.NoHooks())
        wl.warm_up()
        setup_s = perf_counter() - T0
        report = {"setup_s": setup_s,
                  "setup_probes": PROBES_BEFORE + [speed.reference_loop()
                                                   for _ in range(SETUP_PROBES)]}
        if args.mode == "setup":
            print(json.dumps(report))
            return 0

        if tracer is not None:
            tracer.install(list(suite.ALL_CHECKS))
        round_walls, output_bytes = [], 0
        start = perf_counter()
        r = 0
        with open(args.results, "w") as sink:
            while (perf_counter() - start < args.seconds if args.mode == "timed"
                   else r < args.rounds):
                inp = wl.round_input(r)
                spent = probe.spent_s if probe else 0.0
                t0 = perf_counter()
                results = wl.run_round(inp)
                wall = perf_counter() - t0
                round_walls.append(wall - (probe.spent_s - spent if probe else 0.0))
                for res in results:
                    sink.write(json.dumps(res.to_json()) + "\n")
                    output_bytes += len(res.output.encode())
                del inp, results
                r += 1
        report["phase_s"] = perf_counter() - start
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["round_walls"] = round_walls
        if probe is not None:
            report["probes"] = probe.samples
            report["probe_weights"] = probe.weights
        report["rejections"] = wl.rejections
        wl.close()

        if tracer is not None:
            report["layers"] = tracer.metrics(output_bytes if cls.prints_output else 0)
            spans = outdir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write_spans(spans)
            report["spans_file"] = str(spans.relative_to(Path(args.root).resolve()))
            report["span_count"] = len(tracer.spans)

        if args.mode == "timed":
            ref_dir = workdir / "reference"
            ref_dir.mkdir()
            ref = cls(0, ref_dir)
            ref.warm_up()
            inp = ref.round_input(0)
            if cls.reference_tasks is not None:
                inp = inp[:cls.reference_tasks]
            report["reference"] = [[digest(res.output), res.code] for res in ref.run_round(inp)]
            ref.close()
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
