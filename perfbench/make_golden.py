"""Record the output digests of each workload's reference round.

The reference round is round 0 of workload seed 0.  Every untraced run
replays it after its timed phase and counts the outputs whose bytes (and
exit codes) differ from the digests recorded here.  Run this only on a
commit whose outputs are the intended ones; the committed file was written
at the commit that added the benchmark:

    python3 perfbench/make_golden.py
"""

import json
import sys

import run


def main() -> int:
    golden = {}
    run.OUT.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        golden[workload] = run.Runner(workload, 0).spawn("timed", seconds=0)["reference"]
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
