#!/usr/bin/env python3
"""Run the full desk-scale experiment through the CLI: train on the training
suite, compare the requested methods on the held-out suite, and emit the
feature table.

Takes the campaign flags of `tuneseer train` and `tuneseer compare` and hands
them to every step, after its own `--out $TUNESEER_DATA/desk` (or
./runs/desk) and `--workers <cpu count>`, which they override.  Each step
then fixes its suite, and the features step fixes `--seeds 0,` and
`--sigma 10,100,1000`.  A step that fails ends the script with its exit
code.  At the default sizes on 2 workers, train took 104 s (ROADMAP, PR-30
re-anchor) and compare 438 s (BENCH_31.json, one wall-clock run); features
takes under 1 s.

    python scripts/run_desk_campaign.py --dims 2,10 --seeds 10 --workers 2
"""

import os
import sys
import time

from tuneseer import cli
from tuneseer.harness import default_out_dir

STEPS = (
    ("train", ["--suite", "training"]),
    ("compare", ["--suite", "holdout"]),
    ("features", ["--suite", "training", "--seeds", "0,", "--sigma", "10,100,1000"]),
)


def main(argv=None) -> int:
    argv = [
        "--out", os.path.join(default_out_dir(), "desk"),
        "--workers", str(os.cpu_count() or 1),
        *(sys.argv[1:] if argv is None else argv),
    ]
    for step, fixed in STEPS:
        t0 = time.time()
        code = cli.main([step, *argv, *fixed])
        if code:
            return code
        print(f"[{step}] {time.time() - t0:.0f} s")
    print(f"outputs in {cli.build_parser().parse_args(['train', *argv]).out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
