"""Record perfbench/reference.json: the checked values of the ladder workloads.

    python3 perfbench/record_reference.py

Run it at the commit whose outputs the benchmark should hold later
commits to; it records the full-size ladder and the 21-state one the
self-tests use.
"""

import json
import os
import sys
import shutil

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

SELFTEST_LADDER_ORDER = 21


def main() -> int:
    reference = {"ladder-band": {}, "ladder-dc": {}}
    work = os.path.join(os.path.dirname(HERE), ".perfbench", "record")
    try:
        for order in (workloads.LADDER_ORDER, SELFTEST_LADDER_ORDER):
            band = workloads.LadderBand(work, 0, order)
            reference["ladder-band"][str(order)] = band.summary(band.run(0))
            dc = workloads.LadderDc(work, 0, order)
            dc.prepare(0)
            out = dc.run(0)
            if out["code"] != 0:
                raise SystemExit(f"ladder-dc at order {order} failed: {out['stderr']}")
            reference["ladder-dc"][str(order)] = dc.summary(dc.files())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
