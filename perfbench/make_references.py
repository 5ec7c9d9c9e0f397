#!/usr/bin/env python3
"""Regenerate ``references.json``: result digests for every input set.

Run from the repository root, only when a change is *meant* to alter
simulation results::

    python3 perfbench/make_references.py            # all input sets
    python3 perfbench/make_references.py --sets 0 1

Each workload's pass runs once per input set and its digests are stored;
a simulation that raises aborts the regeneration.  Sets not named keep
their existing digests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import REFERENCES, TMP_ROOT, prepare


def main(argv=None) -> int:
    prepare()
    from workloads import (REF_SEEDS, WORKLOADS, Checker, make_inputs,
                           run_pass)

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, nargs="*",
                    default=list(range(REF_SEEDS)))
    args = ap.parse_args(argv)

    digests = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES, encoding="utf-8") as fh:
            digests = json.load(fh)["digests"]
    jobs = os.cpu_count() or 1
    for k in args.sets:
        refs: dict = {}
        for workload in WORKLOADS:
            checker = Checker(refs, record=True)
            run_pass(make_inputs(workload, k), checker, jobs=jobs,
                     tmp_root=TMP_ROOT)
            if checker.failed:
                print("\n".join(checker.failures), file=sys.stderr)
                return 1
        digests[str(k)] = dict(sorted(refs.items()))
        print(f"input set {k}: {len(refs)} digests", flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"ref_seeds": REF_SEEDS,
                   "digests": dict(sorted(digests.items(),
                                          key=lambda kv: int(kv[0])))},
                  fh, indent=1, sort_keys=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
