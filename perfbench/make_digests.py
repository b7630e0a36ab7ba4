"""Regenerate ``tpch_digests.json``: tpch-power's committed answers.

    python3 perfbench/make_digests.py FIRST LAST

computes, for every input seed FIRST..LAST, the answer digest of each of
the 22 queries over the S3+OCM engine the workload uses, and checks it
against a block-device (EBS) engine loaded with the same data.  Run it
only when the scale factor, the data generator or the query answers are
meant to change, and say why in the change that commits the new file.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    DIGESTS_PATH,
    SCALE_FACTOR,
    TpchPower,
    answer_digest,
    oracle_digests,
)


def main(first: int, last: int) -> int:
    workload = TpchPower()
    seeds = {}
    for seed in range(first, last + 1):
        state = workload.setup(seed)
        workload.phase(state)
        digests = {str(q): answer_digest(a) for q, a in state.answers.items()}
        if digests != oracle_digests(seed):
            print(f"input seed {seed}: S3 and EBS answers differ",
                  file=sys.stderr)
            return 1
        seeds[str(seed)] = digests
    DIGESTS_PATH.write_text(json.dumps(
        {"scale_factor": SCALE_FACTOR, "seeds": seeds},
        indent=0, sort_keys=True,
    ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
