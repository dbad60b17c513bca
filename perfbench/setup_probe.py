"""Set-up probe, run in a fresh interpreter: import qcurv, then load and
validate every config of a batch file.

    python3 perfbench/setup_probe.py BATCH_JSON
"""

import json
import sys

import qcurv


def main(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        batch = json.load(handle)
    for config in batch:
        qcurv.SolverConfig.from_json_dict(config)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
