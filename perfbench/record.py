"""Regenerate the committed expected outputs in ``expected.json``.

Usage, from the repository root::

    python3 perfbench/record.py --seeds 0 127           # every workload
    python3 perfbench/record.py --workload fleet_route --seeds 0 127

Runs one op per (workload, seed) and stores its output digest and
``sim.*`` values, which ``run.py`` then requires every op to reproduce.
Only re-record when a change is meant to alter simulated outputs (a
workload definition or a modelling change), and say so in its
description: a pure speed-up must reproduce them as they are.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import EXPECTED, pin_environment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    args = parser.parse_args(argv)
    pin_environment()
    import workloads

    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for name in args.workload or workloads.NAMES:
        entries = table.setdefault(name, {})
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            workload = workloads.build(name, seed)
            outputs = workload.outputs(workload.op())
            if outputs.problems:
                raise SystemExit(f"{name} seed {seed}: {'; '.join(outputs.problems)}")
            entries[str(seed)] = {"digest": outputs.digest, "sim": outputs.sim}
            print(f"{name} seed {seed}: {outputs.digest[:16]}", flush=True)
        table[name] = dict(sorted(entries.items(), key=lambda item: int(item[0])))
        EXPECTED.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
