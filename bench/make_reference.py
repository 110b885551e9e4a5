"""Regenerate reference.json: the sha256 of every emitted file, per seed.

Usage, from the repository root, on a commit whose outputs are trusted:

    python3 bench/make_reference.py

Every committed workload runs once per seed 0-10 at ``--threads 1`` and
must pass the workload invariants.  The platform the digests depend on
(``run.platform_key``: Python, numpy and scipy versions, CPU model and
usable CPUs) is stored with them; ``run.py`` applies the digests only on
the same platform.  The file is overwritten.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import run

SEEDS = range(11)


def main() -> int:
    digests = {}
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        for path in sorted(run.WORKLOADS.glob("*.json")):
            workload = run.Workload.load(path.stem)
            for seed in SEEDS:
                inv = run.invoke(workload, seed, 1, Path(tmp),
                                 time.monotonic() + run.HARD_LIMIT_S)
                if inv.problems:
                    print(f"{workload.name} seed {seed}: {inv.problems}",
                          file=sys.stderr)
                    return 1
                digests.setdefault(workload.name, {})[str(seed)] = {
                    f: inv.hashes[f] for f in inv.emitted}
                print(f"{workload.name} seed {seed}: {inv.wall_s:.2f} s",
                      flush=True)

    payload = {"platform": run.platform_key(), "sha256": digests}
    with open(run.REFERENCE, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
