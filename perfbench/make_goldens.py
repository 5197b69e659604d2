"""Record the golden outputs that the benchmark checks for the default seed.

    python3 perfbench/make_goldens.py [--workload NAME ...]

Run it only at a commit whose outputs are known to be right: later commits
are compared against what it writes to perfbench/goldens/<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DEFAULT_SEED, GOLDEN_DIR, WORKLOADS  # noqa: E402

# Simulate ops and CLI sessions covered; later ops of a run are checked by
# invariants only.  wide-estimate covers its whole sample pool.
GOLDEN_OPS = 12


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    workdir = HERE.parent / ".perfbench_out" / "goldens-work"
    try:
        for name in args.workload:
            wl = WORKLOADS[name](DEFAULT_SEED, workdir)
            ops = []
            count = wl.pool_size if name == "wide-estimate" else GOLDEN_OPS
            for i in range(count):
                inputs = wl.inputs(i)
                try:
                    out = wl.output(inputs, wl.op(inputs, False))
                finally:
                    wl.cleanup(inputs)
                problems = wl.invariants(inputs, out)
                if problems:
                    print(f"{name} op {i}: {problems}", file=sys.stderr)
                    return 1
                ops.append(wl.golden_view(out))
            GOLDEN_DIR.mkdir(exist_ok=True)
            path = GOLDEN_DIR / f"{name}.json"
            path.write_text(json.dumps({"seed": DEFAULT_SEED, "ops": ops}) + "\n")
            print(f"wrote {len(ops)} ops to {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
