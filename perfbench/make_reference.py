"""Write reference.json: every workload's probe outputs on the fixed
reference inputs, each beside the tolerance it is compared with.

    python3 perfbench/make_reference.py

Run it only when the program's outputs are meant to change; a change that
claims only a speed-up must pass against the stored file unchanged.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run  # sets the single-threaded BLAS environment before numpy loads


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    run.WORK.mkdir(parents=True, exist_ok=True)
    reference = {}
    for name, wl in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.WORK) as work:
            reference[name] = wl.probe(work)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
