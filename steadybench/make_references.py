"""Write the committed reference outputs, after verifying them once.

Each workload runs once per seed through the benchmark's own code with
verification on: every session's, period's and sample peer's costs are
checked against the exact per-query ``CostModel`` to 1e-9, and the sweep
payload against a ``serial``-executor run of the same grid.  Only when
nothing fails are ``references/seed-<n>.json`` written.

    python3 steadybench/make_references.py --seeds 7 11
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from steadybench.run import OUT, run_pass, use_checkout  # noqa: E402  (pins BLAS threads first)
from steadybench.processes import stop_children_at_exit  # noqa: E402


def main(argv: Optional[List[str]] = None) -> int:
    stop_children_at_exit()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    args = parser.parse_args(argv)
    if not use_checkout():
        print("error: no src/repro to run", file=sys.stderr)
        return 2
    from steadybench.references import dumps, path_for
    from steadybench.workloads import WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        path = path_for(seed)
        references = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        for name in names:
            scratch = Path(tempfile.mkdtemp(prefix=f"refs-{name}-", dir=OUT / "tmp"))
            try:
                run, _ = run_pass(WORKLOADS[name], seed, scratch, setup_repeats=1, verify=True)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            if run.failures:
                for failure in run.failures:
                    print(f"FAILED {name} seed {seed}: {failure}", file=sys.stderr)
                return 1
            print(f"seed {seed} {name}: {len(run.outputs)} outputs, {run.attempted} checks passed")
            references[name] = run.outputs
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dumps(references), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
