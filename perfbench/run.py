"""Pipeline benchmark for griddistill: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper-default --seed 42 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's own `src/`. With `--trace 0` the last stdout line is a JSON
object with every end-to-end metric; with `--trace 1`, every per-layer
metric and the tracing overhead. A full run record (environment, samples,
checks, output digest, results summary) is written under `.perfbench/` at
the checkout root. Workloads and metrics are described in
perfbench/README.md; BENCHMARK.json at the root lists them.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, see BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=42, help="root seed of the experiment")
    parser.add_argument("--seconds", type=float, default=20.0, help="measurement budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread, fixed before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "griddistill" / "__init__.py").is_file():
        print(f"perfbench: no griddistill package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    os.chdir(ROOT)  # relative output paths keep the output digest checkout-independent

    import bench

    if args.workload not in bench.workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    work = os.path.join(".perfbench", "work", args.workload)
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), work, str(ROOT))
    record_dir = ROOT / ".perfbench" / "records"
    record_dir.mkdir(parents=True, exist_ok=True)
    record_path = record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(result.record, indent=2, default=str) + "\n")
    for error in result.record["errors"]:
        print(f"FAILED {error}")
    print(f"record -> {record_path.relative_to(ROOT)}")
    print(json.dumps(bench.result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
