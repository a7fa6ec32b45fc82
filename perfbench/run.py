"""End-to-end and per-layer wall-clock benchmark of the ByteCard reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload stats-direct --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``stats-direct``  -- STATS-Hybrid, one client, every query unique,
  planned straight through the learned strategy (no serving tier);
* ``aeolus-ingest`` -- AEOLUS-Online through ``ByteCard.serve()`` with the
  feedback loop on, queries interleaved with drift ingestion and
  synchronous retrain + refresh.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when the run completed (wrong results make ``correct`` false),
2 on bad arguments or when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: pinned so that parent and change run the same program on any host
PINNED_ENV = {
    "REPRO_SCAN_PARALLELISM": "1",
    "REPRO_BN_KERNEL": "numpy",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _import_program():
    """Put ``src/`` and the repository root on the path and import the
    program; exit 2 when the checkout does not hold it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro  # noqa: F401


def environment() -> dict[str, str]:
    import numpy

    from repro.estimators.bn.kernels import resolve_backend

    env = {name: os.environ[name] for name in PINNED_ENV}
    env.update(
        nproc=str(os.cpu_count()),
        python=platform.python_version(),
        numpy=numpy.__version__,
        bn_kernel_backend=resolve_backend(),
        machine=platform.machine(),
    )
    return env


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.update(PINNED_ENV)
    _import_program()

    from perfbench.closedloop import ClosedLoop
    from perfbench.inputs import WORKLOADS, make_inputs
    from perfbench.report import (
        END_TO_END, LAYER_MAP, PER_LAYER, Tally, end_to_end, per_layer,
    )

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    inputs = make_inputs(args.workload, args.seed, args.seconds)
    run = ClosedLoop(inputs, trace=bool(args.trace)).run()
    tally = Tally(run)
    if args.trace:
        values, notes = per_layer(run, tally)
        units = PER_LAYER
    else:
        values, notes = end_to_end(run, tally)
        units = END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for key, value in environment().items():
        print(f"  env {key} = {value}")
    print(f"  reads {len(run.reads)}  writes {len(run.writes)}  probes {len(run.probes)}  "
          f"attempted {tally.attempted}  failed {tally.failed}")
    for name, error in tally.bind_failures:
        print(f"  bind failure {name}: {error}")
    for name, error in tally.errors:
        print(f"  error {name}: {error}")
    for name, got, want in tally.wrong:
        print(f"  WRONG RESULT {name}: {got} rows, truth {want}")
    if args.trace:
        for layer, metrics, target in LAYER_MAP:
            print(f"  layer {layer} ({metrics}) should move {target}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {values[name]:14.6f} {unit}{note}")

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
