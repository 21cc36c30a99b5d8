"""One workload in one fresh interpreter.

``python3 -m perfbench.child --workload W --seed N --mode M [--seconds S] [--trace]``
with ``src`` and the repository root on ``PYTHONPATH``.  Prints one JSON
object as its last line of standard output.

Modes:

* ``setup`` — generate inputs, then time set-up (the first completed
  operation of each route) and stop;
* ``measure`` — set-up, then repeat the operation for ``--seconds``,
  then the modelled cross-check;
* ``fixed`` — like ``measure`` but a fixed number of rounds, with every
  traced module imported before the clock starts, so a traced and an
  untraced run do identical work; ``--trace`` records the layer ledger.

A fresh interpreter per run matters: the cost probe's process-wide
kernel cache and import state would otherwise carry one run's work into
the next run's ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from perfbench import ledger as ledger_mod
from perfbench.hostclock import HostClock
from perfbench.workloads import WORKLOADS, Tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "fixed"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    pool = workload.inputs(args.seed)
    ledger = None
    if args.mode == "fixed":
        ledger_mod.preload()
        if args.trace:
            ledger = ledger_mod.Ledger()
            ledger_mod.install(ledger)
    tally = Tally()

    with HostClock() as clock:
        start = time.perf_counter()
        with clock.block("workload"):
            with clock.block("setup"):
                state, figures = workload.setup(pool, args.seed, tally)
            if args.mode != "setup":
                fixed = args.mode == "fixed"
                done = workload.steady(
                    state, args.seed, tally, clock,
                    deadline=None if fixed else time.perf_counter() + args.seconds,
                    reps=workload.fixed_rounds if fixed else None,
                )
                model = workload.model(state, pool, tally)
        wall_s = time.perf_counter() - start
    out: dict = {"setup_s": clock.seconds("setup"), "figures": figures}
    if args.mode != "setup":
        out.update(
            ops_per_s={r: n / clock.seconds(r) if n else 0.0 for r, n in done.items()},
            model=model,
            workload_s=clock.seconds("workload"),
        )
        if ledger is not None:
            out["layers"] = ledger_mod.layer_metrics(ledger, wall_s)
    out.update(
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
