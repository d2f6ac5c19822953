"""One fresh interpreter running the registered paper experiments.

Started by ``run.py`` the way ``fullview run`` starts: a new Python
process that imports ``repro.cli`` and the experiment registry, then
runs every experiment in quick mode at seed 0, in sorted order.  It
prints ``ready`` once the import is done (the parent times the CLI
cold start up to that line) and writes everything the parent checks
to ``--out``.

Without ``--traced`` there is one untraced pass (``U0``).  With it,
one pass runs each experiment three times in a row: untraced
(``U0``), then untraced (``U1``) and traced (``T1``, layer wrappers
installed, program metrics on).  With ``--pause-every`` the pass stops
between experiments, prints ``pause`` and waits for a line on stdin,
while the parent runs a slice of the service mix.

The module body only defines things: pool workers started by
forkserver or spawn import it as ``__mp_main__``, and must not run the
suite again.  Each experiment run appends its pid to the file named by
``PERFBENCH_EXPERIMENT_LEDGER``, so the parent can prove every
experiment ran exactly once per pass, in this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Experiments whose theory columns the oracle recomputes.
ORACLE_TABLES = ("FIG7", "FIG8", "EQ19", "EQ2-MC", "EQ13-MC", "THM3-MC", "THM4-MC")

#: Environment variable naming the exactly-once ledger file.
LEDGER_ENV = "PERFBENCH_EXPERIMENT_LEDGER"


def _cell(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return float(value)


def table_digest(table) -> str:
    """sha256 of a result table's CSV rendering."""
    return hashlib.sha256(table.to_csv().encode("utf-8")).hexdigest()


def _status_kb(pid: int, field: str) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return 0


def _descendants(root: int) -> list:
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        children = [child for child, parent in parents.items() if parent == pid]
        found.extend(children)
        frontier.extend(children)
    return found


def peak_rss_kb() -> dict:
    """Peak resident set of this process and of each descendant, in KiB,
    with the descendants' pids (the parent waits for them to end)."""
    own = os.getpid()
    pids = _descendants(own)
    return {
        "self": _status_kb(own, "VmHWM"),
        "descendants": [_status_kb(pid, "VmHWM") for pid in pids],
        "pids": pids,
    }


def _new_record(label: str) -> dict:
    return {"label": label, "exp_s": {}, "digests": {}, "failed_checks": {}, "tables": {}}


def run_one(experiments, exp_id, workers, record, ledger) -> None:
    """Run one experiment; add its time, digests and checks to ``record``."""
    with open(ledger, "a") as handle:
        handle.write(f"{os.getpid()} {record['label']} {exp_id}\n")
    t0 = time.perf_counter()
    result = experiments[exp_id].run(fast=True, seed=0, workers=workers)
    record["exp_s"][exp_id] = time.perf_counter() - t0
    record["digests"][exp_id] = [table_digest(t) for t in result.tables]
    record["failed_checks"][exp_id] = result.failed_checks()
    if exp_id in ORACLE_TABLES:
        record["tables"][exp_id] = [
            {"columns": list(t.columns), "rows": [[_cell(v) for v in row] for row in t.rows]}
            for t in result.tables
        ]


class Pauses:
    """Stops between experiments for a slice of the service mix.

    After an experiment that ends at least ``every_s`` after the last
    resume (and is not the last), print ``pause`` and wait for a line
    on stdin.  ``total`` is the time spent paused, which the pass's
    ``wall_s`` leaves out.
    """

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.resumed = time.perf_counter()
        self.total = 0.0

    def after(self, last: bool) -> None:
        now = time.perf_counter()
        if self.every_s and not last and now - self.resumed >= self.every_s:
            print("pause", flush=True)
            sys.stdin.readline()
            self.resumed = time.perf_counter()
            self.total += self.resumed - now


def run_pass(experiments, order, workers, label, ledger, pause_every_s=0.0) -> dict:
    """Run every experiment once in ``order``; time each, digest tables."""
    record = _new_record(label)
    pauses = Pauses(pause_every_s)
    start = time.perf_counter()
    for index, exp_id in enumerate(order):
        run_one(experiments, exp_id, workers, record, ledger)
        pauses.after(last=index == len(order) - 1)
    record["wall_s"] = time.perf_counter() - start - pauses.total
    record["paused_s"] = pauses.total
    return record


def triple_pass(experiments, order, workers, ledger, spans_path, pause_every_s) -> tuple:
    """The traced run's one pass: each experiment three times in a row.

    First untraced (``U0``, the experiment's first run in this
    process), then untraced (``U1``) and traced (``T1``) in an order
    that alternates along ``order``.  The three runs of an experiment
    are adjacent in time, so host drift falls on them alike: ``U0 -
    U1`` is the first-run warm-up and ``T1 - U1`` the tracing cost.
    The traced runs have the layer wrappers installed and the
    program's metrics registry active.
    """
    sys.path.insert(0, str(HERE))
    import layers
    from tracer import Tracer

    from repro.obs.metrics import MetricsRegistry, set_metrics

    tracer = Tracer()
    registry = MetricsRegistry()
    first, plain, traced = _new_record("U0"), _new_record("U1"), _new_record("T1")
    pauses = Pauses(pause_every_s)
    for index, exp_id in enumerate(order):
        run_one(experiments, exp_id, workers, first, ledger)
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if not with_trace:
                run_one(experiments, exp_id, workers, plain, ledger)
                continue
            layers.install(tracer)
            previous = set_metrics(registry)
            try:
                run_one(experiments, exp_id, workers, traced, ledger)
            finally:
                set_metrics(previous)
                tracer.uninstall()
        pauses.after(last=index == len(order) - 1)
    for record in (first, plain, traced):
        record["wall_s"] = sum(record["exp_s"].values())
    traced["layers"] = layers.layer_metrics(tracer, registry.snapshot().get("counters", {}))
    if spans_path:
        tracer.write_spans(Path(spans_path))
    return first, plain, traced


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=0, help="0 leaves workers unset")
    parser.add_argument("--traced", action="store_true",
                        help="run each experiment untraced, untraced and traced in a row")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default="")
    parser.add_argument("--pause-every", type=float, default=0.0,
                        help="pause the first pass this often (seconds) for a service slice")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the CLI cold start being measured)
    from repro.experiments import all_experiments

    experiments = all_experiments()
    import_s = time.perf_counter() - start
    print("ready", flush=True)

    ledger = os.environ[LEDGER_ENV]
    # Sorted, as `fullview run` runs them: the first experiment pays the
    # interpreter's warm-up and the first pooled one the pool start-up,
    # so a varying order would move per-experiment times between runs.
    order = sorted(experiments)
    workers = args.workers or None
    if args.traced:
        passes = list(triple_pass(experiments, order, workers, ledger, args.spans,
                                  args.pause_every))
    else:
        passes = [run_pass(experiments, order, workers, "U0", ledger, args.pause_every)]
    rss = peak_rss_kb()

    from repro.simulation.engine import shutdown_worker_pools

    shutdown_worker_pools()
    Path(args.out).write_text(json.dumps({
        "pid": os.getpid(), "import_s": import_s, "registry": sorted(experiments),
        "passes": passes, "rss_kb": rss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
