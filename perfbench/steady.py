"""Steadiness mode: run one workload k times and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload paper_suite --runs 10 [--trace 0] [--first-seed 1]

Runs ``perfbench/run.py`` once per seed ``first-seed .. first-seed+k-1``
with the ``run_seconds`` of ``BENCHMARK.json``, one after another.  For
each metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the quartile
distance as a share of the median, and, for end-to-end metrics, that
share against the metric's bound and a third of it.  Each run's host
facts (CPU count, python/numpy/scipy versions, load average, the
``/proc/stat`` steal share) are printed beside its values, and every
run is kept in ``.perfbench/steady-<workload>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    host = next((json.loads(line[5:]) for line in lines if line.startswith("host ")), {})
    return {"seed": seed, "result": result, "host": host}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        run = one_run(args.workload, seed, spec["run_seconds"], args.trace)
        runs.append(run)
        host = run["host"]
        print(f"seed {seed}: attempted {run['result']['attempted']} failed "
              f"{run['result']['failed']} load {host.get('loadavg', ['?'])[0]:.2f} "
              f"steal {host.get('steal_share', 0.0):.3%}", flush=True)
    out = ROOT / ".perfbench" / f"steady-{args.workload}-t{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))

    first = runs[0]["result"]["metrics"]
    print(f"\n{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}  ok")
    worst = 0.0
    for name in first:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        if len(values) < 2:
            continue
        s = stats.spread(values)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "yes" if s["iqr_share"] < bound / 3 else (
                "within bound" if s["iqr_share"] <= bound else "NO")
            if name != "setup_s":
                worst = max(worst, s["iqr_share"] / bound)
        print(f"{name:34} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
              f"{s['iqr_share']:8.3f} {bound if bound is not None else '':>6}  {verdict}")
    shares = [run["result"]["failed"] / run["result"]["attempted"] for run in runs]
    print(f"\nfailed share per run: {sorted(set(shares))}")
    if bounds:
        print(f"largest spread / bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
