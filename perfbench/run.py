"""fullview benchmark: the paper suite, serial or at 2 workers, and the service mix.

Usage::

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 5 --trace 0

Workloads (see README.md beside this file):

- ``paper_suite``: all registered experiments in quick mode at seed 0,
  ``workers`` unset, in a fresh interpreter, and the service mix;
- ``paper_suite_w2``: the same with ``workers=2`` and the auto
  executor, and the same service mix.

The service mix runs against ``fullview serve`` (memory cache, default
engine policy) in slices: one each time the suite pauses between
experiments, the rest after the suite process has exited, so the mix
never shares the cores with a busy suite.  ``--seed`` picks the
service bodies (every experiment runs at its seed 0, in sorted order);
``--seconds`` is the total length of the mix (a suite pass is one
indivisible round and takes longer).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is the
traced run: the suite process runs every experiment three times in a
row (untraced, then untraced and traced in alternating order), and the
server runs with the service wrappers installed.  It prints the
per-layer metrics.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
check makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import oracle  # noqa: E402
import stats  # noqa: E402
from suite_child import LEDGER_ENV  # noqa: E402

#: Workload name -> ``workers`` passed to every experiment (None = unset).
WORKLOADS: Dict[str, Optional[int]] = {"paper_suite": None, "paper_suite_w2": 2}

#: Serial tables of every experiment at seed 0; regenerate with
#: ``python3 perfbench/make_reference.py``.
REFERENCE = HERE / "reference" / "serial_tables.json"

#: CLI cold-start probes per run, besides the suite process's own start.
SETUP_PROBES = 2

#: The core the server and the client of the service mix share.  In a
#: closed loop they never run at once, so one core serves both; left on
#: two cores, every request waits for a cross-core wake-up, which on a
#: 2-vCPU VM made warm latency 30-60% higher and more variable from run
#: to run (paired runs, same bodies).
SERVICE_CPU = 0

#: The suite pauses between experiments about this often, and the
#: client runs one slice of the service mix in each pause (see
#: ``service_client.SLICES``).
PAUSE_EVERY_S = 4.0

#: A run gives up this long after it started: each child still running
#: then is killed, and the run fails.
RUN_TIMEOUT_S = 170.0

_PROBE = (
    "import repro.cli\n"
    "from repro.experiments import all_experiments\n"
    "all_experiments()\n"
    "print('ready', flush=True)\n"
)


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


def child_env() -> Dict[str, str]:
    """The environment for program processes: ``src`` on the path, and no
    ``FULLVIEW_*`` overrides, so the engine uses its defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FULLVIEW_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def pinned_to(cpu: Optional[int]):
    """A ``preexec_fn`` that pins the child (and all its threads) to ``cpu``."""
    if cpu is None or cpu >= (os.cpu_count() or 1):
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


#: When the run gives up (``time.monotonic()``); ``main`` sets it.
_deadline = time.monotonic() + RUN_TIMEOUT_S


def remaining_s() -> float:
    return max(0.0, _deadline - time.monotonic())


def start(cmd: List[str], env: Dict[str, str], cpu: Optional[int] = None,
          commands: bool = False) -> subprocess.Popen:
    """Start ``cmd`` in the checkout with piped stdout (and stdin, for
    ``commands``).  A watchdog kills it at the run's deadline, so a hung
    child ends every read of its output."""
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        stdin=subprocess.PIPE if commands else subprocess.DEVNULL, preexec_fn=pinned_to(cpu),
    )
    proc.watchdog = threading.Timer(remaining_s(), proc.kill)
    proc.watchdog.daemon = True
    proc.watchdog.start()
    return proc


def wait_line(proc: subprocess.Popen, pattern: str) -> re.Match:
    """Read ``proc``'s stdout until a line matches ``pattern``."""
    while True:
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            raise CheckFailed(f"{proc.args[1]} exited ({proc.returncode}) before {pattern!r}")
        match = re.search(pattern, line)
        if match:
            return match


def send(proc: subprocess.Popen, command: str) -> None:
    proc.stdin.write(command + "\n")
    proc.stdin.flush()


def finish(proc: subprocess.Popen, what: str) -> None:
    """Wait for ``proc`` (the watchdog bounds the wait) and require exit
    code 0."""
    try:
        proc.wait()
    finally:
        proc.watchdog.cancel()
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                stream.close()
    if proc.returncode != 0:
        late = " (killed at the run's deadline)" if not remaining_s() else ""
        raise CheckFailed(f"{what} exited with code {proc.returncode}{late}")


def wait_ended(pids: List[int], timeout: float = 30.0) -> None:
    """Wait until each pid has exited (gone, or a zombie left to init).

    The suite process's forkserver and resource tracker outlive it by a
    moment: they exit when they see its end of their pipes close.
    """
    deadline = time.perf_counter() + timeout
    for pid in pids:
        while time.perf_counter() < deadline:
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                break
            if stat.rsplit(")", 1)[1].split()[0] == "Z":
                break
            time.sleep(0.01)
        else:
            raise CheckFailed(f"process {pid} of the suite still runs {timeout} s after it")


def stop(proc: Optional[subprocess.Popen]) -> None:
    """Kill ``proc`` if it still runs, and reap it."""
    if proc is None:
        return
    proc.watchdog.cancel()
    if proc.poll() is None:
        proc.kill()
        proc.wait()


def setup_probe(env: Dict[str, str]) -> float:
    began = time.perf_counter()
    proc = start([sys.executable, "-c", _PROBE], env)
    wait_line(proc, "^ready")
    seconds = time.perf_counter() - began
    finish(proc, "cold-start probe")
    return seconds


def scipy_stats_import_s(env: Dict[str, str]) -> float:
    """The ``scipy.stats`` share of the CLI import, from ``-X importtime``.

    The sum of the cumulative times of the outermost ``scipy.stats``
    modules in the import tree (the package's own line is missing when
    it is loaded through ``scipy``'s lazy attribute access).
    """
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=remaining_s(), check=True,
    )
    rows = []
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        if name == "scipy.stats" or name.startswith("scipy.stats."):
            rows.append((depth, int(parts[1])))
    if not rows:
        raise CheckFailed("scipy.stats missing from the -X importtime report")
    top = min(depth for depth, _ in rows)
    return sum(cumulative for depth, cumulative in rows if depth == top) / 1e6


# -- the suite -----------------------------------------------------------


def run_suite(workload: str, traced: bool, env: Dict[str, str], tag: str,
              on_pause) -> Dict[str, Any]:
    """Run the suite child, calling ``on_pause`` at each of its pauses;
    check its outputs; return its report."""
    reference = json.loads(REFERENCE.read_text())["digests"]
    order = sorted(reference)  # the suite child's order, once the registry matches
    out = OUT / f"{tag}-suite.json"
    ledger = OUT / f"{tag}-ledger.txt"
    ledger.write_text("")
    workers = WORKLOADS[workload]
    cmd = [sys.executable, str(HERE / "suite_child.py"), "--workers", str(workers or 0),
           "--out", str(out), "--pause-every", str(PAUSE_EVERY_S)]
    if traced:
        cmd += ["--traced", "--spans", str(OUT / f"{tag}-suite-spans.jsonl")]
    began = time.perf_counter()
    proc = start(cmd, dict(env, **{LEDGER_ENV: str(ledger)}), commands=True)
    try:
        wait_line(proc, "^ready")
        start_s = time.perf_counter() - began
        for line in proc.stdout:
            if line.strip() == "pause":
                on_pause()
                send(proc, "go")
        finish(proc, "suite process")
    finally:
        stop(proc)
    report = json.loads(out.read_text())
    report["start_s"] = start_s
    wait_ended(report["rss_kb"]["pids"])

    # Exactly once: one ledger line per experiment per pass, all from the
    # suite process itself (a pool worker that re-ran the suite on import
    # would add lines under its own pid).
    lines = [line.split() for line in ledger.read_text().splitlines()]
    expected = sorted((str(report["pid"]), run["label"], exp_id)
                      for run in report["passes"] for exp_id in order)
    if sorted(tuple(line) for line in lines) != expected:
        raise CheckFailed(f"experiments did not run exactly once per pass: {len(lines)} runs")
    if report["registry"] != sorted(reference):
        raise CheckFailed("the registry's experiments differ from the reference's; "
                          "regenerate it with perfbench/make_reference.py")

    for run in report["passes"]:
        if sorted(run["exp_s"]) != sorted(order):
            raise CheckFailed(f"pass {run['label']} ran {list(run['exp_s'])}")
        for exp_id in order:
            if run["failed_checks"][exp_id]:
                raise CheckFailed(f"{exp_id} failed its checks {run['failed_checks'][exp_id]}")
            if run["digests"][exp_id] != reference[exp_id]:
                raise CheckFailed(
                    f"{exp_id} tables differ from the serial reference in pass {run['label']}"
                )
    problems = oracle.check_tables(report["passes"][0]["tables"])
    if problems:
        raise CheckFailed("oracle: " + "; ".join(problems[:5]))
    return report


# -- the service mix -----------------------------------------------------


def _healthy(host: str, port: int) -> bool:
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    with ServiceClient(host, port, timeout=5) as client:
        try:
            client.healthz()
        except ServiceError:
            return False
    return True


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 env: Dict[str, str], tag: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The suite, with the service mix in slices at its pauses and after it.

    The server starts first and is idle while the suite runs; the client
    runs one slice of the mix each time the suite pauses between
    experiments, and the slices still owed after the suite has exited.
    """
    import repro.service.client  # noqa: F401  (imported before the server's start is timed)

    layers_out = OUT / f"{tag}-service-layers.json"
    client_out = OUT / f"{tag}-client.json"
    if traced:
        cmd = [sys.executable, str(HERE / "serve_host.py"), "--layers-out", str(layers_out),
               "--spans", str(OUT / f"{tag}-service-spans.jsonl"), "--port", "0"]
    else:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    began = time.perf_counter()
    server = start(cmd, env, cpu=SERVICE_CPU)
    client = None
    try:
        host, port = wait_line(server, r"listening on http://([\d.]+):(\d+)").groups()
        while not _healthy(host, int(port)):
            if time.perf_counter() - began > 60:
                raise CheckFailed("server never answered /v1/healthz")
            time.sleep(0.005)
        ready_s = time.perf_counter() - began
        client = start(
            [sys.executable, str(HERE / "service_client.py"), "--host", host, "--port", port,
             "--seed", str(seed), "--seconds", str(seconds), "--server-pid", str(server.pid),
             "--out", str(client_out)],
            env, cpu=SERVICE_CPU, commands=True,
        )
        wait_line(client, "^ready")

        def one_slice() -> None:
            send(client, "slice")
            wait_line(client, "^done")

        suite = run_suite(workload, traced, env, tag, one_slice)
        send(client, "end")
        finish(client, "service client")
        server.send_signal(signal.SIGTERM)
        finish(server, "server")
    finally:
        stop(client)
        stop(server)
    service = json.loads(client_out.read_text())
    service["ready_s"] = ready_s
    if service["problems"]:
        raise CheckFailed("service: " + "; ".join(service["problems"][:5]))
    if traced:
        service["layers"] = json.loads(layers_out.read_text())
    return suite, service


# -- metrics -------------------------------------------------------------


def end_to_end(setup: List[float], suite: Dict[str, Any], service: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    lat = service["latency"]
    rss = suite["rss_kb"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "suite_wall_s": (suite["passes"][0]["wall_s"], "s"),
        "peak_rss_mb": ((rss["self"] + sum(rss["descendants"])) / 1024.0, "MB"),
        "server_peak_rss_mb": (service["server_peak_rss_kb"] / 1024.0, "MB"),
        "cold_p50_ms": (stats.nearest_rank(lat["cold"], 50), "ms"),
        "cold_p90_ms": (stats.nearest_rank(lat["cold"], 90), "ms"),
        "warm_p50_ms": (stats.nearest_rank(lat["warm"], 50), "ms"),
        "warm_p99_ms": (stats.nearest_rank(lat["warm"], 99), "ms"),
        "warm_rps": (len(lat["warm"]) / service["warm_wall"], "answers/s"),
        "coalesced_p50_ms": (stats.nearest_rank(lat["coalesced"], 50), "ms"),
    }


def per_layer(suite: Dict[str, Any], service: Dict[str, Any], scipy_s: float) -> Dict[str, Tuple[float, str]]:
    first, second, traced = suite["passes"]  # U0, U1, T1
    out: Dict[str, Tuple[float, str]] = {
        "cli.import_s": (suite["import_s"], "s"),
        "cli.import_scipy_stats_s": (scipy_s, "s"),
        "experiments.first_pass_extra_s": (first["wall_s"] - second["wall_s"], "s"),
        "obs.trace_overhead_pct": (
            100.0 * (traced["wall_s"] - second["wall_s"]) / second["wall_s"], "%"),
    }
    for exp_id, seconds in sorted(first["exp_s"].items()):
        out[f"exp.{exp_id}_s"] = (seconds, "s")
    for name, value in traced["layers"].items():
        out[name] = (value, layers.unit_of(name))

    svc = service["layers"]
    warm_handler = [h["seconds"] for h in svc["handler"] if h.get("source") == "memory"]
    counters = service["counters"]
    out.update({
        "service.ready_s": (service["ready_s"], "s"),
        "service.parse.s": (svc["seconds"].get("service.parse", 0.0), "s"),
        "service.cache_key.s": (svc["seconds"].get("service.cache_key", 0.0), "s"),
        "service.cache_get.s": (svc["seconds"].get("service.cache_get", 0.0), "s"),
        "service.compute.s": (svc["seconds"].get("service.compute", 0.0), "s"),
        "service.hop_ms": (
            stats.nearest_rank(service["latency"]["warm"], 50)
            - 1e3 * stats.nearest_rank(warm_handler, 50), "ms"),
        "service.cache_hits": (counters["service_cache_hits"], "count"),
        "service.cache_misses": (counters["service_cache_misses"], "count"),
        "service.coalesced": (counters["service_coalesced"], "count"),
    })
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    global _deadline
    _deadline = time.monotonic() + RUN_TIMEOUT_S
    OUT.mkdir(exist_ok=True)
    env = child_env()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    ticks = stats.cpu_ticks()
    # Byte-compile up front so every cold start below reads cached bytecode.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=remaining_s())
    traced = bool(args.trace)
    try:
        if traced:
            scipy_s = scipy_stats_import_s(env)
            suite, service = run_workload(args.workload, args.seed, args.seconds, True, env, tag)
            metrics = per_layer(suite, service, scipy_s)
        else:
            setup = [setup_probe(env) for _ in range(SETUP_PROBES)]
            suite, service = run_workload(args.workload, args.seed, args.seconds, False, env, tag)
            setup.append(suite["start_s"])
            metrics = end_to_end(setup, suite, service)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        # The run is one operation here, and it failed.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    bad = [name for name in metrics if not stats.METRIC_NAME.match(name)]
    if bad:
        raise SystemExit(f"perfbench: malformed metric names {bad}")
    attempted = len(suite["passes"]) * len(suite["passes"][0]["exp_s"]) + service["attempted"]
    print("host " + json.dumps(stats.host_facts(ticks)))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": service["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
