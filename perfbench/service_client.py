"""The client process of the service mix: one closed loop, two connections.

Drives a running ``fullview serve`` for ``--seconds`` in total, cut
into :data:`SLICES` slices of whole cycles.  The benchmark runs the
slices while the paper suite pauses between experiments (commands on
stdin), so the mix samples the host over the same span as the suite.
Each cycle has three phases:

- **cold**: five distinct bodies new to the server (deploy, evaluate,
  and point / area-fraction / grid-failure estimates), so each is
  computed (``source: computed``);
- **warm**: those five bodies again, :data:`WARM_REPEATS` times each,
  so each is a memory hit (``source: memory``);
- **coalesced**: :data:`COALESCED_PER_CYCLE` fresh bodies from the
  evaluate and estimate templates, each sent twice back to back on
  the two connections, the first before the second is sent, so one
  request leads and the other waits on it (``source: coalesced``).

The phases take turns within every cycle, so each phase's samples
spread over the whole run.  Callers wait for every reply (a closed
loop).  Cold, warm and ``/v1/stats`` requests go through the
program's :class:`~repro.service.client.ServiceClient`; only the
coalesced pairs need a second, raw connection.  After the last slice
the client recomputes every
distinct body with :mod:`repro.api` in this process and compares the
answers, checks each answer's ``source`` against its phase, and checks
the ``/v1/stats`` counter deltas: misses = cold requests + coalesced
leaders, coalesced = followers, memory hits = warm requests.  Results
go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.service.client import ServiceClient

SCHEMA = "fullview-api-v1"

#: The mix runs in this many slices: one at each pause of the suite
#: (which stops between experiments about every ``run.PAUSE_EVERY_S``
#: seconds) and the rest once the suite has exited.  The mix then
#: samples the host over the same ~40 s as the suite, instead of over
#: one few-second window whose host state moved the medians by 20-40%
#: from run to run.
SLICES = 8

#: Warm answers per cold body in each cycle.
WARM_REPEATS = 10

#: Coalesced pairs per cycle, taken in turn from :data:`COALESCED_ROUND`.
COALESCED_PER_CYCLE = 2

#: One cold round.  The four evaluate and estimate bodies are sized to
#: about the same compute (~20 ms on a 2-core host), so the cold p50
#: and p90 fall inside one tight cluster and move with the program, not
#: with which body type a rank happens to land on; deploy is cheap to
#: compute and ~20 KB to send back.
COLD_ROUND: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("deploy", {"radius": 0.1, "angle_of_view": 1.2, "n": 300}),
    ("evaluate", {"radius": 0.12, "angle_of_view": math.pi / 2, "n": 400,
                  "theta": math.pi / 3, "resolution": 30}),
    ("estimate", {"kind": "point", "radius": 0.15, "angle_of_view": math.pi / 2,
                  "n": 200, "theta": math.pi / 3, "trials": 66}),
    ("estimate", {"kind": "area_fraction", "radius": 0.15, "angle_of_view": math.pi / 2,
                  "n": 200, "theta": math.pi / 3, "trials": 7, "sample_points": 128}),
    ("estimate", {"kind": "grid_failure", "radius": 0.15, "angle_of_view": math.pi / 2,
                  "n": 200, "theta": math.pi / 3, "trials": 13, "max_grid_points": 256}),
)

#: Coalesced rounds leave deploy out: its compute is too short for the
#: second request to be sure to arrive while the first is in flight.
COALESCED_ROUND = COLD_ROUND[1:]

#: Body seeds of one run start at ``seed * SEED_STRIDE``, so runs with
#: different ``--seed`` never share a body.
SEED_STRIDE = 1_000_000


class BodySource:
    """Distinct bodies: the templates with a fresh ``seed`` field each."""

    def __init__(self, seed: int) -> None:
        self._next = seed * SEED_STRIDE

    def take(self, template: Dict[str, Any]) -> Dict[str, Any]:
        body = dict(template, schema=SCHEMA, seed=self._next)
        self._next += 1
        return body


def _stats(client: ServiceClient) -> Dict[str, int]:
    return dict(client.stats()["metrics"]["counters"])


def _delta(after: Dict[str, int], before: Dict[str, int], name: str) -> int:
    return after.get(name, 0) - before.get(name, 0)


def expected_result(endpoint: str, body: Dict[str, Any]) -> Dict[str, Any]:
    """The answer for ``body``, computed here through :mod:`repro.api`."""
    from repro import api

    if endpoint == "deploy":
        fleet = api.deploy(radius=body["radius"], angle_of_view=body["angle_of_view"],
                           n=body["n"], seed=body["seed"], build_index=False)
        return {"n": len(fleet), "positions": fleet.positions.tolist(),
                "orientations": fleet.orientations.tolist()}
    if endpoint == "evaluate":
        fleet = api.deploy(radius=body["radius"], angle_of_view=body["angle_of_view"],
                           n=body["n"], seed=body["seed"])
        result = api.evaluate_grid(fleet=fleet, theta=body["theta"],
                                   resolution=body["resolution"])
        return {"fraction": result.fraction, "num_covered": result.num_covered,
                "num_points": len(result)}
    options = {key: body[key] for key in ("trials", "sample_points", "max_grid_points")
               if key in body}
    value = api.estimate(kind=body["kind"], radius=body["radius"],
                         angle_of_view=body["angle_of_view"], n=body["n"],
                         theta=body["theta"], seed=body["seed"], **options)
    if body["kind"] == "area_fraction":
        mean, half_width = value
        return {"mean": float(mean), "ci_half_width": float(half_width)}
    return {"successes": value.successes, "trials": value.trials,
            "proportion": value.proportion}


def answered_result(endpoint: str, result: Dict[str, Any]) -> Dict[str, Any]:
    """The fields of a wire answer that :func:`expected_result` covers."""
    if endpoint == "deploy":
        return {key: result[key] for key in ("n", "positions", "orientations")}
    if endpoint == "evaluate":
        return {key: result[key] for key in ("fraction", "num_covered", "num_points")}
    estimate = result["estimate"]
    keys = ("mean", "ci_half_width") if "mean" in estimate else (
        "successes", "trials", "proportion")
    return {key: estimate[key] for key in keys}


class ServiceMix:
    """The client's state across slices: connections, bodies, answers."""

    def __init__(self, host: str, port: int, seed: int) -> None:
        self.client = ServiceClient(host, port)
        # The coalesced pairs' leader goes out on this connection while
        # the client's own waits for the follower's answer.
        self.lead = http.client.HTTPConnection(host, port, timeout=60)
        self.source = BodySource(seed)
        self.answers: List[Tuple[str, str, Dict[str, Any], int, Dict[str, Any]]] = []
        self.latency: Dict[str, List[float]] = {"cold": [], "warm": [], "coalesced": []}
        self.warm_wall = 0.0
        self.cycles = 0
        self.stats = [_stats(self.client)]

    def _answer(self, phase: str, endpoint: str, body: Dict[str, Any], status: int,
                payload: Dict[str, Any], elapsed_s: float) -> None:
        """Keep an answer; time it only if it is a good one of its phase."""
        self.answers.append((phase, endpoint, body, status, payload))
        if status == 200 and (phase != "coalesced" or payload.get("source") == "coalesced"):
            self.latency[phase].append(elapsed_s * 1e3)

    def _one(self, phase: str, endpoint: str, body: Dict[str, Any]) -> None:
        start = time.perf_counter()
        status, payload = self.client.post(endpoint, body)
        self._answer(phase, endpoint, body, status, payload, time.perf_counter() - start)

    def _pair(self, endpoint: str, body: Dict[str, Any]) -> None:
        """Send ``body`` twice at once: on the raw connection, then
        through the client, whose call returns with its answer."""
        lead_sent = time.perf_counter()
        self.lead.request("POST", f"/v1/{endpoint}", body=json.dumps(body).encode(),
                          headers={"Content-Type": "application/json"})
        self._one("coalesced", endpoint, body)
        response = self.lead.getresponse()
        payload = json.loads(response.read())
        self._answer("coalesced", endpoint, body, response.status, payload,
                     time.perf_counter() - lead_sent)

    def cycle(self) -> None:
        """One cold round, its warm repeats, then the coalesced pairs."""
        cold = [(endpoint, self.source.take(template)) for endpoint, template in COLD_ROUND]
        for endpoint, body in cold:
            self._one("cold", endpoint, body)
        warm_start = time.perf_counter()
        for _ in range(WARM_REPEATS):
            for endpoint, body in cold:
                self._one("warm", endpoint, body)
        self.warm_wall += time.perf_counter() - warm_start
        for k in range(COALESCED_PER_CYCLE):
            index = (self.cycles * COALESCED_PER_CYCLE + k) % len(COALESCED_ROUND)
            endpoint, template = COALESCED_ROUND[index]
            self._pair(endpoint, self.source.take(template))
        self.cycles += 1

    def run_for(self, seconds: float) -> None:
        """Whole cycles until ``seconds`` have passed (at least one)."""
        start = time.perf_counter()
        while True:
            self.cycle()
            if time.perf_counter() - start >= seconds:
                return

    def close(self) -> Dict[str, Any]:
        """Read the final counters, close the connections, return the run."""
        self.stats.append(_stats(self.client))
        self.client.close()
        self.lead.close()
        return {"answers": self.answers, "latency": self.latency,
                "warm_wall": self.warm_wall, "stats": self.stats,
                "pairs": self.cycles * COALESCED_PER_CYCLE, "cycles": self.cycles}


#: The ``/v1/stats`` counters whose change over the whole mix is reported.
REPORTED_COUNTERS = ("service_cache_hits", "service_cache_misses", "service_coalesced")


def verify(run: Dict[str, Any]) -> Tuple[int, int, List[str]]:
    """Check every answer; return (operations attempted, failed, problems).

    An answer with an HTTP error status is a failed operation; a wrong
    answer, a wrong ``source`` or a stats delta off by one is a problem.
    """
    problems: List[str] = []
    failed = 0
    expected: Dict[str, Dict[str, Any]] = {}
    phase_sources = {"cold": "computed", "warm": "memory"}
    coalesced_sources: Dict[str, List[str]] = {}
    for phase, endpoint, body, status, payload in run["answers"]:
        key = json.dumps([endpoint, body], sort_keys=True)
        if status != 200:
            failed += 1
            continue
        got = payload.get("source")
        if phase == "coalesced":
            coalesced_sources.setdefault(key, []).append(got)
        elif got != phase_sources[phase]:
            problems.append(f"{phase} {endpoint} seed={body['seed']}: source {got!r}")
        if key not in expected:
            expected[key] = expected_result(endpoint, body)
        if answered_result(endpoint, payload["result"]) != expected[key]:
            problems.append(f"{phase} {endpoint} seed={body['seed']}: answer differs from repro.api")
    for key, sources in coalesced_sources.items():
        if sorted(sources) != ["coalesced", "computed"]:
            problems.append(f"coalesced pair {key}: sources {sources}")

    phases = [answer[0] for answer in run["answers"]]
    cold, warm = phases.count("cold"), phases.count("warm")
    pairs = run["pairs"]
    before, after = run["stats"]
    checks = {
        "misses (cold + coalesced leaders)": (
            _delta(after, before, "service_cache_misses"), cold + pairs),
        "memory hits (warm)": (_delta(after, before, "service_cache_hits_memory"), warm),
        "coalesced (followers)": (_delta(after, before, "service_coalesced"), pairs),
    }
    for label, (measured, want) in checks.items():
        if measured != want:
            problems.append(f"/v1/stats {label}: delta {measured}, expected {want}")
    return cold + warm + 2 * pairs, failed, problems


def server_peak_rss_kb(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--server-pid", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import repro.api  # noqa: F401  (imported before the mix, not inside it)

    mix = ServiceMix(args.host, args.port, args.seed)
    print("ready", flush=True)
    slice_s = args.seconds / SLICES
    done = 0
    # Commands on stdin: "slice" runs one slice now (while the suite
    # pauses), "end" runs the slices still owed and finishes.
    for line in sys.stdin:
        command = line.strip()
        if command == "slice" and done < SLICES - 1:
            mix.run_for(slice_s)
            done += 1
        elif command == "end":
            while done < SLICES:
                mix.run_for(slice_s)
                done += 1
            break
        print("done", flush=True)
    run = mix.close()
    rss_kb = server_peak_rss_kb(args.server_pid)
    attempted, failed, problems = verify(run)
    Path(args.out).write_text(json.dumps({
        "latency": run["latency"],
        "warm_wall": run["warm_wall"],
        "cycles": run["cycles"],
        "pairs": run["pairs"],
        "counters": {name: _delta(run["stats"][-1], run["stats"][0], name)
                     for name in REPORTED_COUNTERS},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "server_peak_rss_kb": rss_kb,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
