"""Tests for the benchmark harness itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import types
from pathlib import Path

import pytest

import oracle
import run
import stats
from tracer import Tracer, interval_union

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNIT = r"^[A-Za-z0-9_/%.-]{1,16}$"


# -- nearest-rank percentiles and spreads ---------------------------------


def test_nearest_rank_on_one_to_ten():
    values = list(range(10, 0, -1))
    assert stats.nearest_rank(values, 50) == 5
    assert stats.nearest_rank(values, 90) == 9
    assert stats.nearest_rank(values, 99) == 10
    assert stats.nearest_rank(values, 100) == 10
    assert stats.nearest_rank(values, 1) == 1


def test_nearest_rank_returns_a_sample_not_an_interpolation():
    assert stats.nearest_rank([1.0, 2.0], 50) == 1.0
    assert stats.nearest_rank([3.0], 99) == 3.0


@pytest.mark.parametrize("bad", [0, -1, 101])
def test_nearest_rank_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], bad)


def test_nearest_rank_rejects_no_samples():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


def test_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 20.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    s = stats.spread(values)
    assert (s["q1"], s["median"], s["q3"]) == (q1, med, q3)
    assert s["iqr_share"] == pytest.approx((q3 - q1) / med)


# -- metric names and BENCHMARK.json --------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "exp.EQ2-MC_s", "kernel.dense.pairs", "9lives"])
def test_metric_name_accepts(name):
    assert stats.METRIC_NAME.match(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "é"])
def test_metric_name_rejects(name):
    assert not stats.METRIC_NAME.match(name)


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_benchmark_json_workloads_match_the_runner():
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert stats.METRIC_NAME.match(workload["name"])
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [w["name"] for w in SPEC["workloads"]] == sorted(run.WORKLOADS)


def test_benchmark_json_metrics_are_well_formed():
    import re

    names = [w["name"] for w in SPEC["workloads"]]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert stats.METRIC_NAME.match(metric["name"])
        assert re.match(UNIT, metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _fake_suite_and_service():
    exp_s = {"FIG7": 0.1, "CONN": 2.0}
    layer = {name: 1.0 for name in (
        "deploy.calls", "deploy.s", "spatial.index_s", "spatial.query_s",
        "spatial.candidate_pairs", "torus.displacements.calls", "torus.displacements.s",
        "torus.displacements.bytes", "batch.max_gaps.s", "full_view.scalar.calls",
        "full_view.scalar.s", "analysis.connectivity.s", "barrier.grid_barrier.s",
        "resilience.lifetime.s", "planning.orientation_opt.s", "engine.trials",
        "engine.serial.s", "engine.thread.s", "engine.process.s", "engine.overhead_s",
        "payload.bytes_shipped", "estimator.calls", "estimator.s")}
    for kind in ("dense", "sparse"):
        for suffix in ("calls", "s", "pairs", "dispatched"):
            layer[f"kernel.{kind}.{suffix}"] = 1.0
    suite = {
        "import_s": 1.0,
        "rss_kb": {"self": 1024, "descendants": [1024]},
        "passes": [
            {"wall_s": 3.0, "exp_s": exp_s},
            {"wall_s": 2.5, "exp_s": exp_s},
            {"wall_s": 2.6, "exp_s": exp_s, "layers": layer},
        ],
    }
    service = {
        "latency": {"cold": [20.0] * 5, "warm": [1.0] * 5, "coalesced": [21.0] * 3},
        "warm_wall": 0.5,
        "ready_s": 1.5,
        "server_peak_rss_kb": 2048,
        "counters": {"service_cache_hits": 5, "service_cache_misses": 8, "service_coalesced": 3},
        "layers": {"seconds": {}, "handler": [{"seconds": 0.0004, "source": "memory"}]},
    }
    return suite, service


def test_runner_reports_exactly_the_declared_end_to_end_metrics():
    suite, service = _fake_suite_and_service()
    metrics = run.end_to_end([1.0, 2.0, 3.0], suite, service)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared


def test_runner_reports_exactly_the_declared_per_layer_metrics():
    suite, service = _fake_suite_and_service()
    metrics = run.per_layer(suite, service, 0.5)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    exp_ids = {name for name in declared if name.startswith("exp.")}
    reported = {name: unit for name, (_, unit) in metrics.items()}
    # The fake suite has two experiments; the real one has all of them.
    assert {n for n in reported if n.startswith("exp.")} == {"exp.FIG7_s", "exp.CONN_s"}
    assert {"exp.FIG7_s", "exp.CONN_s"} <= exp_ids
    assert {n: u for n, u in reported.items() if not n.startswith("exp.")} == {
        n: u for n, u in declared.items() if not n.startswith("exp.")}


def test_per_layer_experiments_match_the_reference():
    reference = json.loads(run.REFERENCE.read_text())["digests"]
    declared = {m["name"] for m in SPEC["per_layer"] if m["name"].startswith("exp.")}
    assert declared == {f"exp.{exp_id}_s" for exp_id in reference}
    assert len(reference) == 23


# -- the oracle at hand-computed points -----------------------------------


def test_csa_at_pi_is_eq19():
    # (ln 100 + ln ln 100) / 100, by hand: (4.605170 + 1.527180) / 100.
    assert oracle.csa(100, math.pi, "necessary") == pytest.approx(0.0613234981179599, rel=1e-12)
    assert oracle.eq19_area(100) == pytest.approx(0.0613234981179599, rel=1e-12)


def test_csa_sufficient_at_pi():
    # K_S = 2: -(2/100) ln(1 - sqrt(1 - 1/(100 ln 100))).
    assert oracle.csa(100, math.pi, "sufficient") == pytest.approx(0.1364990736332173, rel=1e-12)


def test_sector_counts_stay_on_integers():
    assert oracle.sector_count(math.pi / 3, "necessary") == 3
    assert oracle.sector_count(math.pi / 4, "sufficient") == 8
    assert oracle.sector_count(0.9, "necessary") == 4


def test_uniform_success_single_group():
    # theta = pi/2, r = 0.2, phi = pi/2: s = 0.01 pi, p = 0.005 pi,
    # success = (1 - (1 - p)^100)^2 with K_N = 2.
    profile = ((0.2, math.pi / 2, 1.0),)
    assert oracle.uniform_success(profile, 100, math.pi / 2, "necessary") == pytest.approx(
        0.6315419265852575, rel=1e-12)


def test_poisson_success_single_group():
    # theta n s / pi = pi / 2, so success = (1 - e^(-pi/2))^2.
    profile = ((0.2, math.pi / 2, 1.0),)
    assert oracle.poisson_success(profile, 100, math.pi / 2, "necessary") == pytest.approx(
        0.6274547655622484, rel=1e-12)


def test_group_counts_largest_remainder():
    assert oracle.group_counts(201, [0.6, 0.4]) == [121, 80]
    assert oracle.group_counts(200, [0.6, 0.4]) == [120, 80]
    assert sum(oracle.group_counts(7, [1 / 3, 1 / 3, 1 / 3])) == 7


def _oracle_tables():
    def table(columns, rows):
        return [{"columns": columns, "rows": rows}]

    thetas = [(0.1 + 0.4 * i / 2) * math.pi for i in range(3)]
    profile = oracle.VALIDATION_PROFILE
    return {
        "FIG7": table(["theta_over_pi", "theta", "csa_necessary", "csa_sufficient"],
                      [[t / math.pi, t, oracle.csa(1000, t, "necessary"),
                        oracle.csa(1000, t, "sufficient")] for t in thetas]),
        "FIG8": table(["n", "csa_necessary", "csa_sufficient"],
                      [[n, oracle.csa(n, math.pi / 4, "necessary"),
                        oracle.csa(n, math.pi / 4, "sufficient")] for n in (100, 1000)]),
        "EQ19": table(["n", "csa_necessary_at_pi", "one_coverage_csa"],
                      [[n, oracle.eq19_area(n), oracle.eq19_area(n)] for n in (100, 1000)]),
        "EQ2-MC": table(["n", "theta", "theory_success"],
                        [[200, math.pi / 3,
                          oracle.uniform_success(profile, 200, math.pi / 3, "necessary")]]),
        "EQ13-MC": table(["n", "theta", "theory_success"],
                         [[200, math.pi / 3,
                           oracle.uniform_success(profile, 200, math.pi / 3, "sufficient")]]),
        "THM3-MC": table(["n", "theta", "theory_closed_form", "theory_series"],
                         [[200, math.pi / 3] + [oracle.poisson_success(
                             profile, 200, math.pi / 3, "necessary")] * 2]),
        "THM4-MC": table(["n", "theta", "theory_closed_form", "theory_series"],
                         [[200, math.pi / 3] + [oracle.poisson_success(
                             profile, 200, math.pi / 3, "sufficient")] * 2]),
    }


def test_check_tables_accepts_agreeing_tables():
    assert oracle.check_tables(_oracle_tables()) == []


def test_check_tables_reports_a_perturbed_theory_value():
    tables = _oracle_tables()
    tables["EQ13-MC"][0]["rows"][0][2] *= 1 + 1e-6
    problems = oracle.check_tables(tables)
    assert len(problems) == 1 and problems[0].startswith("EQ13-MC")


def test_check_tables_reports_a_missing_table():
    tables = _oracle_tables()
    del tables["THM4-MC"]
    assert oracle.check_tables(tables) == ["THM4-MC: no table to check"]


# -- the tracer -----------------------------------------------------------


@pytest.fixture
def fake_modules():
    def work(x):
        return work(x - 1) + 1 if x else 0

    home = types.ModuleType("repro._perfbench_fake_home")
    home.work = work
    consumer = types.ModuleType("repro._perfbench_fake_consumer")
    consumer.work = work  # as `from home import work` leaves it
    names = [home.__name__, consumer.__name__]
    for module in (home, consumer):
        sys.modules[module.__name__] = module
    try:
        yield home, consumer, work
    finally:
        for name in names:
            sys.modules.pop(name, None)


def test_tracer_wraps_consumer_bindings_and_restores_them(fake_modules):
    home, consumer, work = fake_modules
    tracer = Tracer()
    tracer.install_function(home.__name__, "work", "fake.work")
    assert home.work is not work and consumer.work is home.work
    assert consumer.work(3) == 3
    assert home.work(2) == 2
    # Recursion inside one call is not counted again: two outermost calls.
    assert tracer.calls["fake.work"] == 2
    tracer.uninstall()
    assert home.work is work and consumer.work is work


def test_tracer_measures_and_keeps_spans():
    tracer = Tracer()
    wrapped = tracer.wrap("sum", sum, measure=lambda a, k, r: {"sum.items": len(a[0])},
                          keep_spans=True)
    assert wrapped([1, 2, 3]) == 6
    assert tracer.counts["sum.items"] == 3
    assert len(tracer.spans) == 1 and tracer.spans[0][0] == "sum"


def test_tracer_times_generators_while_they_run():
    tracer = Tracer()

    def gen():
        yield 1
        yield 2

    wrapped = tracer.wrap("gen", gen)
    assert list(wrapped()) == [1, 2]
    assert tracer.calls["gen"] == 1 and tracer.seconds["gen"] >= 0.0


def test_interval_union_merges_and_clips():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)]
    assert interval_union(intervals, 0.0, 10.0) == pytest.approx(3.0 + 1.0 + 1.0)
    assert interval_union([], 0.0, 1.0) == 0.0


# -- spawn safety ---------------------------------------------------------


@pytest.mark.parametrize(
    "script", ["suite_child.py", "run.py", "service_client.py", "serve_host.py", "make_reference.py"])
def test_entry_points_do_nothing_when_imported_as_mp_main(script):
    # forkserver and spawn workers import the parent's main module under
    # this name; an entry point that acted on import would re-run its work
    # in every pool worker.
    import subprocess

    code = (
        "import runpy, sys\n"
        f"sys.argv = ['{script}']\n"
        f"runpy.run_path({str(ROOT / 'perfbench' / script)!r}, run_name='__mp_main__')\n"
        "print('imported')\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench", env=run.child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "imported\n"


# -- the harness's own plumbing -------------------------------------------


def test_make_reference_command_parses_as_a_plain_serial_pass(tmp_path):
    import make_reference
    import suite_child

    argv = make_reference.reference_command(tmp_path / "suite.json")
    assert argv[:2] == [sys.executable, str(ROOT / "perfbench" / "suite_child.py")]
    args = suite_child.build_parser().parse_args(argv[2:])
    assert (args.workers, args.traced, args.pause_every) == (0, False, 0.0)


def test_a_hung_child_is_killed_at_the_run_deadline(monkeypatch):
    import time

    monkeypatch.setattr(run, "_deadline", time.monotonic() + 0.5)
    began = time.monotonic()
    proc = run.start([sys.executable, "-c", "import time; time.sleep(60)"], run.child_env())
    try:
        with pytest.raises(run.CheckFailed):
            run.wait_line(proc, "^never")
    finally:
        run.stop(proc)
    assert time.monotonic() - began < 30


def test_a_failed_check_reports_a_failed_operation(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise run.CheckFailed("planted")

    monkeypatch.setattr(run, "setup_probe", lambda env: 1.0)
    monkeypatch.setattr(run, "run_workload", fail)
    code = run.main(["--workload", "paper_suite", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_only_good_answers_are_timed():
    import service_client

    mix = service_client.ServiceMix.__new__(service_client.ServiceMix)
    mix.answers, mix.latency = [], {"cold": [], "warm": [], "coalesced": []}
    mix._answer("cold", "deploy", {}, 200, {"source": "computed"}, 0.02)
    mix._answer("warm", "deploy", {}, 500, {"error": "boom"}, 0.001)
    mix._answer("coalesced", "evaluate", {}, 200, {"source": "computed"}, 0.03)
    mix._answer("coalesced", "evaluate", {}, 200, {"source": "coalesced"}, 0.03)
    assert mix.latency == {"cold": [20.0], "warm": [], "coalesced": [30.0]}
    assert len(mix.answers) == 4
