"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import collections
import contextlib
import functools
import io
import json
import shutil
import subprocess
import sys
import time
import types
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402
from bosonfermion import cli  # noqa: E402


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    code = raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            raised = type(exc).__name__
    return code, out.getvalue(), err.getvalue(), raised


# --- the request stream --------------------------------------------------------

def test_same_seed_same_stream():
    assert workloads.request_stream(7, 0) == workloads.request_stream(7, 0)
    assert workloads.request_stream(7, 0) != workloads.request_stream(8, 0)
    assert workloads.request_stream(7, 0) != workloads.request_stream(7, 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mix_covers_every_subcommand_and_error_class(seed):
    stream = workloads.request_stream(seed, 0)
    assert len(stream) == workloads.SESSION_REQUESTS
    counts = collections.Counter(r["kind"] for r in stream)
    assert set(counts) == set(workloads.KINDS) | {"malformed"}
    shares = [counts[kind] for kind in workloads.KINDS]
    assert max(shares) - min(shares) <= 1  # no kind is weighted above another
    assert {r["argv"][0] for r in stream} == {"schur", "apply", "correspond", "inner", "localize",
                                              "frobnicate"}
    maps = {arg for r in stream if r["argv"][0] == "correspond" for arg in r["argv"][1:3]}
    assert {"sigma", "sigma-inverse", "tau", "eta", "eta-inverse", "phi", "phi-inverse", "chain"} <= maps
    expects = {r["expect"] for r in stream}
    assert {"fermion", "quiver", "boson", "localized", "chain", "value-json", "json"} <= expects
    assert {r["error_class"] for r in stream if r["kind"] == "malformed"} == set(workloads.ERROR_CLASSES)
    malformed = sum(r["kind"] == "malformed" for r in stream)
    assert 0.03 < malformed / len(stream) < 0.07
    assert any("--json" in r["argv"] for r in stream)


def test_stream_partitions_stay_within_max_size():
    for request in workloads.request_stream(3, 0):
        for arg in request["argv"]:
            if arg.startswith("["):
                inner = arg[1:-1]
                if inner and all(p.isdigit() for p in inner.split(",")):
                    assert sum(map(int, inner.split(","))) <= workloads.MAX_SIZE


def test_generator_combinatorics():
    assert [len(workloads.partitions(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert workloads.hook_product((2, 1)) == 3
    assert workloads.hook_product((3, 1)) == 8
    assert workloads.z_factor((2, 1, 1)) == 4
    assert workloads.monomial_text(workloads.Fraction(-9), 6) == "-9*t^6"


# --- the gate --------------------------------------------------------------------

@functools.cache
def stream(seed):
    return workloads.request_stream(seed, 0)


@pytest.mark.parametrize("index", range(0, workloads.SESSION_REQUESTS, 50))
def test_gate_accepts_live_responses(index):
    request = stream(11)[index]
    if request["kind"] in ("apply-localized", "correspond-phi-inverse", "correspond-sigma-inverse"):
        pytest.skip("slow cold Schur expansion; covered by the benchmark run")
    assert workloads.check_response(request, *call(request["argv"])) is None


def test_gate_rejects_wrong_responses():
    schur = {"argv": ["schur", "[2,1]"], "expect": "boson"}
    good = "(1/3)*p1^3 + (-1/3)*p3\n"
    assert workloads.check_response(schur, 0, good, "", None) is None
    assert workloads.check_response(schur, 0, "(1/3)*p1^3 +  (-1/3)*p3\n", "", None)  # not canonical
    assert workloads.check_response(schur, 0, "(1/3)*p1^3 +\n", "", None)  # does not parse
    assert workloads.check_response(schur, 0, good + good, "", None)  # two lines
    assert workloads.check_response(schur, 1, good, "", None)  # wrong exit code
    assert workloads.check_response(schur, None, "", "", "KeyError")  # exception

    euler = {"argv": ["localize", "euler", "[2,1]"], "expect": "scalar", "oracle": "-9*t^6"}
    assert workloads.check_response(euler, 0, "-9*t^6\n", "", None) is None
    assert workloads.check_response(euler, 0, "9*t^6\n", "", None)

    chain = {"argv": ["correspond", "chain", "phi[1]", "--json"], "expect": "chain"}
    ok = {"chain": "p1", "sigma": "p1", "equal": True}
    assert workloads.check_response(chain, 0, json.dumps(ok) + "\n", "", None) is None
    assert workloads.check_response(chain, 0, json.dumps({**ok, "equal": False}) + "\n", "", None)

    usage = {"argv": ["schur", "[1,3]"], "expect": "usage"}
    assert workloads.check_response(usage, *call(usage["argv"])) is None
    assert workloads.check_response(usage, 0, good, "", None)
    assert workloads.check_response(usage, 2, "", "oops\n", None)


class FakeCli:
    """Records what it is sent; answers every usage probe with exit 2 when
    ``comply`` is set, and with exit 0 otherwise."""

    def __init__(self, comply):
        self.comply = comply
        self.sent = []

    def main(self, argv):
        self.sent.append(argv)
        if not self.comply:
            return 0
        if argv[:2] == ["correspond", "tau"]:
            print("t*1@[1]")
            return 0
        print("error: refused", file=sys.stderr)
        return 2


@pytest.mark.parametrize("comply", [False, True])
def test_known_defects_are_sent_and_gated(comply):
    import child

    fake = FakeCli(comply)
    recorder = spans.SpanRecorder()
    violations = child.probe_defects(fake, workloads, recorder)
    assert fake.sent == [r["argv"] for r in workloads.KNOWN_DEFECTS]
    assert len(violations) == (0 if comply else len(workloads.KNOWN_DEFECTS))
    assert recorder.paused and len(recorder.start) == 0  # kept out of the traced spans


# --- spans -----------------------------------------------------------------------

def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > a [5, 9] > b [6, 8.5]
    names = ["root", "a", "b"]
    name_id = array("i", [0, 1, 2, 1, 2])
    parent = array("i", [-1, 0, 1, 0, 3])
    start = array("d", [0.0, 1.0, 2.0, 5.0, 6.0])
    end = array("d", [10.0, 4.0, 3.0, 9.0, 8.5])
    totals = spans.span_totals(names, name_id, parent, start, end)
    assert totals["root"] == {"calls": 1, "self_s": 3.0}
    assert totals["a"] == {"calls": 2, "self_s": 3.5}
    assert totals["b"] == {"calls": 2, "self_s": 3.5}
    assert sum(t["self_s"] for t in totals.values()) == 10.0


def test_recorder_folds_same_name_spans_and_keeps_self_time():
    recorder = spans.SpanRecorder()

    def leaf():
        time.sleep(0.002)

    leaf_w = recorder.wrap("leaf", leaf)

    def inner(n):
        return inner_w(n - 1) if n else leaf_w()

    inner_w = recorder.wrap("inner", inner)
    root = recorder.open("root")
    inner_w(3)
    recorder.paused = True
    inner_w(2)
    recorder.paused = False
    recorder.close(root)
    totals = recorder.totals()
    assert totals["inner"]["calls"] == 1  # the recursion folds into one span
    assert totals["leaf"]["calls"] == 1  # nothing recorded while paused
    assert totals["leaf"]["self_s"] >= 0.002
    total = sum(t["self_s"] for t in totals.values())
    assert total == pytest.approx(recorder.end[root] - recorder.start[root])


def test_instrument_wraps_every_binding():
    def schur(x):
        return x

    class TScalar:
        def __init__(self, value):
            self.value = value

    package = types.SimpleNamespace(
        scalars=types.SimpleNamespace(TScalar=TScalar),
        partitions=types.SimpleNamespace(),
        boson=types.SimpleNamespace(schur=schur),
        fermion=types.SimpleNamespace(),
        geometry=types.SimpleNamespace(schur=schur),
        correspondence=types.SimpleNamespace(),
        verify=types.SimpleNamespace(),
        cli=types.SimpleNamespace(_OPS={"s": schur}),
    )
    recorder = spans.SpanRecorder()
    spans.instrument(recorder, package)
    assert (package.boson.schur(1), package.geometry.schur(2), package.cli._OPS["s"](3)) == (1, 2, 3)
    TScalar(3)
    totals = recorder.totals()
    assert totals["boson.schur"]["calls"] == 3
    assert totals["scalars.tscalar_new"]["calls"] == 1


# --- run.py --------------------------------------------------------------------------

def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_percentile_is_nearest_rank():
    import run

    assert run.percentile(list(range(1, 101)), 0.99) == 99
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0  # nearest rank, not a mean


def test_end_to_end_takes_medians_over_units_of_distinct_streams(monkeypatch):
    import run

    walls = iter([0.3, 0.1, 0.2])

    def spawn(workload, seed, part, trace, mode, deadline):
        spawned.append((part, mode))
        unit = {"setup_s": 0.1 * (len(spawned) % 3 + 1), "raw_setup_s": 0.5, "peak_rss_mb": 20.0,
                "failures": [], "attempted": 2}
        if mode == "run":
            wall = next(walls)
            unit.update(latencies_s=[wall / 4, 3 * wall / 4], raw_latencies_s=[wall, wall],
                        peak_rss_mb=20.0 + 10 * wall)
        return unit

    spawned = []
    monkeypatch.setattr(run, "spawn", spawn)
    metrics, units = run.end_to_end("cli-session", 1, 0, time.monotonic())
    assert len(units) == run.MIN_UNITS
    assert [part for part, mode in spawned if mode == "run"] == [0, 1, 2]  # a stream each
    assert metrics["wall_s"]["value"] == pytest.approx(0.2)
    assert metrics["requests_per_s"]["value"] == pytest.approx(10.0)
    assert metrics["request_p99_ms"]["value"] == pytest.approx(150.0)
    assert metrics["peak_rss_mb"]["value"] == pytest.approx(22.0)
    assert metrics["setup_s"]["samples"] == 4 * run.MIN_UNITS
    assert metrics["wall_s"]["raw"] == pytest.approx(0.4)
    assert list(metrics) == list(run.UNITS)


# --- the host-speed probe ------------------------------------------------------------

def synthetic_probe(ends, durations):
    import probe

    synthetic = probe.Probe()
    synthetic.ends.extend(ends)
    synthetic.durations.extend(durations)
    return synthetic


def test_probe_factor_averages_speed_not_duration():
    import probe

    nominal = probe.NOMINAL_S
    # Samples every 10 ms; the host is twice as slow from t = 0.05 on.
    ends = [0.01 * i for i in range(11)]
    durations = [nominal if t < 0.05 else 2 * nominal for t in ends]
    synthetic = synthetic_probe(ends, durations)
    assert synthetic.factor(0.005, 0.035) == pytest.approx(1.0)
    assert synthetic.factor(0.035, 0.055) == pytest.approx(0.75)  # two samples each side of the switch
    assert synthetic.factor(0.055, 0.095) == pytest.approx(0.5)
    # Half the time slow: the work done is 0.75 of the fast rate's, the mean
    # of the speeds; the mean of the durations would give 1 / 1.5.
    assert synthetic.factor(0.0, 0.095) == pytest.approx((5 * 1.0 + 6 * 0.5) / 11)


def test_probe_factor_of_an_interval_between_samples_takes_its_neighbours():
    import probe

    synthetic = synthetic_probe([0.0, 0.01, 0.02], [probe.NOMINAL_S, 2 * probe.NOMINAL_S, 4 * probe.NOMINAL_S])
    assert synthetic.factor(0.012, 0.015) == pytest.approx((0.5 + 0.25) / 2)
    assert synthetic.factor(0.5, 0.6) == pytest.approx(0.25)  # after the last sample


def test_probe_samples_while_the_workload_runs():
    import probe

    sampler = probe.Probe()
    sampler.start()
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:
        sum(range(100))
    sampler.stop()
    assert 10 <= len(sampler.durations) <= 25
    assert list(sampler.ends) == sorted(sampler.ends)
    assert sampler.spent == pytest.approx(sum(sampler.durations))
    assert 0 < sampler.factor(sampler.ends[0], sampler.ends[-1]) < 2
