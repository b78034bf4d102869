"""One cold unit of a workload in a fresh interpreter: a whole verify grid, or
one cli-session stream.

    python3 perfbench/child.py WORKLOAD SEED PART TRACE MODE

PART selects the cli-session stream (workloads.request_stream); the verify
grids ignore it.  MODE "setup" stops once the package is imported and the
inputs exist.  MODE "run" then runs the unit and gates every response, and
on cli-session sends the known-defect probes after it.  TRACE 1 records
spans (perfbench/spans.py is imported only then).  A host-speed probe
(perfbench/probe.py) runs from the start of the process, and every latency
comes both as measured ("raw_latencies_s") and at the probe's nominal host
speed ("latencies_s").  The last line of stdout is one
JSON object; "ready" is the time.monotonic() reading when set-up finished,
which the parent subtracts from its own reading taken just before it started
this process.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]


class Timer:
    """Times intervals of the workload.  Each interval's raw time leaves out
    the time spent in the probe's handler, and ``calibrate`` scales it to the
    probe's nominal host speed once the probe has stopped (an interval's
    factor needs the sample that follows it)."""

    def __init__(self, probe):
        self.probe = probe
        self.intervals: list[tuple[float, float, float]] = []  # start, end, raw

    def begin(self) -> tuple[float, float]:
        return time.perf_counter(), self.probe.spent

    def end(self, mark: tuple[float, float]) -> None:
        end = time.perf_counter()
        start, spent = mark
        self.intervals.append((start, end, end - start - (self.probe.spent - spent)))

    def raw(self) -> list[float]:
        return [raw for _, _, raw in self.intervals]

    def calibrate(self) -> list[float]:
        return [raw * self.probe.factor(start, end) for start, end, raw in self.intervals]


def _call_cli(cli, argv, recorder, timer=None):
    """Run cli.main(argv) as a console invocation would, capturing its output."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    code = raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        root = recorder.open("cli.request") if recorder else None
        mark = timer.begin() if timer else None
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors exit 2
            code = exc.code
        except Exception as exc:  # a contract violation: counted, not fatal
            raised = type(exc).__name__
        if timer:
            timer.end(mark)
        if recorder:
            recorder.close(root)
    return code, out.getvalue(), err.getvalue(), raised


def _gate(workloads, recorder, request, response):
    if recorder:
        recorder.paused = True  # the gate's own parsing is not the CLI's
    try:
        return workloads.check_response(request, *response)
    finally:
        if recorder:
            recorder.paused = False


def run_verify(verify, grid, recorder, timer) -> dict:
    """Runs the grid; each suite is one interval of ``timer``."""
    suites = []
    for name, size, index, charge in grid:
        root = recorder.open("verify." + name) if recorder else None
        mark = timer.begin()
        results = verify.run_suite(name, size, index, charge)
        timer.end(mark)
        if recorder:
            recorder.close(root)
        suites.append({
            "suite": name,
            "checks": sum(r.checked for r in results),
            "failed": [f"{r.name}: {r.counterexample}" for r in results if not r.passed],
            "empty": [r.name for r in results if r.checked == 0],
        })
    failures = [f for s in suites for f in s["failed"]]
    failures += [f"{name}: no checks ran" for s in suites for name in s["empty"]]
    return {
        "attempted": sum(s["checks"] for s in suites),
        "failures": failures,
        "suites": {s["suite"]: {"checks": s["checks"]} for s in suites},
    }


def run_session(cli, workloads, stream, recorder, timer) -> dict:
    """Serves the stream; each request is one interval of ``timer``, and the
    gate runs between them."""
    failures = []
    for request in stream:
        response = _call_cli(cli, request["argv"], recorder, timer)
        reason = _gate(workloads, recorder, request, response)
        if reason is not None:
            failures.append(f"{reason} <- bosonfermion {' '.join(request['argv'])}")
    return {
        "attempted": len(stream),
        "failures": failures,
    }


def probe_defects(cli, workloads, recorder) -> list[str]:
    """Send the known-defect requests outside the measured stream; returns
    those that still break the CLI contract."""
    if recorder:
        recorder.paused = True  # the probes are not part of the measured stream
    violations = []
    for request in workloads.KNOWN_DEFECTS:
        response = _call_cli(cli, request["argv"], None)
        reason = workloads.check_response(request, *response)
        if reason is not None:
            violations.append(f"{reason} <- bosonfermion {' '.join(request['argv'])}")
    return violations


def main(argv: list[str]) -> int:
    workload, seed, part, trace, mode = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1", argv[4]
    from probe import Probe

    probe = Probe()
    probe.start()
    import bosonfermion
    from bosonfermion import cli, verify

    import workloads

    if workload == "cli-session":
        inputs = workloads.request_stream(seed, part)
    else:
        inputs = workloads.GRIDS[workload]
    ready, ready_pc = time.monotonic(), time.perf_counter()
    setup_probe_s = probe.spent

    import json
    import resource

    if Path(bosonfermion.__file__).resolve().parent != SRC / "bosonfermion":
        probe.stop()
        print(f"imported bosonfermion from {bosonfermion.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    report = {
        "ready": ready,
        "setup_probe_s": setup_probe_s,
        "backend": bosonfermion.scalars.Rational.__module__,
    }
    timer = Timer(probe)
    if mode == "run":
        recorder = None
        if trace:
            import spans

            recorder = spans.SpanRecorder()
            spans.instrument(recorder, bosonfermion)
        if workload == "cli-session":
            report.update(run_session(cli, workloads, inputs, recorder, timer))
        else:
            report.update(run_verify(verify, inputs, recorder, timer))
        if recorder:
            report["spans"] = recorder.totals()
            report["caches"] = spans.cache_stats(bosonfermion)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe.stop()
    report["probe_samples"] = len(probe.durations)
    report["setup_factor"] = probe.factor(0.0, ready_pc)  # every sample of set-up
    report["raw_latencies_s"] = timer.raw()
    report["latencies_s"] = timer.calibrate()
    if workload == "cli-session" and mode == "run":
        report["contract_violations"] = probe_defects(cli, workloads, recorder)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
