"""bosonfermion benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src, never
from an installed copy.  Each unit of work runs in a fresh child interpreter
(perfbench/child.py), one at a time, so the memo tables start empty.  With
--trace 0 the run repeats cold units for S seconds (at least three), each
on its own cli-session stream, gates every response, and reports each
metric's median over the units, every time scaled to a fixed host speed by
the probe in perfbench/probe.py; with --trace 1 it runs one untraced and
one traced unit and reports the per-layer metrics.  The last line of stdout
is the result; the line before it is a report with the run's metadata,
sample counts and any failures.  See perfbench/README.md for the workloads
and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "bosonfermion"
WORKLOADS = ("verify-geometric", "verify-algebraic", "cli-session")
SUITES = ("clifford", "heisenberg-fermion", "heisenberg-boson", "heisenberg-geometric", "serre",
          "orthonormality", "correspondence", "commuting-square", "c2-toy", "euler")
MIN_UNITS = 3  # even past --seconds, so that every median is over three or more
SETUPS_PER_UNIT = 3  # set-up-only children after each unit, spread over the run
HARD_LIMIT_S = 170.0  # every run ends within 180 s

sys.path.insert(0, str(HERE))


class RunError(Exception):
    pass


def spawn(workload: str, seed: int, part: int, trace: bool, mode: str, deadline: float) -> dict:
    # Byte code is cached next to the sources, inside the checkout, as it is
    # for an installed package; an untimed set-up writes it first.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(part), str(int(trace)), mode]
    started = time.monotonic()
    if deadline <= started:
        raise RunError("out of time before the last unit")
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=deadline - started)
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} unit did not finish within {deadline - started:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"{workload} unit exited {proc.returncode}:\n{proc.stderr.strip()[-3000:]}")
    data = json.loads(proc.stdout.splitlines()[-1])
    data["raw_setup_s"] = data["ready"] - started - data["setup_probe_s"]
    data["setup_s"] = data["raw_setup_s"] * data["setup_factor"]
    return data


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


UNITS = {"setup_s": "s", "wall_s": "s", "requests_per_s": "1/s", "request_p50_ms": "ms",
         "request_p99_ms": "ms", "peak_rss_mb": "MB"}


def unit_values(workload: str, unit: dict) -> dict[str, float]:
    """The end-to-end metrics of one unit, all but set-up."""
    latencies = unit["latencies_s"]
    wall = sum(latencies)
    if workload != "cli-session":
        latencies = [wall]  # one `verify` run is the request
    return {
        "wall_s": wall,
        "requests_per_s": len(latencies) / wall,
        "request_p50_ms": percentile(latencies, 0.5) * 1e3,
        "request_p99_ms": percentile(latencies, 0.99) * 1e3,
        "peak_rss_mb": unit["peak_rss_mb"],
    }


def end_to_end(workload: str, seed: int, seconds: int, start: float) -> tuple[dict, list[dict]]:
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    spawn(workload, seed, 0, False, "setup", hard)  # untimed: writes the byte code
    units, setups = [], []
    while len(units) < MIN_UNITS or time.monotonic() + round_s <= deadline:
        began = time.monotonic()
        # On cli-session each unit serves a stream of its own: the requests
        # at the p99 rank differ from stream to stream, and the median over
        # three or more streams varies far less from seed to seed than one.
        part = len(units)
        units.append(spawn(workload, seed, part, False, "run", hard))
        setups.append(units[-1])
        setups += [spawn(workload, seed, part, False, "setup", hard) for _ in range(SETUPS_PER_UNIT)]
        round_s = time.monotonic() - began
    per_unit = [unit_values(workload, unit) for unit in units]
    values = {name: statistics.median(v[name] for v in per_unit) for name in per_unit[0]}
    values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    metrics = {name: {"value": values[name], "unit": unit, "units": len(units)}
               for name, unit in UNITS.items()}
    metrics["setup_s"]["samples"] = len(setups)
    requests = len(units[0]["latencies_s"]) if workload == "cli-session" else 1
    for name in ("wall_s", "requests_per_s", "request_p50_ms", "request_p99_ms"):
        metrics[name]["requests_per_unit"] = requests
    # The same figures as measured, before scaling to the nominal host speed.
    metrics["wall_s"]["raw"] = statistics.median(sum(u["raw_latencies_s"]) for u in units)
    metrics["setup_s"]["raw"] = statistics.median(s["raw_setup_s"] for s in setups)
    return metrics, units


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    import spans  # span and cache names; untraced runs never import it

    out = []
    for span in spans.SPAN_NAMES:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower")]
    out += [(f"verify.{suite}.wall_s", "s", "lower") for suite in SUITES]
    out.append(("verify.checks", "count", "higher"))
    for module, fn in spans.CACHES:
        out += [(f"cache.{module}.{fn}.hit_ratio", "ratio", "higher"),
                (f"cache.{module}.{fn}.entries", "count", "lower")]
    out += [("trace.overhead_ratio", "ratio", "lower"), ("cli.contract_violations", "count", "lower")]
    return out


def per_layer(workload: str, seed: int, start: float) -> tuple[dict, list[dict]]:
    import spans

    hard = start + HARD_LIMIT_S
    spawn(workload, seed, 0, False, "setup", hard)  # untimed: writes the byte code
    plain = spawn(workload, seed, 0, False, "run", hard)
    traced = spawn(workload, seed, 0, True, "run", hard)
    values: dict[str, float] = {}
    for span in spans.SPAN_NAMES:
        row = traced["spans"].get(span, {"calls": 0, "self_s": 0.0})
        values[f"{span}.calls"] = row["calls"]
        values[f"{span}.self_s"] = row["self_s"]
    suites = dict(zip(plain.get("suites", {}), plain["latencies_s"]))
    for suite in SUITES:
        values[f"verify.{suite}.wall_s"] = suites.get(suite, 0.0)
    values["verify.checks"] = sum(s["checks"] for s in traced.get("suites", {}).values())
    for table, stats in traced["caches"].items():
        values[f"cache.{table}.hit_ratio"] = stats["hit_ratio"]
        values[f"cache.{table}.entries"] = stats["entries"]
    values["trace.overhead_ratio"] = sum(traced["latencies_s"]) / sum(plain["latencies_s"])
    values["cli.contract_violations"] = len(traced.get("contract_violations", []))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_names()}
    return metrics, [plain, traced]


def commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(str(path.relative_to(PACKAGE)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    try:
        if args.trace:
            metrics, units = per_layer(args.workload, args.seed, start)
        else:
            metrics, units = end_to_end(args.workload, args.seed, args.seconds, start)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(u["attempted"] for u in units)
    failures = [f for u in units for f in u["failures"]]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "backend": units[0]["backend"],
        "nproc": os.cpu_count(), "commit": commit(), "source_sha256": source_digest(),
        "units": len(units), "attempted": attempted, "failed": len(failures),
        "failure_ratio": len(failures) / attempted, "failures": failures[:20],
        "contract_violations": units[0].get("contract_violations", []),
        "run_s": time.monotonic() - start,
        "metrics": metrics,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
