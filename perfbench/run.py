"""Benchmark of the chromsym command line: expand, oracle and verify, end to end and by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload expand-n20 --seed 1 --seconds 20 --trace 0

Every ``chromsym`` call runs in a fresh interpreter (``child.py``), one at a
time, as a user of the command line pays for it.  A run repeats whole rounds
of its workload's calls until ``--seconds`` have passed.  The speed of a
shared host drifts by a third over minutes, so each call's time is scaled to
a fixed machine speed: the child times a reference computation that owes
nothing to chromsym right before and right after the call, and the call's
time is multiplied by ``REFERENCE_S`` over the mean of those two.  Each call
then counts with its median scaled time over the rounds.  Every output is
checked against the independent checker (``checker.py``), which never
imports chromsym; the oracle workloads are also compared with the family's
closed form, computed here outside any timing.

With ``--trace 0`` the run prints the end-to-end metrics.  With ``--trace 1``
it alternates untraced and traced rounds and prints the per-layer metrics of
the traced rounds and the tracing overhead; the spans of the traced rounds
are written to ``perfbench/out/``.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checker
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150
MIN_ROUNDS = 2
PROBES_PER_ROUND = 4  # extra set-up-only interpreters per round, for a steady setup_s
# The usual time of child.reference_s on the machine the bounds were set on
# (2 vCPUs of a shared 2.0 GHz Xeon, Python 3.11.7): scaled times read as
# seconds on that machine at its usual speed.
REFERENCE_S = 0.040

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("instance_p50_s", "s"),
              ("peak_rss_mb", "MB"))
TRACE_OVERHEAD = ("trace.overhead_s", "s")


class ChildFailed(Exception):
    pass


def run_child(argv: tuple[str, ...], traced: bool = False) -> dict:
    """One fresh interpreter; waits for it to end and returns its report."""
    cmd = [sys.executable, CHILD, repr(time.monotonic()), "1" if traced else "0", *argv]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"chromsym {' '.join(argv)}: no result in {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise ChildFailed(f"chromsym {' '.join(argv)}: child exited {proc.returncode}: "
                          f"{err.strip()[-500:]}")
    return json.loads(out.splitlines()[-1])


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

class Checks:
    """Checks one invocation's output; an output seen before is not checked again."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.seen: dict[tuple, list[str]] = {}
        self._closed_forms: dict[int, checker.Terms] = {}
        if workload.kind == "oracle":
            sys.path.insert(0, os.path.join(ROOT, "src"))
        self.verify_lines = workloads.verify_expectation() if workload.kind == "verify" else None

    def problems(self, index: int, report: dict) -> list[str]:
        key = (index, report["out"])
        if key not in self.seen:
            self.seen[key] = self._check(index, report)
        return self.seen[key]

    def _check(self, index: int, report: dict) -> list[str]:
        inv = self.workload.invocations[index]
        if self.workload.kind == "verify":
            return self._check_verify(report["out"])
        try:
            terms = checker.parse_records(json.loads(report["out"]))
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc}"]
        n, edges = checker.build(inv.tag, inv.params)
        found = checker.check_expansion(terms, n, edges)
        if self.workload.kind == "oracle" and terms != self._closed_form(index):
            found.append("oracle output differs from the family's closed form")
        return found

    def _closed_form(self, index: int) -> checker.Terms:
        if index not in self._closed_forms:
            from chromsym.families import get_family

            inv = self.workload.invocations[index]
            value = get_family(inv.tag).evaluate(**inv.params)
            self._closed_forms[index] = checker.parse_records(value.to_records())
        return self._closed_forms[index]

    def _check_verify(self, out: str) -> list[str]:
        expected = self.verify_lines
        lines = out.splitlines()
        seen: dict[tuple[str, str], str] = {}
        for line in lines[:-1]:
            status, _, rest = line.partition(" ")
            tag, _, label = rest.partition(" ")
            seen[(tag, label.split(":", 1)[0])] = status
        problems = [f"{tag} {label}: {seen.get((tag, label), 'missing')}, expected {want}"
                    for (tag, label), want in expected.items()
                    if seen.get((tag, label)) != want]
        if len(lines) - 1 != len(expected) or len(seen) != len(expected):
            problems.append(f"{len(lines) - 1} tuples reported, grid has {len(expected)}")
        skips = sum(1 for s in expected.values() if s == "SKIP")
        summary = (f"{len(expected)} instances: {len(expected) - skips} passed, "
                   f"0 failed, {skips} skipped")
        if not lines or lines[-1] != summary:
            problems.append(f"summary {lines[-1:]!r}, expected {summary!r}")
        return problems


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------

def instance_times(kind: str, report: dict) -> list[float]:
    """Seconds per instance: the whole call, or for verify one verified tuple per line."""
    if kind != "verify":
        return [report["wall_s"]]
    times, prev = [], 0.0
    for line, stamp in zip(report["out"].splitlines(), report["stamps"]):
        if line.startswith("PASS "):
            times.append(stamp - prev)
        prev = stamp
    return times


def run_round(workload: workloads.Workload, checks: Checks, traced: bool) -> dict:
    """Set-up probes, then every invocation once, each checked after it ends."""
    setups = [run_child(())["setup_s"] for _ in range(PROBES_PER_ROUND)]
    reports, problems, errors, failed, attempted = [], [], [], 0, 0
    for index, inv in enumerate(workload.invocations):
        ops = len(checks.verify_lines) if workload.kind == "verify" else 1
        attempted += ops
        try:
            report = run_child(inv.argv, traced)
        except ChildFailed as exc:
            failed += ops
            errors.append(str(exc))
            continue
        report["index"] = index
        setups.append(report["setup_s"])
        reports.append(report)
        if report["rc"] != 0:
            failed += ops
            errors.append(f"chromsym {' '.join(inv.argv)}: exit code {report['rc']}")
            continue
        problems += [f"{' '.join(inv.argv)}: {p}" for p in checks.problems(index, report)]
    return {"traced": traced, "setups": setups, "reports": reports, "problems": problems,
            "errors": errors, "attempted": attempted, "failed": failed}


def samples(workload: workloads.Workload, rounds: list[dict]) -> dict:
    """Timings of the untraced rounds: set-up samples, and per call and per
    instance the scaled times, with each call's raw time and scale factor."""
    n_calls = len(workload.invocations)
    walls: list[list[float]] = [[] for _ in range(n_calls)]
    raw_walls: list[list[float]] = [[] for _ in range(n_calls)]
    scales: list[list[float]] = [[] for _ in range(n_calls)]
    instances: list[list[list[float]]] = [[] for _ in range(n_calls)]
    setups, rss = [], 0
    for rnd in rounds:
        setups += rnd["setups"]
        for report in rnd["reports"]:
            i = report["index"]
            scale = REFERENCE_S / statistics.mean(report["ref_s"])
            walls[i].append(report["wall_s"] * scale)
            raw_walls[i].append(report["wall_s"])
            scales[i].append(scale)
            times = [t * scale for t in instance_times(workload.kind, report)]
            if not instances[i]:
                instances[i] = [[] for _ in times]
            for slot, t in zip(instances[i], times):
                slot.append(t)
            rss = max(rss, report["rss_kb"])
    return {"setup_s": setups, "wall_s": walls,
            "instance_s": [slot for inv in instances for slot in inv], "rss_kb": rss,
            "raw_wall_s": raw_walls, "scale": scales}


def end_to_end(n_calls: int, timings: dict) -> dict[str, float]:
    """End-to-end metrics: each call's and each instance's time is its median
    scaled time over the rounds, and set-up time is the median raw sample
    (probes and calls alike) times the number of calls per round."""
    per_instance = [statistics.median(s) for s in timings["instance_s"] if s]
    return {
        "setup_s": n_calls * statistics.median(timings["setup_s"]),
        "wall_s": sum(statistics.median(w) for w in timings["wall_s"] if w),
        "instance_p50_s": statistics.median(per_instance),
        "peak_rss_mb": timings["rss_kb"] / 1024,
    }


def per_layer(rounds: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over each traced round's calls, median over traced rounds."""
    sums = []
    for rnd in rounds:
        total = dict.fromkeys((name for name, _ in tracer.PER_LAYER), 0.0)
        for report in rnd["reports"]:
            for name, value in report["layers"].items():
                total[name] += value
        sums.append(total)
    return {name: statistics.median(s[name] for s in sums) for name, _ in tracer.PER_LAYER}


def round_wall(rnd: dict) -> float:
    return sum(r["wall_s"] for r in rnd["reports"])


def write_spans(path: str, workload: workloads.Workload, rounds: list[dict]) -> None:
    """One JSON line per traced call: its arguments and its span records."""
    with open(path, "w") as fh:
        for number, rnd in enumerate(rounds):
            for report in rnd["reports"]:
                argv = workload.invocations[report["index"]].argv
                fh.write(json.dumps({"round": number, "argv": argv,
                                     "fields": ["name", "start", "end", "parent", "stat_s"],
                                     "spans": report.pop("spans")}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25,
                        help="measure whole rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "chromsym", "cli.py")):
        print(f"error: no chromsym source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed)
    checks = Checks(workload)
    run_child(())  # compiles chromsym's bytecode if this checkout has none yet
    rounds: list[dict] = []
    start = time.monotonic()
    # Whole rounds until the time is up, and at least two untraced ones, so that
    # no call's time rests on a single sample.
    # A traced run alternates untraced and traced rounds and ends on a traced one.
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(workload, checks, traced))
        if (time.monotonic() - start >= args.seconds
                and (traced if args.trace else len(rounds) >= MIN_ROUNDS)):
            break
    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    problems = [p for r in rounds for p in r["problems"]]
    errors = [e for r in rounds for e in r["errors"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    timings = samples(workload, plain)
    if args.trace:
        metrics = per_layer(traced_rounds)
        metrics[TRACE_OVERHEAD[0]] = (statistics.median(map(round_wall, traced_rounds))
                                      - statistics.median(map(round_wall, plain)))
        units = dict(tracer.PER_LAYER + (TRACE_OVERHEAD,))
        os.makedirs(OUT_DIR, exist_ok=True)
        write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"),
                    workload, traced_rounds)
    else:
        metrics = end_to_end(len(workload.invocations), timings)
        units = dict(END_TO_END)

    for line in errors[:20]:
        print(f"FAILED {line}")
    for line in problems[:20]:
        print(f"CHECK FAILED {line}")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"({len(traced_rounds)} traced), {attempted} operations, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>14.6f} {units[name]}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "samples": timings}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
