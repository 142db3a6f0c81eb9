"""Run one chromsym CLI invocation in this fresh interpreter and report on it.

Usage: python3 child.py SPAWNED TRACE [chromsym arguments...]

SPAWNED is the parent's time.monotonic() just before it started this
process, so set-up time covers interpreter start-up plus ``import
chromsym``.  With no chromsym arguments the child only sets up (a set-up
probe).  With TRACE = 1 the layer boundaries are wrapped before
``chromsym.cli.main`` runs.  The reference computation (``reference_s``)
runs right before and right after the call, so that the parent can scale the
call's time to a fixed machine speed.  The last line of standard output is
one JSON object; the CLI's own output is captured and returned inside it.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import chromsym.cli  # noqa: E402  (the import is what set-up time measures)

READY = time.monotonic()

import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


class _StampedOutput(io.StringIO):
    """Captured standard output that notes the time each line ends."""

    def __init__(self, start: float):
        super().__init__()
        self.start = start
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        if "\n" in text:
            now = time.perf_counter() - self.start
            self.stamps.extend([now] * text.count("\n"))
        return super().write(text)


def peak_rss_kb() -> int:
    """Peak resident set of this interpreter, in kB.

    ru_maxrss is not used on Linux: a child's ru_maxrss starts at the resident
    set its parent had when it forked.  VmHWM belongs to the address space
    that exec made for this interpreter.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _grid_graph(rows: int, cols: int) -> tuple[int, set[tuple[int, int]]]:
    edges = set()
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.add((v, v + 1))
            if i + 1 < rows:
                edges.add((v, v + cols))
    return rows * cols, edges


def reference_s() -> float:
    """Seconds that a fixed computation owing nothing to chromsym takes now.

    It is the checker's chromatic polynomial of the 5 x 6 grid graph: about
    40 ms of dict, tuple and integer work, a gauge of the machine's speed at
    this moment.
    """
    import checker

    graph = _grid_graph(5, 6)
    gc.disable()  # a collection would walk whatever heap chromsym left behind
    try:
        start = time.perf_counter()
        checker.chromatic_polynomial(*graph)
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> None:
    spawned, traced, argv = float(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    report = {"setup_s": READY - spawned}
    if argv:
        tracer = None
        run = chromsym.cli.main
        if traced:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            run = tracer.span("cli.main", run)
        ref_before = reference_s()
        real_stdout = sys.stdout
        start = time.perf_counter()
        sys.stdout = captured = _StampedOutput(start)
        try:
            rc = run(argv)
        finally:
            wall = time.perf_counter() - start
            sys.stdout = real_stdout
        report.update(rc=rc, wall_s=wall, stamps=captured.stamps, out=captured.getvalue())
        if tracer is not None:
            report["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters)
            report["spans"] = tracer.spans
    report["rss_kb"] = peak_rss_kb()
    if argv:
        report["ref_s"] = [ref_before, reference_s()]
    print(json.dumps(report))


if __name__ == "__main__":
    main()
