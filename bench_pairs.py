"""Alternating parent/change runs of perfbench/run.py, summarised pair by pair.

Usage, from the root of a source checkout, with a second checkout of the
parent commit (for example made by ``git archive``) at PARENT:

    python3 bench_pairs.py run --parent PARENT --workload oracle-sparse \
        --seed 1 --pairs 10 --seconds 25 --log pairs.jsonl
    python3 bench_pairs.py summary --log pairs.jsonl
    python3 bench_pairs.py record --log pairs.jsonl --label L --change-note TEXT \
        --parent-commit SHA --host TEXT --out BENCH_L.json

``run`` starts one untraced ``perfbench/run.py`` at a time, in each checkout
in turn, the side that runs first alternating from pair to pair, and appends
each run's last output line to the log with the ``--seconds`` it ran for.
Both sides run with ``PYTHONDONTWRITEBYTECODE=1`` and no bytecode cache, so
that every ``chromsym`` call compiles ``src/chromsym`` afresh, as a fresh
checkout does: ``run`` refuses to start, with exit status 2, while either
checkout holds ``src/chromsym/__pycache__``, and names that checkout.
``summary`` prints, per workload, seed and end-to-end metric, each side's
median and quartiles and the number of pairs the change won.  ``record``
writes the first pair of every workload and seed in the format of the
``BENCH_*.json`` files; its command names the ``--seconds`` of those runs,
which must all agree.  Only the standard library is used, and neither
checkout's files are changed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
METRICS = ("setup_s", "wall_s", "instance_p50_s", "peak_rss_mb")  # all lower is better


def run_side(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])


def cmd_run(args) -> None:
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, root in roots.items():
        cache = os.path.join(root, "src", "chromsym", "__pycache__")
        if os.path.exists(cache):
            print(f"bench_pairs: the {side} checkout {root} holds {cache}; remove it, so that "
                  "every call compiles the source as in a fresh checkout", file=sys.stderr)
            sys.exit(2)
    with open(args.log, "a") as log:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_side(roots[side], args.workload, args.seed, args.seconds)
                row = {"workload": args.workload, "seed": args.seed, "pair": pair,
                       "side": side, "first": order[0], "seconds": args.seconds,
                       "result": result}
                log.write(json.dumps(row) + "\n")
                log.flush()
                wall = result["metrics"]["wall_s"]["value"]
                print(f"{args.workload} seed {args.seed} pair {pair} {side}: "
                      f"wall_s {wall:.4f} correct {result['correct']}", flush=True)


def read_log(path: str) -> dict[tuple[str, int], dict[int, dict[str, dict]]]:
    """{(workload, seed): {pair: {side: row}}}, complete pairs only, and
    only the workloads and seeds that have one."""
    groups: dict[tuple[str, int], dict[int, dict[str, dict]]] = {}
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            pairs = groups.setdefault((row["workload"], row["seed"]), {})
            pairs.setdefault(row["pair"], {})[row["side"]] = row
    complete = {key: {p: sides for p, sides in pairs.items() if len(sides) == 2}
                for key, pairs in groups.items()}
    return {key: pairs for key, pairs in complete.items() if pairs}


def cmd_summary(args) -> None:
    for (workload, seed), pairs in sorted(read_log(args.log).items()):
        results = [row["result"] for sides in pairs.values() for row in sides.values()]
        fails = sum(r["failed"] + (not r["correct"]) for r in results)
        print(f"{workload} seed {seed}: {len(pairs)} pairs, {fails} failed or incorrect runs")
        for metric in METRICS:
            value = {side: [pairs[p][side]["result"]["metrics"][metric]["value"]
                            for p in sorted(pairs)]
                     for side in ("parent", "change")}
            wins = sum(c < p for p, c in zip(value["parent"], value["change"]))
            text = []
            for side in ("parent", "change"):
                vals = value[side]
                q1, q2, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                              else (vals[0],) * 3)
                text.append(f"{side} {statistics.median(vals):.4f} ({q1:.4f}-{q3:.4f})")
            change = statistics.median(value["change"]) / statistics.median(value["parent"]) - 1
            print(f"  {metric:15s} {text[0]} -> {text[1]}  {change:+.1%}, "
                  f"lower in {wins} of {len(pairs)}")


def cmd_record(args) -> None:
    runs, seconds = [], set()
    for (workload, seed), pairs in sorted(read_log(args.log).items()):
        first = pairs[min(pairs)]
        runs.append({"workload": workload, "seed": seed,
                     "parent": first["parent"]["result"], "change": first["change"]["result"]})
        seconds.update(row.get("seconds") for row in first.values())
    if len(seconds) != 1 or None in seconds:
        sys.exit(f"record: the recorded pairs ran for --seconds {sorted(seconds, key=str)}, "
                 "not one value")
    record = {"label": args.label, "change": args.change_note, "parent": args.parent_commit,
              "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                         f"{seconds.pop():g}",
              "host": args.host,
              "note": "each record is the last line run.py printed, from the first pair of "
                      "each workload and seed; see CHANGES.md for the repeated pairs",
              "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--parent", required=True)
    p_run.add_argument("--change", default=HERE)
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--pairs", type=int, default=10)
    p_run.add_argument("--seconds", type=float, default=25)
    p_run.add_argument("--log", required=True)
    p_run.set_defaults(func=cmd_run)
    p_sum = sub.add_parser("summary")
    p_sum.add_argument("--log", required=True)
    p_sum.set_defaults(func=cmd_summary)
    p_rec = sub.add_parser("record")
    for flag in ("--log", "--label", "--change-note", "--parent-commit", "--host", "--out"):
        p_rec.add_argument(flag, required=True)
    p_rec.set_defaults(func=cmd_record)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
