#!/usr/bin/env python3
"""Compare checkouts of cycleadapt on the benchmark, interleaved; write BENCH_<n>.json.

    python scripts/bench.py BASE_DIR CHANGE_DIR [MORE_DIRS...] --labels parent,change \
        --out BENCH_1.json

For every workload of the first checkout's BENCHMARK.json, runs each
checkout's own ``benchmark/run.py`` for the benchmark's ``run_seconds``
with ``--trace 0`` for ``--pairs`` rounds (round i uses seed i + 1 for
every checkout, and the order of the checkouts rotates from round to
round, so that a drift in machine speed falls on all of them alike),
then with ``--trace 1`` ``--traces`` times, interleaved the same way.
The file holds, per workload and checkout, every run's end-to-end
metrics with their median and quartiles, the median of each per-layer
metric, and, for every checkout after the first, its per-round wins over
the first on each end-to-end metric and whether its median differs from
the first's by more than the first's interquartile range. It also
records the machine, whether the runs write bytecode, the Python, numpy
and OpenBLAS versions the runs reported, and each checkout's line count
of ``src/`` Python files, in all (``src_lines``) and per file
(``src_lines_by_file``), so that a change's size and its benchmark delta
come from one run. OPENBLAS_NUM_THREADS
defaults to 1, as in run.py.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark/run.py process: its final JSON line, plus the
    versions line it prints."""
    cmd = [sys.executable, os.path.join(checkout, "benchmark", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["versions"] = next((ln for ln in lines if ln.startswith("python ")), "")
    return out


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return {"q1": v, "median": v, "q3": v, "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1}


def compare(base: list[float], other: list[float], better: str) -> dict:
    """Per-round wins, losses and ties of ``other`` over ``base``, and
    whether the medians differ by more than the base's interquartile range."""
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (o - b) for b, o in zip(base, other)]
    qb, qo = quartiles(base), quartiles(other)
    gap = qo["median"] - qb["median"]
    return {
        "wins": sum(d > 0 for d in diffs),
        "losses": sum(d < 0 for d in diffs),
        "ties": sum(d == 0 for d in diffs),
        "median_ratio": qo["median"] / qb["median"] if qb["median"] else None,
        "median_change": gap / qb["median"] if qb["median"] else None,
        "gap_exceeds_base_iqr": abs(gap) > qb["iqr"],
    }


def rounds(n: int, k: int):
    """(round, order of the k checkouts) with the order rotating."""
    for r in range(n):
        yield r, [(r + j) % k for j in range(k)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", nargs="+", help="checkout directories; the first is the base")
    parser.add_argument("--labels", help="comma-separated names, one per checkout")
    parser.add_argument("--pairs", type=int, default=10, help="rounds with --trace 0")
    parser.add_argument("--traces", type=int, default=3, help="rounds with --trace 1")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    dirs = [os.path.abspath(d) for d in args.checkouts]
    labels = args.labels.split(",") if args.labels else [os.path.basename(d) for d in dirs]
    if len(dirs) < 2 or len(labels) != len(dirs) or len(set(labels)) != len(labels):
        parser.error("give two or more checkouts and one distinct label each")
    if args.pairs < 1 or args.traces < 3:
        parser.error("--pairs must be >= 1 and --traces >= 3")
    with open(os.path.join(dirs[0], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    by_file = {label: _src_lines_by_file(d) for label, d in zip(labels, dirs)}

    result = {
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": " ".join(["scripts/bench.py", *labels, f"--pairs {args.pairs}",
                             f"--traces {args.traces}"]),
        "run_seconds": seconds,
        "machine": {
            "system": platform.system(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            # the ladder trains on a pool of min(modes, usable CPUs) workers
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            # 1 when the runs write no bytecode: every benchmark process then
            # compiles cycleadapt from source, which setup_s includes, and so
            # does every spawned ladder worker
            "dont_write_bytecode": _dont_write_bytecode(),
        },
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "checkouts": labels,
        "src_lines": {label: sum(lines.values()) for label, lines in by_file.items()},
        "src_lines_by_file": by_file,
        "versions": {},
        "workloads": {},
    }
    t_start = time.time()
    for workload in workloads:
        runs: dict[str, list[dict]] = {label: [] for label in labels}
        traced: dict[str, list[dict]] = {label: [] for label in labels}
        for trace, n, store in ((0, args.pairs, runs), (1, args.traces, traced)):
            for r, order in rounds(n, len(dirs)):
                for i in order:
                    out = run_once(dirs[i], workload, r + 1, seconds, trace)
                    result["versions"][labels[i]] = out.pop("versions")
                    store[labels[i]].append(out)
                    print(f"[{time.time() - t_start:6.0f}s] {workload} trace {trace} seed {r + 1} "
                          f"{labels[i]}: correct {out['correct']}, failed {out['failed']}",
                          file=sys.stderr, flush=True)
        entry = {"end_to_end": {}, "per_layer": {}, "runs": {}}
        for label in labels:
            entry["runs"][label] = {
                key: [o[key] for o in runs[label] + traced[label]]
                for key in ("correct", "attempted", "failed")
            }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {lb: [o["metrics"][name]["value"] for o in runs[lb]] for lb in labels}
            entry["end_to_end"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "values": values,
                "stats": {lb: quartiles(v) for lb, v in values.items()},
                "versus_" + labels[0]: {
                    lb: compare(values[labels[0]], values[lb], metric["better"])
                    for lb in labels[1:]
                },
            }
        for metric in spec["per_layer"]:
            name = metric["name"]
            entry["per_layer"][name] = {
                "unit": metric["unit"],
                "median": {
                    lb: statistics.median(o["metrics"][name]["value"] for o in traced[lb])
                    for lb in labels
                },
            }
        result["workloads"][workload] = entry
    result["elapsed_s"] = round(time.time() - t_start, 1)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print("src_lines " + "  ".join(f"{lb} {n}" for lb, n in result["src_lines"].items()))
    for workload, entry in result["workloads"].items():
        for name, m in entry["end_to_end"].items():
            stats = "  ".join(f"{lb} {m['stats'][lb]['median']:.6g}" for lb in labels)
            vs = "  ".join(
                f"{lb}: {c['wins']}/{args.pairs} wins, gap>IQR {c['gap_exceeds_base_iqr']}"
                for lb, c in m["versus_" + labels[0]].items()
            )
            print(f"{workload:10s} {name:12s} {stats}  ({vs})")
    return 0


def _src_lines_by_file(checkout: str) -> dict[str, int]:
    """Lines of each ``.py`` file under the checkout's ``src/``, keyed by
    its path relative to ``src/``, in sorted order."""
    src = os.path.join(checkout, "src")
    lines = {}
    for root, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    lines[os.path.relpath(path, src)] = fh.read().count(b"\n")
    return dict(sorted(lines.items()))


def _dont_write_bytecode() -> int:
    """sys.flags.dont_write_bytecode in a Python started as the runs are."""
    probe = subprocess.run(
        [sys.executable, "-c", "import sys; print(sys.flags.dont_write_bytecode)"],
        capture_output=True, text=True, check=True,
    )
    return int(probe.stdout)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return re.sub(r"\s+", " ", line.split(":", 1)[1]).strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    sys.exit(main())
