#!/usr/bin/env python3
"""Run the S0..S4 ladder over several seeds on the default benchmark.

Writes a CSV table and, with --fixture, refreshes the acceptance fixture
(tests/fixtures/two_moons_ladder.json) from the measured numbers. With
--check it reruns the fixture's ladder (its seeds and data seed) instead,
compares every per-seed target accuracy with the fixture's exactly, writes
nothing, and exits 1 on any mismatch.
"""

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from cycleadapt.data import default_benchmark_pair
from cycleadapt.trainer import default_train_config, stability_spread, train

MODES = ("S0", "S1", "S2", "S3", "S4")
FIXTURE_PATH = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "two_moons_ladder.json"


def run_one(args):
    mode, seed, data_seed = args
    pair = default_benchmark_pair(seed=data_seed)
    cfg = default_train_config(seed=seed, ablation_mode=mode)
    result = train(cfg, pair)
    history = result.history
    final = history[-1]
    return {
        "mode": mode,
        "seed": seed,
        "target_acc": final.target_acc,
        "source_acc": final.source_acc,
        "d_d_mean_out": final.d_d_mean_out,
        "l_cyc_50": next(r.l_cyc for r in history if r.step == 50),
        "l_cyc_final": final.l_cyc,
        "spread": stability_spread(history, cfg.total_steps),
    }


def run_ladder(seeds, data_seed: int, workers: int) -> dict:
    jobs = [(m, s, data_seed) for m in MODES for s in seeds]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        rows = list(ex.map(run_one, jobs))
    return {m: sorted((r for r in rows if r["mode"] == m), key=lambda r: r["seed"])
            for m in MODES}


def check_against_fixture(workers: int) -> int:
    """Rerun the fixture's ladder; 0 if every per-seed accuracy is equal."""
    fixture = json.loads(FIXTURE_PATH.read_text())
    seeds = fixture["seeds"]
    t0 = time.time()
    by_mode = run_ladder(seeds, fixture["benchmark"]["data_seed"], workers)
    mismatches = 0
    for mode in MODES:
        got = [r["target_acc"] for r in by_mode[mode]]
        expected = fixture["mode_target_accs"][mode]
        same = got == expected
        mismatches += not same
        print(f"{mode}: {'match' if same else 'MISMATCH'}  got {got}  fixture {expected}")
    runs = len(MODES) * len(seeds)
    verdict = "all equal" if not mismatches else f"{mismatches} modes differ"
    print(f"checked {runs} runs against {FIXTURE_PATH.name}: {verdict} ({time.time() - t0:.0f}s)")
    return 1 if mismatches else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--data-seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", default="ablation_table.csv")
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--fixture", action="store_true",
                      help="rewrite tests/fixtures/two_moons_ladder.json")
    action.add_argument("--check", action="store_true",
                      help="compare the fixture's ladder with a rerun; write nothing")
    args = parser.parse_args()
    if args.check:
        return check_against_fixture(args.workers)
    seeds = [int(s) for s in args.seeds.split(",")]

    t0 = time.time()
    by_mode = run_ladder(seeds, args.data_seed, args.workers)

    lines = ["mode,mean_target_acc,std_target_acc,n_seeds"]
    for mode in MODES:
        accs = [r["target_acc"] for r in by_mode[mode]]
        print(f"{mode}: {np.mean(accs):.4f} +/- {np.std(accs):.4f}  {accs}")
        lines.append(f"{mode},{np.mean(accs)!r},{np.std(accs)!r},{len(accs)}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"table written to {args.out} ({time.time() - t0:.0f}s)")

    if args.fixture:
        cfg = default_train_config()
        s3_first = by_mode["S3"][0]
        fixture = {
            "benchmark": {
                "generator": "two-moons", "rotation_deg": 45.0, "noise_std": 0.1,
                "n_per_domain": 500, "data_seed": args.data_seed,
            },
            "seeds": seeds,
            "total_steps": cfg.total_steps,
            "mode_mean_target_acc": {
                m: round(float(np.mean([r["target_acc"] for r in by_mode[m]])), 6)
                for m in MODES
            },
            "mode_target_accs": {
                m: [r["target_acc"] for r in by_mode[m]] for m in MODES
            },
            "default_run": {
                "seed": s3_first["seed"],
                "target_acc": s3_first["target_acc"],
                "d_d_mean_out": round(s3_first["d_d_mean_out"], 6),
                "l_cyc_step50": round(s3_first["l_cyc_50"], 6),
                "l_cyc_final": round(s3_first["l_cyc_final"], 6),
                "stability_spread": round(s3_first["spread"], 6),
            },
        }
        FIXTURE_PATH.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
        print(f"fixture refreshed at {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
