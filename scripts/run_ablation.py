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
from pathlib import Path

from cycleadapt.data import default_benchmark_pair
from cycleadapt.trainer import ABLATION_MODES, ablation_run, default_train_config, stability_spread

FIXTURE_PATH = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "two_moons_ladder.json"


def check_against_fixture() -> int:
    """Rerun the fixture's ladder; 0 if every per-seed accuracy is equal."""
    fixture = json.loads(FIXTURE_PATH.read_text())
    seeds = fixture["seeds"]
    t0 = time.time()
    pair = default_benchmark_pair(seed=fixture["benchmark"]["data_seed"])
    table = ablation_run(default_train_config(), pair, seeds)
    mismatches = 0
    for mode in ABLATION_MODES:
        got = list(table[mode].accuracies)
        expected = fixture["mode_target_accs"][mode]
        same = got == expected
        mismatches += not same
        print(f"{mode}: {'match' if same else 'MISMATCH'}  got {got}  fixture {expected}")
    runs = len(ABLATION_MODES) * len(seeds)
    verdict = "all equal" if not mismatches else f"{mismatches} modes differ"
    print(f"checked {runs} runs against {FIXTURE_PATH.name}: {verdict} ({time.time() - t0:.0f}s)")
    return 1 if mismatches else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--data-seed", type=int, default=7)
    parser.add_argument("--out", default="ablation_table.csv")
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--fixture", action="store_true",
                      help="rewrite tests/fixtures/two_moons_ladder.json")
    action.add_argument("--check", action="store_true",
                      help="compare the fixture's ladder with a rerun; write nothing")
    args = parser.parse_args()
    if args.check:
        return check_against_fixture()
    seeds = [int(s) for s in args.seeds.split(",")]

    t0 = time.time()
    pair = default_benchmark_pair(seed=args.data_seed)
    table = ablation_run(default_train_config(), pair, seeds)

    lines = ["mode,mean_target_acc,std_target_acc,n_seeds"]
    for mode, stats in table.items():
        accs = list(stats.accuracies)
        print(f"{mode}: {stats.mean:.4f} +/- {stats.std:.4f}  {accs}")
        lines.append(f"{mode},{stats.mean!r},{stats.std!r},{len(accs)}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"table written to {args.out} ({time.time() - t0:.0f}s)")

    if args.fixture:
        cfg = default_train_config()
        history = table["S3"].histories[0]
        final = history[-1]
        fixture = {
            "benchmark": {
                "generator": "two-moons", "rotation_deg": 45.0, "noise_std": 0.1,
                "n_per_domain": 500, "data_seed": args.data_seed,
            },
            "seeds": seeds,
            "total_steps": cfg.total_steps,
            "mode_mean_target_acc": {m: round(s.mean, 6) for m, s in table.items()},
            "mode_target_accs": {m: list(s.accuracies) for m, s in table.items()},
            "default_run": {
                "seed": seeds[0],
                "target_acc": final.target_acc,
                "d_d_mean_out": round(final.d_d_mean_out, 6),
                "l_cyc_step50": round(next(r.l_cyc for r in history if r.step == 50), 6),
                "l_cyc_final": round(final.l_cyc, 6),
                "stability_spread": round(stability_spread(history, cfg.total_steps), 6),
            },
        }
        FIXTURE_PATH.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
        print(f"fixture refreshed at {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
