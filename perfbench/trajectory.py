"""Run the benchmark over several seeds per workload and summarise the runs.

    python3 perfbench/trajectory.py [--label TEXT] [--out FILE]
        [--compare EARLIER_FILE]

For each workload in BENCHMARK.json this makes ten untraced runs with seeds
0 to 9, each in its own ``run.py`` process, and one traced run on seed 0.
It prints, for every end-to-end metric, the median, the quartiles and the
spread (quartile distance over median) next to the bound in BENCHMARK.json,
flagging a spread of a third of the bound or more, and pools the pass times
in seconds of all runs, of the package and of its frozen reference copy, for
their medians and the package's tail percentile.  With each run it keeps
the search nodes examined per pass, so seed-dependent work can be told
apart from machine noise.  A run whose checks fail is recorded, not
dropped.  With ``--out`` it writes the summary, the per-layer table of the traced run and the machine
description as JSON: one point of the performance trajectory.  With
``--compare`` it prints how far each end-to-end median moved against an
earlier point, and exits 1 when one got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

from run import BENCHMARK, HERE, ROOT, WHY, tail

SEEDS = list(range(10))


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    q1, med, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "samples": len(values), "values": values}


def summarise(workload: str) -> dict:
    bounds = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    passes: list[list[float]] = []
    ref_passes: list[list[float]] = []
    ratios: list[list[float]] = []
    examined: list[list[int]] = []
    failures: list[dict] = []
    for seed in SEEDS:
        info, result = _run(workload, seed, 0)
        if not result["correct"]:
            failures.append({"seed": seed, "failures": info["failures"]})
            print(f"  {workload} seed {seed}: CHECKS FAILED {info['failures']}", file=sys.stderr)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        passes.append(info["wall_s_samples"])
        ref_passes.append(info["ref_wall_s_samples"])
        ratios.append(info["wall_ratio_samples"])
        examined.append(info["examined_per_pass"])
        print(f"  {workload} seed {seed}: "
              + ", ".join(f"{n}={values[n][-1]:.4g}" for n in bounds), file=sys.stderr)
    info, traced = _run(workload, SEEDS[0], 1)
    end_to_end = {}
    for name, spec in bounds.items():
        row = _summary(values[name])
        row["unit"] = spec["unit"]
        end_to_end[name] = row
        flag = "" if row["spread"] < spec["bound"] / 3 else "  <-- unsteady"
        print(f"{workload:15s} {name:12s} median {row['median']:.4g} {spec['unit']:5s} "
              f"spread {row['spread']:.3f} (bound {spec['bound']}){flag}", file=sys.stderr)
    return {
        "why": WHY[workload],
        "seeds": SEEDS,
        "failed_runs": failures,
        "end_to_end": end_to_end,
        "wall_s_passes": {"per_run": passes, "median": median(sum(passes, [])),
                          "tail": tail(sum(passes, []))},
        "ref_wall_s_passes": {"per_run": ref_passes, "median": median(sum(ref_passes, []))},
        "wall_ratio_passes": {"per_run": ratios},
        "examined_per_pass": examined,
        "per_layer": {"seed": SEEDS[0],
                      "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
                      "units": {k: v["unit"] for k, v in traced["metrics"].items()}},
        "machine": {k: info[k] for k in ("nproc", "python", "numpy")},
    }


def compare(old: dict, new: dict) -> bool:
    ok = True
    for workload, row in new["workloads"].items():
        if workload not in old["workloads"]:
            continue
        for spec in BENCHMARK["end_to_end"]:
            a = old["workloads"][workload]["end_to_end"][spec["name"]]["median"]
            b = row["end_to_end"][spec["name"]]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            beyond = worse > spec["bound"]
            ok = ok and not beyond
            print(f"{workload:15s} {spec['name']:12s} {a:.4g} -> {b:.4g}: worse by {worse:+.3f} "
                  f"(bound {spec['bound']}){'  <-- beyond bound' if beyond else ''}",
                  file=sys.stderr)
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="", help="what was measured, e.g. a commit")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args()
    point = {
        "label": args.label,
        "run_seconds": BENCHMARK["run_seconds"],
        "workloads": {w: summarise(w) for w in WHY},
    }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    if args.compare:
        return 0 if compare(json.loads(args.compare.read_text(encoding="utf-8")), point) else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
