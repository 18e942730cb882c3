"""Benchmark for bigraphds: two workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts fresh interpreters with the checkout's ``src`` on
PYTHONPATH and a fixed hash seed: four that only set up (import plus input generation) and one that
sets up, then makes passes over the workload's items for about S seconds,
checking every output against a reference oracle.  Workload names, metric
names and units come from BENCHMARK.json.  With ``--trace 0`` the last line
of output holds the end-to-end metrics:

- ``wall_ratio``: the median, over paired passes, of the pass time of
  ``bigraphds`` divided by that of ``perfbench/bigraphds_ref``, a frozen copy
  of the package that a second interpreter runs on the same inputs, taking
  turns with it item by item (see worker.py).  The shared machine's speed
  drifts by a quarter and more between runs; both packages drift together,
  so their ratio does not;
- ``setup_s``: median over the five interpreters of import plus set-up time;
- ``peak_rss_mb``: peak resident memory of the measuring interpreter and of
  its search pool (the reference's interpreter is not counted);
- ``pass_rate``: the share of the package's items that passed their check.

With ``--trace 1`` every pass is traced, on ``bigraphds`` only, and the
last line holds per-layer metrics derived from spans around each call the
benchmark makes into the package; the spans are written under ``.perfbench-out/``.  The line before
the last records the package's pass times in seconds (``wall_s``: median and
tail percentile when there are enough), the reference's, the ratios, the
search nodes examined in each pass, the error rate, ``nproc`` and the Python
and numpy versions.  The exit code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
DEADLINE_S = 170

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": round(100 * (n - 10) / n, 1), "value": sorted(samples)[n - 11],
            "samples": n}


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # The worker's session holds it and its search pool; end whatever is left.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if out is None:
        proc.communicate()
        raise SystemExit("perfbench: worker ran past the time limit")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark for bigraphds.")
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bigraphds" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'bigraphds'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        setups = [_worker([*common, "--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    res = _worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                  deadline)
    setups.append(res["setup_s"])

    attempted, failed = res["attempted"], len(res["failures"])
    if args.trace:
        specs, values = BENCHMARK["per_layer"], res["layers"]
    else:
        if not res["ratios"]:
            raise SystemExit("perfbench: every paired pass met a failure on the reference: "
                             + "; ".join(res["ref_failures"][:5]))
        specs, values = BENCHMARK["end_to_end"], {
            "wall_ratio": median(res["ratios"]),
            "setup_s": median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "pass_rate": 1 - failed / attempted,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    info = {
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "trace": args.trace, "wall_s": median(res["walls"]), "wall_s_samples": res["walls"],
        "wall_s_tail": tail(res["walls"]), "ref_wall_s_samples": res.get("ref_walls"),
        "wall_ratio_samples": res.get("ratios"), "ref_failures": res.get("ref_failures"),
        "examined_per_pass": res["examined"], "setup_s_samples": setups,
        "error_rate": failed / attempted, "failures": res["failures"][:20],
        "nproc": res["nproc"], "python": res["python"], "numpy": res["numpy"],
    }
    if args.trace:
        info["spans"] = res["spans"]
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
