"""Set up and run one workload in this interpreter; print the measurements.

run.py starts this script in a fresh interpreter with the repository's
``src`` on PYTHONPATH, so import time and peak memory belong to one
workload.  The last line of standard output is one JSON object.

An untraced run also starts this script as a reference server
(``--serve-ref``): a second interpreter that sets up the same inputs on the
frozen copy ``bigraphds_ref`` and runs an item when asked.  The two take
turns item by item, which goes first alternating from item to item and from
pass to pass, so both see the same machine; a paired pass gives the ratio of
the two pass times.  Only one of them runs at a time, and the package under
test has its interpreter, and its peak memory, to itself.  Both run an item
that uses one process on the same CPU (see ``ONE_CPU``).  A traced run makes
traced passes on ``bigraphds`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".perfbench-out"

# Far above any item's time (the slowest takes about 4 s).  An item still
# running after this is counted as hung and the pass moves on: an early-exit
# search on the pool can block for ever while it terminates the pool.
ITEM_LIMIT_S = 30
# A run whose paired passes all met a failure on the reference makes more,
# up to this many, so that it always reports a ratio.
MAX_PAIRS = 4
# An item on one process runs on the lowest of the CPUs this interpreter may
# use, in both interpreters: the CPUs of a shared host speed up and slow down
# independently, so a pair timed on one CPU drifts together.  Pool items get
# every CPU.
CPUS = os.sched_getaffinity(0)
ONE_CPU = {min(CPUS)}


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout(f"no result after {ITEM_LIMIT_S} s")


def _run_item(item_id, workers, run, tr, state, failures) -> float:
    """Run one item under the watchdog; return its wall time, note its failure."""
    from workloads import CheckFailed

    os.sched_setaffinity(0, CPUS if workers > 1 else ONE_CPU)
    signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
    t0 = time.perf_counter()
    try:
        with tr.span("item", item_id):
            run(tr, state)
    except CheckFailed as exc:
        failures.append(f"{item_id}: {exc}")
    except Exception as exc:  # noqa: BLE001 - an unexpected error fails the item
        failures.append(f"{item_id}: unexpected {type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        os.sched_setaffinity(0, CPUS)
    return elapsed


def _run_pass(items, tr) -> tuple[float, int, list[str]]:
    """One pass over the items: its wall time, search nodes examined, failures."""
    failures: list[str] = []
    state: dict = {"examined": 0}
    t0 = time.perf_counter()
    with tr.span("pass"):
        for item in items:
            _run_item(*item, tr, state, failures)
    return time.perf_counter() - t0, state["examined"], failures


class _RefServer:
    """The reference server: the same workload on ``bigraphds_ref``, one item per request."""

    def __init__(self, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--serve-ref"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        self.items = json.loads(self.proc.stdout.readline())["items"]

    def run(self, k: int) -> tuple[float, str | None]:
        self.proc.stdin.write(f"{k}\n")
        reply = json.loads(self.proc.stdout.readline())
        return reply["t"], reply["failure"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=ITEM_LIMIT_S)


def _serve_ref(workload: str, seed: int) -> int:
    """Set up on bigraphds_ref, then run item k for each line k read; k = 0 starts a pass."""
    import bigraphds_ref
    import workloads
    from tracing import NullTracer

    null = NullTracer()
    items = workloads.SETUP[workload](bigraphds_ref, seed, null)
    print(json.dumps({"items": len(items)}), flush=True)
    state: dict = {}
    for line in sys.stdin:
        k = int(line)
        if k == 0:
            state = {"examined": 0}
        failures: list[str] = []
        t = _run_item(*items[k], null, state, failures)
        print(json.dumps({"t": t, "failure": failures[0] if failures else None}), flush=True)
    return 0


def _run_paired_pass(items, ref: _RefServer, tr, flip: int):
    """Each item on the package and on the reference, alternating which goes first.

    Returns the package's and the reference's summed item times, the nodes
    the package examined, and the failures of each.
    """
    failures: list[str] = []
    ref_failures: list[str] = []
    state: dict = {"examined": 0}
    own = ref_s = 0.0

    def on_ref(k: int) -> float:
        t, failure = ref.run(k)
        if failure:
            ref_failures.append(failure)
        return t

    for k, item in enumerate(items):
        if (k + flip) % 2:
            ref_s += on_ref(k)
        own += _run_item(*item, tr, state, failures)
        if not (k + flip) % 2:
            ref_s += on_ref(k)
    return own, ref_s, state["examined"], failures, ref_failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--serve-ref", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _alarm)
    if args.serve_ref:
        return _serve_ref(args.workload, args.seed)

    t0 = time.perf_counter()
    import bigraphds  # timed: import is part of set-up
    import_s = time.perf_counter() - t0

    import numpy
    import workloads
    from tracing import NullTracer, Tracer, layer_metrics

    tracer = Tracer() if args.trace else NullTracer()
    t1 = time.perf_counter()
    with tracer.span("setup"):
        items = workloads.SETUP[args.workload](bigraphds, args.seed, tracer)
    setup_s = import_s + time.perf_counter() - t1
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    start = time.perf_counter()
    walls, examined, failures = [], [], []
    if args.trace:
        while True:
            wall, nodes, failed = _run_pass(items, tracer)
            walls.append(wall)
            examined.append(nodes)
            failures.extend(failed)
            if time.perf_counter() - start + wall > args.seconds:
                break
    else:
        ref = _RefServer(args.workload, args.seed)
        if ref.items != len(items):
            raise SystemExit(f"reference has {ref.items} items, the package {len(items)}")
        ref_walls, ratios, ref_failures = [], [], []
        while True:
            own, ref_s, nodes, failed, ref_failed = _run_paired_pass(
                items, ref, tracer, flip=len(walls))
            walls.append(own)
            ref_walls.append(ref_s)
            examined.append(nodes)
            failures.extend(failed)
            ref_failures.extend(ref_failed)
            if not ref_failed:
                ratios.append(own / ref_s)
            if len(walls) >= MAX_PAIRS or (
                    ratios and time.perf_counter() - start + own + ref_s > args.seconds):
                break
        result.update(ref_walls=ref_walls, ratios=ratios, ref_failures=ref_failures)
    # Read before the reference server is reaped, so only the search pool counts.
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if not args.trace:
        ref.close()

    result.update(
        walls=walls,
        examined=examined,
        attempted=len(items) * len(walls),
        failures=failures,
        peak_rss_mb=rss_kb / 1024,
        nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    if args.trace:
        result["layers"] = layer_metrics(tracer)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans)
        result["spans"] = str(spans.relative_to(OUT.parent))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
