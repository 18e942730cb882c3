"""Single command-line entry point with machine-readable output.

Exit codes: 0 success, 1 reproduction-check failure, 2 usage, 3 validation,
4 capacity, 5 internal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import bigraph, bounds, diffsets, groups, ledger, search, singer
from .errors import BigraphdsError, InternalError, UsageError


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


# Payload keys that differ from the names of the record fields they hold.
_RENAMED = {"elements": "set", "group_name": "group", "lam": "lambda", "poly_used": "poly"}


def _jsonable(obj):
    """JSON-ready form of a result record (a NamedTuple), field by field.

    A CandidateSet becomes its element list, so no payload carries its
    group's multiplication table; a classification adds its params.
    """
    if isinstance(obj, diffsets.CandidateSet):
        return list(obj.elements)
    if hasattr(obj, "_asdict"):  # before the tuple branch, which would drop the field names
        out = {_RENAMED.get(k, k): _jsonable(v) for k, v in obj._asdict().items()}
        if isinstance(obj, diffsets.SetClassification):
            out["params"] = obj.params()
        return out
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def _cmd_bound(args) -> tuple[dict, str, int]:
    _require(args.r >= 2 and args.s >= 2, f"degrees must be >= 2, got r={args.r}, s={args.s}")
    _require(args.m >= 1, f"half-diameter must be >= 1, got {args.m}")
    r, s = max(args.r, args.s), min(args.r, args.s)
    rep = bounds.bound_report(r, s) if args.m == 1 else bounds.moore_bound_odd(r, s, args.m)
    payload = _jsonable(rep)
    if rep.improved:
        # exact rational margin justifying the window, as a fraction string
        payload["improved"]["margin"] = str(bounds.improvement_margin(rep.improved.multiplier, rep.s))
    lines = [
        f"M({rep.r},{rep.s};{rep.d}) = {rep.moore}"
        f"  [N1'={rep.n1_raw}, N2'={rep.n2_raw}, N1={rep.n1}, N2={rep.n2}]"
    ]
    if rep.improved:
        lines.append(
            f"M*({rep.r},{rep.s};3) = {rep.improved.value}"
            f"  [N1={rep.improved.n1}, N2={rep.improved.n2}]"
        )
        lines.append(f"best = {rep.best}")
    return payload, "\n".join(lines), 0


def _cmd_table(args) -> tuple[dict, str, int]:
    _require(args.rmax >= 2 and args.smax >= 2, "table bounds must be >= 2")
    text = bounds.render_table(args.kind, args.rmax, args.smax, args.format)
    return {"kind": args.kind, "format": args.format, "table": text}, text.rstrip("\n"), 0


def _cmd_singer(args) -> tuple[dict, str, int]:
    _require(args.q >= 2, f"q must be >= 2, got {args.q}")
    modulus = None
    if args.poly is not None:
        coeffs = args.poly.split(",")
        _require(all(map(str.isdecimal, coeffs)),
                 f"--poly must be comma-separated integers, got {args.poly!r}")
        modulus = tuple(map(int, coeffs))
    ss = singer.singer_set(args.q, modulus=modulus)
    payload = _jsonable(ss)
    lines = [
        f"q = {ss.q}, n = {ss.n}",
        f"primitive cubic (constant term first): {list(ss.poly_used)}",
        f"raw exponents: {list(ss.exponents_raw)}",
        f"set: {list(ss.set.elements)}",
        f"classification: {ss.classification.verdict}{ss.classification.params()}",
    ]
    return payload, "\n".join(lines), 0


def _cmd_classify(args) -> tuple[dict, str, int]:
    group = groups.parse_group_spec(args.group)
    cand = diffsets.parse_set_literal(group, args.set)
    cls = diffsets.classify_set(cand)
    payload = {
        "group": group.name,
        "set": list(cand.elements),
        "classification": _jsonable(cls),
    }
    lines = [f"{list(cand.elements)} in {group.name}: {cls.verdict}{cls.params()}"]
    if cls.missing:
        lines.append(f"missing: {list(cls.missing)}")
    if cls.repeated:
        lines.append(f"repeated: {list(cls.repeated)}")
    return payload, "\n".join(lines), 0


def _cmd_graph(args) -> tuple[dict, str, int]:
    _require(args.m >= 1, f"--m must be >= 1, got {args.m}")
    _require(args.format or not args.out, "--out needs --format")
    group = groups.parse_group_spec(args.group)
    cand = diffsets.parse_set_literal(group, args.set)
    graph = bigraph.build_difference_graph(cand, args.m)
    check = bigraph.verify_biregular(graph)
    if not check.ok:
        raise InternalError(f"G_{graph.m}(S) is not biregular at vertex {check.offending_vertex}")
    payload = {
        "group": group.name,
        "n": graph.n,
        "m": graph.m,
        "s": graph.s,
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "degrees": list(check.degrees),
    }
    lines = [
        f"G_{graph.m}(S) over {group.name}: {graph.vertex_count} vertices, "
        f"{graph.edge_count} edges, degrees ({check.degrees[0]},{check.degrees[1]})"
    ]
    if args.check_diameter:
        rep = bigraph.diameter(graph)
        payload["diameter"] = rep.diameter
        payload["diameter_witness"] = [graph.vertex_names()[v] for v in rep.witness]
        lines.append(
            f"diameter: {'infinite (disconnected)' if rep.diameter is None else rep.diameter}"
        )
    if args.format:
        text = bigraph.export_graph(graph, args.format)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:  # a missing directory, a directory, no permission
                raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
            payload["out"] = args.out
            lines.append(f"wrote {args.format} export to {args.out}")
        else:
            payload["export"] = text
            lines = [text.rstrip("\n")]
    return payload, "\n".join(lines), 0


def _cmd_search(args) -> tuple[dict, str, int]:
    _require(args.size >= 2, f"--size must be >= 2, got {args.size}")
    _require(args.limit is None or args.limit >= 1, f"--limit must be >= 1, got {args.limit}")
    config = search.SearchConfig(
        group=groups.parse_group_spec(args.group),
        size=args.size,
        require_inverse_covering=args.require_inverse_covering,
    )
    run = search.exists_covering_set if args.exists_only else search.enumerate_covering_sets
    out = run(config)
    out = out._replace(found=out.found[: args.limit])
    payload = _jsonable(out)
    lines = [
        f"{out.group_name} size {out.size} (slack {out.slack}): "
        f"{len(out.found)} covering set(s)"
        + (", search exhausted" if out.exhausted else ", stopped early")
        + f"; examined={out.candidates_examined}, pruned={out.candidates_pruned} "
        f"(orbit rule {sum(out.orbit_pruned_by_depth)}) "
        f"(coset bound {sum(out.coset_pruned_by_depth)}), {out.wall_time_ms} ms"
    ]
    shown = out.found[:20]
    lines.extend(
        f"  {list(f.elements)}  {f.classification.verdict}{f.classification.params()}"
        for f in shown
    )
    if len(out.found) > len(shown):
        lines.append(f"  ... {len(out.found) - len(shown)} more")
    return payload, "\n".join(lines), 0


def _cmd_sweep(args) -> tuple[dict, str, int]:
    _require(args.size >= 2, f"--size must be >= 2, got {args.size}")
    _require(args.workers is None or args.workers >= 1,
             f"--workers must be >= 1, got {args.workers}")
    rows = search.sweep_family(
        args.groups,
        args.size,
        workers=args.workers or os.cpu_count() or 1,
        require_inverse_covering=args.require_inverse_covering,
    )
    payload = {"size": args.size, "results": _jsonable(rows)}
    lines = []
    for row in rows:
        if row.error:
            lines.append(f"{row.spec}: ERROR {row.error}")
        else:
            verdict = f"yes {list(row.witness)}" if row.found else "no"
            lines.append(f"{row.group_name}: {verdict}  ({row.wall_time_ms} ms)")
    failed = [row.error_code for row in rows if row.error_code]
    return payload, "\n".join(lines), failed[0] if failed else 0


def _cmd_validate_group(args) -> tuple[dict, str, int]:
    group = groups.parse_group_spec(args.group)
    report = groups.validate_group(group)
    if not report.ok:  # a builder group or a table the reader accepted
        raise InternalError(f"{report.name} fails its re-check: {report.first_failure}")
    payload = _jsonable(report)
    lines = [f"{report.name}: order {report.order}, {'abelian' if report.abelian else 'non-abelian'}"]
    lines.extend(f"  {axiom}: ok" for axiom in report.axioms)
    lines.append(f"  element-order histogram: {report.order_histogram}")
    lines.append(f"  involutions: {list(report.involutions)}")
    return payload, "\n".join(lines), 0


def _cmd_repro(args) -> tuple[dict, str, int]:
    results = ledger.run(full=args.full)
    all_ok = all(r.ok for r in results)
    lines = [f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}" for r in results]
    lines.append("all checks passed" if all_ok else "SOME CHECKS FAILED")
    return {"checks": _jsonable(results), "all_ok": all_ok}, "\n".join(lines), 0 if all_ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigraphds",
        description=(
            "Bipartite biregular diameter-3 graphs from difference sets: "
            "constructions, exact Moore bounds, and exhaustive covering-set search."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")

    p = sub.add_parser("bound", help="Moore bound for degrees (r, s) and odd diameter")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--m", type=int, default=1, help="half-diameter, d = 2m+1 (default 1)")
    add_json(p)

    p = sub.add_parser("table", help="render the bound grid")
    p.add_argument("--kind", choices=bounds.TABLE_KINDS, required=True)
    p.add_argument("--rmax", type=int, default=12)
    p.add_argument("--smax", type=int, default=12)
    p.add_argument("--format", choices=bounds.TABLE_FORMATS, default="md")
    add_json(p)

    p = sub.add_parser("singer", help="perfect difference set for a prime power q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument(
        "--poly",
        help="primitive cubic over GF(q), comma-separated coefficients, constant first",
    )
    add_json(p)

    p = sub.add_parser("classify", help="classify a candidate set inside a group")
    p.add_argument("--group", required=True, help="cyclic:n | product:a,b | semidirect:m,n,k | file:path")
    p.add_argument("--set", required=True, help="comma-separated indices or generator words")
    add_json(p)

    p = sub.add_parser("graph", help="build the (m+1)-copy bipartite graph of a set")
    p.add_argument("--group", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--m", type=int, required=True, help="number of copies")
    p.add_argument("--check-diameter", action="store_true")
    p.add_argument("--format", choices=bigraph.EXPORT_FORMATS)
    p.add_argument("--out", help="write the export to a file")
    add_json(p)

    p = sub.add_parser("search", help="exhaustive covering-set search")
    p.add_argument("--group", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--require-inverse-covering", action="store_true")
    p.add_argument("--exists-only", action="store_true")
    p.add_argument("--limit", type=int,
                   help="keep the first N sets; the search still runs to the end")
    add_json(p)

    p = sub.add_parser("sweep", help="exists-search over a family of groups")
    p.add_argument("--groups", nargs="+", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--require-inverse-covering", action="store_true")
    p.add_argument("--workers", type=int, help="processes, one group each (default: the CPU count)")
    add_json(p)

    p = sub.add_parser("validate-group", help="re-check the group axioms of a spec")
    p.add_argument("--group", required=True)
    add_json(p)

    p = sub.add_parser("repro", help="run the reproduction checks and print a ledger")
    p.add_argument("--full", action="store_true", help="include the exhaustive searches")
    add_json(p)

    return parser


_HANDLERS = {
    "bound": _cmd_bound,
    "table": _cmd_table,
    "singer": _cmd_singer,
    "classify": _cmd_classify,
    "graph": _cmd_graph,
    "search": _cmd_search,
    "sweep": _cmd_sweep,
    "validate-group": _cmd_validate_group,
    "repro": _cmd_repro,
}


# A handler that returns a non-zero code names its failure by the error class
# with that exit code; code 1 is a failed check.
_FAILURE_TYPES = {cls.exit_code: cls.__name__ for cls in BigraphdsError.__subclasses__()}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        payload, human, code = _HANDLERS[args.command](args)
    except BigraphdsError as exc:
        code, human = exc.exit_code, ""
        envelope = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(f"error: {exc}", file=sys.stderr)
    else:
        envelope = {"payload": payload}
        if code != 0:
            envelope["error"] = {
                "type": _FAILURE_TYPES.get(code, "CheckFailure"),
                "message": "one or more checks or rows failed",
            }
    envelope.update(command=args.command, exit_code=code,
                    wall_time_ms=int((time.monotonic() - t0) * 1000))
    text = json.dumps(envelope, indent=2, sort_keys=True) if getattr(args, "json", False) else human
    try:
        if text:
            print(text, flush=True)
    except BrokenPipeError:
        # The reader closed the pipe; point stdout at devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
