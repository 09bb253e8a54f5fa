"""Command-line front end; every analysis, machine-readable output.

Exit codes: 0 success, 1 analysis assertion failed, 2 certification
failed, 64 usage error (an argument out of its domain or over a depth
cap, or an --out path that cannot be written, found before any work),
70 internal fault (any other error, such as a solver failure; the
traceback goes to stderr). Output is bit-stable: no timestamps, no
environment lookups, floats rendered by repr, JSON keys sorted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
import traceback

from . import _checks
from .cookie import CookieMap, interval_J
from .dimension import dimension_estimate
from .distortion import (DEFAULT_GRID, bd_sweep, audit_interval_sizes, sbd_profile,
                         sbd_witness)
from .errors import (BoundViolationError, CertificationError, DepthCapError,
                     DomainError, EscapeError)
from .flow import FlowEngine
from .scaled import PointBatch, ScaledPoint
from .symbolic import enumerate_intervals, inverse_branch

USAGE_ERROR = 64
INTERNAL_ERROR = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="flowcutter", description=__doc__)
    p.add_argument("--tol", type=float, default=1e-13,
                   help="flow solver tolerance (default 1e-13)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write output to a file")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("certify", help="certify T, M, B1")
    s.add_argument("--grid", type=int, default=4096)
    s.set_defaults(func=_cmd_certify)

    s = sub.add_parser("verify-lemmas", help="run the lemma checks")
    s.add_argument("--depth", type=int, default=12)
    s.set_defaults(func=_cmd_verify_lemmas)

    s = sub.add_parser("distortion", help="per-depth distortion maxima")
    s.add_argument("--depth", type=int, default=10)
    s.add_argument("--grid", type=int, default=DEFAULT_GRID)
    s.add_argument("--threads", type=int, default=1)
    s.set_defaults(func=_cmd_distortion)

    s = sub.add_parser("sbd", help="scale-cancelling witness record")
    s.add_argument("--k", type=int, default=2)
    s.set_defaults(func=_cmd_sbd)

    s = sub.add_parser("sbd-profile", help="distortion sup vs image scale")
    s.add_argument("--depth", type=int, default=10)
    s.add_argument("--grid", type=int, default=DEFAULT_GRID)
    s.add_argument("--threads", type=int, default=1)
    s.set_defaults(func=_cmd_sbd_profile)

    s = sub.add_parser("dimension", help="repeller dimension estimate")
    s.add_argument("--depth", type=int, default=12)
    s.add_argument("--method", choices=("bowen", "box"), default="bowen")
    s.set_defaults(func=_cmd_dimension)

    s = sub.add_parser("intervals", help="dump depth-k interval endpoints")
    s.add_argument("--depth", type=int, default=6)
    s.set_defaults(func=_cmd_intervals)
    return p


def _emit(args, payload: dict, rows: list[dict]) -> None:
    """payload as JSON, or rows as CSV headed by their keys as first seen."""
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        fields = list(dict.fromkeys(key for row in rows for key in row))
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(path: str) -> None:
    """Raise DomainError unless path names a file that open(path, "w")
    could create or overwrite; checked before any work is done."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise DomainError(f"cannot write --out {path}: {reason}")


def _cmd_certify(args) -> int:
    constants = FlowEngine(tol=args.tol).certify(grid_n=args.grid)
    row = {"T": constants.T, "M": constants.M, "B1": constants.B1,
           "tol": constants.tol, "grid": constants.grid_n, "ok": True}
    _emit(args, row, [row])
    return 0


def _cmd_verify_lemmas(args) -> int:
    _checks.integer(args.depth, "--depth", 1)
    cmap = CookieMap.certified(tol=args.tol)
    rows = []

    reports = cmap.check_c1_boundaries(range(0, min(args.depth, 10) + 1))
    residual = max(0.0, *(r.max_final_residual for r in reports))
    rows.append({"check": "junction-smoothness", "residual": residual,
                 "pass": residual <= 1e-5})

    # I_{0^n 1} = J_n for n = 1, 2, ...: the ends of I_1 = J_0, pulled back
    # by 0 once per level, are the ends of I_{0^n 1}
    addr = 0.0
    ends = PointBatch.from_points(interval_J(0))
    for n in range(1, min(args.depth, 12) + 1):
        ends, _ = cmap.inverse_batch(0, ends)
        left, right = ends.point(0), ends.point(1)
        ok = (left.n == n and right.n == n)
        addr = max(addr, abs(left.u), abs(right.u - 1.0), 0.0 if ok else 1.0)
    rng = random.Random(20240817)
    slope_res = 0.0
    for n in range(1, min(args.depth, 12) + 1):
        tau = "".join(rng.choice("01") for _ in range(4))
        # the left end of I_{0^n 1 tau}: the point 0 pulled back through it
        p = ScaledPoint.zero()
        for symbol in reversed("0" * n + "1" + tau):
            p = inverse_branch(cmap, int(symbol), p)
        got = cmap.iterate(p, n)
        want = _window_log_slope(cmap, n, p.u)
        slope_res = max(slope_res, abs(got.log_slope - want))
    rows.append({"check": "window-addresses", "residual": addr,
                 "pass": addr == 0.0})
    rows.append({"check": "slope-factorization", "residual": slope_res,
                 "pass": slope_res <= 1e-8})

    audit = audit_interval_sizes(cmap, n_max=args.depth - 1, k_max=args.depth - 1,
                         combined_cap=min(args.depth, 18))
    rows.append({"check": "size-bound", "residual": 0.0 if audit.ok else 1.0,
                 "pass": audit.ok, "min_slack": audit.min_slack_factor})

    ok = all(r["pass"] for r in rows)
    _emit(args, {"rows": rows, "pass": ok}, rows)
    return 0 if ok else 1


def _window_log_slope(cmap: CookieMap, n: int, u: float) -> float:
    """n ln 3 + ln phi'_{s_n}(u): the closed-form slope over a window."""
    t = cmap.schedule.cumulative_time(n)
    return n * math.log(3.0) + math.log(cmap.engine.flow_derivative(t, u))


def _cmd_distortion(args) -> int:
    cmap = CookieMap.certified(tol=args.tol)
    reports = bd_sweep(cmap, args.depth, grid=args.grid, threads=args.threads)
    rows = [{"k": r.depth, "C_k": r.c_k, "C_theory": r.c_theory}
            for r in reports]
    payload = {"rows": [dict(row, argmax_word=str(rep.argmax_word))
                        for row, rep in zip(rows, reports)]}
    _emit(args, payload, rows)
    return 0


def _cmd_sbd(args) -> int:
    cmap = CookieMap.certified(tol=args.tol)
    w = sbd_witness(cmap, args.k)
    row = {"k": w.k, "ratio": w.measured_ratio, "limit_ratio": w.limit_ratio,
           "image_log_size": w.image_log_size}
    payload = dict(row, alpha=w.alpha, beta=w.beta, margin=w.margin)
    _emit(args, payload, [row])
    return 0


def _cmd_sbd_profile(args) -> int:
    cmap = CookieMap.certified(tol=args.tol)
    profiles = sbd_profile(cmap, args.depth, grid=args.grid,
                           threads=args.threads)
    rows = [{"r": p.r, "beta_hat": p.beta_hat} for p in profiles]
    _emit(args, {"rows": rows}, rows)
    return 0


def _cmd_dimension(args) -> int:
    cmap = CookieMap.certified(tol=args.tol)
    est = dimension_estimate(cmap, args.depth, method=args.method)
    row = {"depth": est.depth, "method": est.method, "s": est.value,
           "s_lower": est.lower, "s_upper": est.upper}
    _emit(args, row, [row])
    return 0


def _cmd_intervals(args) -> int:
    cmap = CookieMap.certified(tol=args.tol)
    rows = [{"word": str(iv.word), "left": iv.left.raw, "right": iv.right.raw,
             "log_size": iv.log_size}
            for iv in enumerate_intervals(cmap, args.depth)]
    _emit(args, {"rows": rows}, rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else USAGE_ERROR
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except (DomainError, DepthCapError) as exc:
        print(f"flowcutter: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CertificationError as exc:
        print(f"flowcutter: certification failed: {exc}", file=sys.stderr)
        return 2
    except (BoundViolationError, EscapeError) as exc:
        print(f"flowcutter: analysis failed: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        print("flowcutter: internal fault", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
