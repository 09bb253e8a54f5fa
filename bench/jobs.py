"""The four benchmark workloads: inputs, timed jobs, and output checks.

Each job calls flowcutter only through module attributes looked up at call
time, so the tracer's wrappers see every call. Each job starts from a
freshly certified map, so no `FlowEngine` memo and no cached
`CookieMap.certified` map survives from an earlier repetition; that is the
state every CLI process starts in.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from pathlib import Path

import numpy as np

cli = importlib.import_module("flowcutter.cli")
cookie = importlib.import_module("flowcutter.cookie")
dimension = importlib.import_module("flowcutter.dimension")
distortion = importlib.import_module("flowcutter.distortion")
scaled = importlib.import_module("flowcutter.scaled")
symbolic = importlib.import_module("flowcutter.symbolic")

WORKLOADS = ("sweep", "profile", "intervals", "lemmas")
TOL = 1e-13
REFERENCE_TOL = 1e-14
REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")

SWEEP_DEPTH = 11
PROFILE_DEPTH = 13
PROFILE_THREADS = 2
GRID = 257
REFINE_ITERS = 24
AUDIT = (19, 19, 20)          # n_max, k_max, combined_cap
BOWEN_DEPTH = 16
LEMMA_DRAWS = 100
WITNESS_ORDERS = (2, 4, 6)
C1_WINDOWS = range(0, 11)
# the windows J_3 and J_9, the alternating address that carries the
# distortion maxima, and a word mixing both branches
FIXED_WORDS = ("0001", "0000000001", "1010101010", "0110100110")
CLI_ARGS = ["--format", "json", "verify-lemmas", "--depth", "12"]

# thresholds of the checks. Reference agreement: outputs at tol 1e-13 sit
# within ~1e-14 of the tol 1e-14 reference; 1e-9 leaves room for the
# pressure root's bisection tolerance (1e-10 absolute on s ~ 0.63) and still
# catches a 1e-6 relative change of the field
REFERENCE_RTOL = 1e-9
SLOPE_RESIDUAL_MAX = 1e-8
WITNESS_AGREEMENT_MAX = 1e-8
C1_RESIDUAL_MAX = 1e-5
ARGMAX_TIE_RTOL = 1e-9


def fresh_map(tol: float = TOL):
    """The certified map, certified anew with an empty flow memo."""
    cached = getattr(cookie, "_certified_map", None)
    if cached is not None:
        cached.cache_clear()
    return cookie.CookieMap.certified(grid_n=4096, tol=tol)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def make_inputs(workload: str, seed: int) -> dict:
    """Inputs of one workload. Only `lemmas` draws from the seed; the other
    three are exhaustive over a fixed word tree."""
    if workload != "lemmas":
        return {}
    # n and |tau| run through fixed cycles (n = 1..20, |tau| = 0..5), so
    # every seed costs the same number of flow solves; the seed draws the
    # symbols of tau and the points
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(LEMMA_DRAWS):
        n = 1 + i % 20
        tau = "".join(rng.choice(["0", "1"]) for _ in range(i % 6))
        draws.append(("0" * n + "1" + tau, n, float(rng.uniform(0.05, 0.95))))
    return {"draws": draws}


# ----------------------------------------------------------------------
# jobs: each returns its scientific outputs as JSON-ready values
# ----------------------------------------------------------------------

def job_sweep(inputs: dict, tol: float = TOL) -> dict:
    cmap = fresh_map(tol)
    reports = distortion.bd_sweep(cmap, SWEEP_DEPTH, grid=GRID,
                                  refine_iters=REFINE_ITERS, threads=1)
    return {"c_k": [r.c_k for r in reports],
            "argmax": [str(r.argmax_word) for r in reports],
            "c_theory": reports[0].c_theory,
            "per_word": [r.per_word.tolist() for r in reports]}


def job_profile(inputs: dict, tol: float = TOL,
                threads: int = PROFILE_THREADS) -> dict:
    cmap = fresh_map(tol)
    profile = distortion.sbd_profile(cmap, PROFILE_DEPTH, grid=GRID,
                                     threads=threads)
    return {"r": [p.r for p in profile],
            "beta_hat": [p.beta_hat for p in profile]}


def job_intervals(inputs: dict, tol: float = TOL) -> dict:
    cmap = fresh_map(tol)
    n_max, k_max, cap = AUDIT
    audit = distortion.audit_interval_sizes(cmap, n_max, k_max,
                                            combined_cap=cap)
    s = dimension.bowen_dimension(cmap, BOWEN_DEPTH)
    return {"checked": audit.checked,
            "violations": [[n, str(w)] for n, w in audit.violations],
            "min_slack_factor": audit.min_slack_factor,
            "bowen_s": s,
            "bracket": list(dimension.certified_bracket(cmap.constants))}


def job_lemmas(inputs: dict, tol: float = TOL) -> dict:
    cmap = fresh_map(tol)
    slopes = []
    for word, n, s in inputs.get("draws", ()):
        p = scaled.ScaledPoint.from_raw(s)
        for symbol in reversed(word):
            p = symbolic.inverse_branch(cmap, int(symbol), p)
        landed = p.locus is scaled.Locus.INJ and p.n == n
        got = cmap.iterate(p, n)
        s_n = cmap.schedule.cumulative_time(n)
        want = n * cookie.LN3 + math.log(cmap.engine.flow_derivative(s_n, p.u))
        slopes.append([word, landed, abs(math.expm1(got.log_slope - want))])

    witnesses = [distortion.sbd_witness(cmap, k) for k in WITNESS_ORDERS]
    c1 = [cmap.check_c1_boundary(n).max_final_residual for n in C1_WINDOWS]
    words = [distortion.distortion(cmap, w) for w in FIXED_WORDS]

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--tol", repr(tol)] + CLI_ARGS)
    return {"slopes": slopes,
            "witness_ratio": [w.measured_ratio for w in witnesses],
            "witness_limit": [w.limit_ratio for w in witnesses],
            "witness_margin": [w.margin for w in witnesses],
            "c1_residual": c1,
            "word_distortion": words,
            "cli_exit": code,
            "cli": json.loads(buf.getvalue()) if buf.getvalue() else None}


JOBS = {"sweep": job_sweep, "profile": job_profile,
        "intervals": job_intervals, "lemmas": job_lemmas}


def fingerprint(outputs: dict) -> str:
    """Canonical text of the outputs; floats print by repr, so two equal
    fingerprints mean bitwise-equal results."""
    return json.dumps(outputs, sort_keys=True)


# ----------------------------------------------------------------------
# checks against the theory and the committed reference
# ----------------------------------------------------------------------

def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def check(workload: str, out: dict, ref: dict) -> list[tuple[str, bool, float | None]]:
    """(name, passed, relative error against the reference or None)."""
    rows: list[tuple[str, bool, float | None]] = []

    def agree(name, got, want):
        err = _rel(got, want)
        rows.append((f"{name} matches reference", err <= REFERENCE_RTOL, err))

    r = ref[workload]
    if workload == "sweep":
        agree("C_theory", out["c_theory"], r["c_theory"])
        for depth, (c, word, c_ref, ties) in enumerate(
                zip(out["c_k"], out["argmax"], r["c_k"], r["argmax_ties"]), 1):
            rows.append((f"C_{depth} <= C_theory", c <= out["c_theory"], None))
            agree(f"C_{depth}", c, c_ref)
            rows.append((f"argmax word at depth {depth} matches reference",
                         word in ties, None))
        rows.append(("every depth swept",
                     len(out["c_k"]) == len(r["c_k"]) == SWEEP_DEPTH, None))
    elif workload == "profile":
        delta = r["delta"]
        beta = dict(zip(out["r"], out["beta_hat"]))
        rows.append(("beta_hat(81) >= 1 + delta/2",
                     beta.get(81.0, 0.0) >= 1.0 + delta / 2.0, None))
        for scale, b, b_ref in zip(r["r"], out["beta_hat"], r["beta_hat"]):
            agree(f"beta_hat({scale:g})", b, b_ref)
        rows.append(("every scale profiled", out["r"] == r["r"], None))
    elif workload == "intervals":
        cap = AUDIT[2]
        expected = sum(2 ** d - 1 for d in range(1, cap + 1))
        rows.append(("audit checked == sum(2^d - 1)",
                     out["checked"] == expected == r["checked"], None))
        rows.append(("no size-bound violations",
                     out["violations"] == [] == r["violations"], None))
        agree("min_slack_factor", out["min_slack_factor"], r["min_slack_factor"])
        lo, hi = out["bracket"]
        rows.append(("Bowen s inside certified_bracket",
                     lo < out["bowen_s"] < hi, None))
        agree("Bowen s", out["bowen_s"], r["bowen_s"])
    elif workload == "lemmas":
        for word, landed, residual in out["slopes"]:
            rows.append((f"slope factorization on {word}",
                         landed and residual <= SLOPE_RESIDUAL_MAX, None))
        rows.append(("all lemma draws made", len(out["slopes"]) == LEMMA_DRAWS,
                     None))
        ratios = out["witness_ratio"]
        for k, ratio in zip(WITNESS_ORDERS[1:], ratios[1:]):
            rows.append((f"witness k={k} agrees with k=2",
                         _rel(ratio, ratios[0]) <= WITNESS_AGREEMENT_MAX, None))
        for k, got, lim, want, want_lim in zip(
                WITNESS_ORDERS, ratios, out["witness_limit"],
                r["witness_ratio"], r["witness_limit"]):
            agree(f"witness ratio k={k}", got, want)
            agree(f"witness limit k={k}", lim, want_lim)
        for n, res in zip(C1_WINDOWS, out["c1_residual"]):
            rows.append((f"C1 junction residual n={n}", res <= C1_RESIDUAL_MAX,
                         None))
        for word, got, want in zip(FIXED_WORDS, out["word_distortion"],
                                   r["word_distortion"]):
            agree(f"distortion({word})", got, want)
        rows.append(("verify-lemmas exits 0", out["cli_exit"] == 0, None))
        payload = out["cli"] or {"rows": [], "pass": False}
        got_rows = {row["check"]: row for row in payload["rows"]}
        for want in r["cli_rows"]:
            got = got_rows.get(want["check"], {})
            rows.append((f"verify-lemmas {want['check']} passes",
                         got.get("pass") is True and want["pass"] is True, None))
            if "min_slack" in want:
                agree("verify-lemmas min_slack", got.get("min_slack", math.inf),
                      want["min_slack"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return rows
