"""Regenerate bench/reference.json: every workload's outputs at tol 1e-14.

The timed jobs run at the default tolerance 1e-13, so each output's
deviation from this file is its error against a tighter solve. Run from the
repository root:

    PYTHONPATH=src python3 bench/make_reference.py

It takes about a minute. The file records the commit and library versions
it was made with; regenerate it only when the mathematics changes, never
to absorb a regression.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import jobs


def main() -> int:
    tol = jobs.REFERENCE_TOL
    sweep = jobs.job_sweep({}, tol=tol)
    ties = []
    for c, per_word, depth in zip(sweep["c_k"], sweep["per_word"],
                                  range(1, jobs.SWEEP_DEPTH + 1)):
        near = np.flatnonzero(np.array(per_word) >= c * (1.0 - jobs.ARGMAX_TIE_RTOL))
        ties.append([format(int(i), f"0{depth}b") for i in near])
    profile = jobs.job_profile({}, tol=tol)
    intervals = jobs.job_intervals({}, tol=tol)
    lemmas = jobs.job_lemmas({}, tol=tol)   # seeded draws are checked, not stored

    root = Path(__file__).resolve().parents[1]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                            capture_output=True, text=True).stdout.strip()
    ref = {
        "provenance": {
            "commit": commit, "tol": tol, "grid": jobs.GRID,
            "refine_iters": jobs.REFINE_ITERS, "certify_grid": 4096,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "sweep": {"c_k": sweep["c_k"], "argmax": sweep["argmax"],
                  "argmax_ties": ties, "c_theory": sweep["c_theory"]},
        "profile": {"r": profile["r"], "beta_hat": profile["beta_hat"],
                    "delta": lemmas["witness_margin"][0]},
        "intervals": {k: intervals[k] for k in
                      ("checked", "violations", "min_slack_factor", "bowen_s",
                       "bracket")},
        "lemmas": {"witness_ratio": lemmas["witness_ratio"],
                   "witness_limit": lemmas["witness_limit"],
                   "witness_margin": lemmas["witness_margin"],
                   "c1_residual": lemmas["c1_residual"],
                   "word_distortion": lemmas["word_distortion"],
                   "words": list(jobs.FIXED_WORDS),
                   "cli_rows": lemmas["cli"]["rows"]},
    }
    with open(jobs.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {jobs.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
