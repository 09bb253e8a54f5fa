"""Certifying the constants that the map construction leans on.

Three numbers matter: B1 = sup |X'| (how fast nearby orbits can separate),
the horizon T chosen so exp(T B1) <= 3/2 (which pins the flow multiplier
above 2/3), and M, a verified ceiling on the second spatial derivative of
the flow for |t| <= 1. Everything else in the package treats these as
gospel, so they are computed by grid scan plus golden-section refinement
and then re-verified pointwise.

Certification reads phi_t' and phi_t'' in closed form from one
displacement solve per flow time. The sweeps below integrate the
variational equations with `evolve` instead, so they check the certified
floor and ceiling by an independent method.
"""

import math

import numpy as np

from flowcutter import FlowEngine

engine = FlowEngine(tol=1e-13)
consts = engine.certify(grid_n=4096)
print(f"B1 (slope bound)      = {consts.B1:.12f}")
print(f"T  (flow horizon)     = {consts.T}")
print(f"M  (curvature bound)  = {consts.M:.6f}")
print(f"exp(T*B1)             = {math.exp(consts.T * consts.B1):.6f}  (must be <= 1.5)")

xs = np.linspace(0.0, 1.0, 4097)

print("\nmultiplier floor phi_t' >= 2/3 on the certification grid:")
for t in (consts.T, -consts.T, consts.T / 4):
    _, v = engine.evolve(t, xs, order=1)
    print(f"  t={t:+.3f}: min phi' = {v.min():.6f}  "
          f"(envelope [{math.exp(-consts.B1 * abs(t)):.6f}, "
          f"{math.exp(consts.B1 * abs(t)):.6f}])")

print("\ncurvature never exceeds the certified M:")
for t in (1.0, 0.5, 0.25):
    _, _, w = engine.evolve(t, xs, order=2)
    print(f"  t={t:+.3f}: max |phi''| = {np.max(np.abs(w)):.6f}  <= M = {consts.M:.6f}")
