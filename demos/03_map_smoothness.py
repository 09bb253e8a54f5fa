"""The two-branch map and its continuously differentiable seams.

The map is 3x on the gaps, 3x - 2 on [2/3, 1], and a flow conjugated into
the window J_n on each J_n. The slope is exactly 3 off the windows and
3 phi' inside them, and because the flow times alternate sign and shrink
dyadically, the one-sided difference quotients at every seam settle to 3.
"""

from flowcutter import CookieMap, ScaledPoint

cmap = CookieMap.certified()

print("branch samples:")
for x in (1.0, 0.8, 0.15, 0.3, 0.1, 1.0 / 27.0):
    p = ScaledPoint.from_raw(x)
    fx = cmap.apply(p)
    print(f"  F({x:<22.17g}) = {fx.raw:<22.17g} slope {cmap.derivative(p):.9f}"
          f"   [{p.locus.name}, window {p.n}]")

print("\nwindow chain: the scaled right endpoint of J_n maps onto J_(n-1):")
p = ScaledPoint.in_window(6, 1.0)
for _ in range(6):
    q = cmap.apply(p)
    print(f"  J_{p.n} right endpoint -> J_{q.n} right endpoint "
          f"(u stays exactly {q.u})")
    p = q

print("\none-sided difference quotients at the seam 2/3^4 (into J_3):")
rep = cmap.check_c1_boundary(3)
for row in rep.rows:
    if row.location == "2/3^4" and row.side == "right":
        print(f"  h = {row.step:8.1e}   quotient = {row.quotient:.12f}")

print("\nat 0 through window midpoints (the slow direction, paced by t_m):")
for row in rep.midpoint_rows[::3]:
    print(f"  window m = {int(row.step):5d}   quotient = {row.quotient:.12f}")
print("the quotients approach 3 like the flow times T/2^k: the seam at 0")
print("is differentiable, but only logarithmically fast in the step size.")
