"""Binary addresses and the shrinking interval hierarchy.

Each word w over {0,1} names the interval I_w of points whose first |w|
iterates visit the branch pieces it spells. The family at depth k tiles
the surviving set with 2^k intervals in lexicographic = spatial order, and
the special addresses 0^n 1 recover the windows J_n exactly.
"""

import math

from flowcutter import (CookieMap, basic_interval, decompose_blocks,
                        enumerate_intervals, interval_table, audit_interval_sizes)

cmap = CookieMap.certified()

print("depth-3 intervals, left to right:")
for iv in enumerate_intervals(cmap, 3):
    print(f"  I_{iv.word} = [{iv.left.raw:.10f}, {iv.right.raw:.10f}]"
          f"   size {iv.size:.3e}")

print("\nwindow addresses: I_(0^n 1) lands exactly on J_n:")
for n in (1, 4, 8, 12):
    iv = basic_interval(cmap, "0" * n + "1")
    print(f"  n={n:2d}: endpoints u = ({iv.left.u}, {iv.right.u}) "
          f"in window {iv.left.n}, log size {iv.log_size:+.6f} "
          f"(exact {-(n + 1) * math.log(3):+.6f})")

print("\nrun structure of a word and its tail lengths:")
word = "0011011"
d = decompose_blocks(word)
print(f"  {word} -> blocks {d.blocks}, tails {d.tails}")

print("\ntotal length of the depth-k cover (a strictly shrinking sequence):")
for k in (2, 4, 6, 8, 10):
    total = sum(math.exp(v) for v in interval_table(cmap, k).log_sizes())
    print(f"  depth {k:2d}: {total:.6f}")

print("\nsize-bound audit |I_(0^n 1 tau)| <= 3^(1-n) 2^(-k-2):")
audit = audit_interval_sizes(cmap, 8, 8, combined_cap=10)
print(f"  {audit.checked} intervals checked, violations: "
      f"{len(audit.violations)}, worst slack factor {audit.min_slack_factor:.3f}")
