"""How tall is a uniform Motzkin tree, and how does that depend on the
mix of node degrees?

With c binary nodes among n, mean height grows like n / sqrt(c): unary
nodes stretch the tree vertically without adding width.  Two scans make
that visible: along the unary fraction at fixed n (height/sqrt(n) climbs),
and across sizes at a fixed fraction (height * sqrt(c) / n holds still).
"""

from lukatree import height_scan_csv, run_height_scan

print("uniform Motzkin trees, n = 900, 4000 trees per row (seed 0):\n")
scan = run_height_scan(900, (0.0, 0.3, 0.6, 0.9), 4000, seed=0)
print("  unary     mean      height     height *")
print("  fraction  height    / sqrt(n)  sqrt(c) / n")
for row in scan:
    print(
        f"  {row.fraction:4.1f}      {row.mean_height:7.2f}   {row.mean_height_over_sqrt_n:6.3f}"
        f"     {row.mean_norm:6.3f}"
    )
print("\nraw height grows as unary nodes displace binary ones, while the")
print("last column barely moves: sqrt(c)/n * height is the right scale.")

print("\nsame fraction (0.5), three sizes, 4000 trees each:\n")
print("      n    mean height    height * sqrt(c) / n")
for n in (400, 900, 1600):
    row = run_height_scan(n, (0.5,), 4000, seed=1)[0]
    print(f"  {n:5d}    {row.mean_height:11.2f}    {row.mean_norm:9.3f}")
print("\nthe normalized column is size-independent, the raw one is not.")

print("\nthe same numbers as machine-readable CSV:")
print(height_scan_csv(scan), end="")
