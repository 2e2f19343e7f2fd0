# Replaying the analysis of x^(2^(2k)+2^k+1) on GF(2^(4k))
#
# The map f(x) = x^(2^(2k)+2^k+1) on GF(2^(4k)) has differential uniformity
# exactly 4 and Walsh extremum 2^(2k+1).  Instead of trusting those claims,
# this package re-derives them mechanically on concrete fields: every
# identity used along the way is checked on every solution, and any
# violation raises VerificationError naming the failing step.

from collections import Counter

from gf2lab import (
    diff_solution_count,
    dobbertin_exponent,
    m4_sum_check,
    mm_basis,
    mm_walsh_crosscheck,
    pi_fiber,
    pi_image,
    quartic_roots,
    reduction_sweep,
    reduction_trace,
    run_all_checks,
)

k = 1
print(f"k={k}: exponent d = {dobbertin_exponent(k)} on GF(2^{4 * k})")

# -- The difference equation ------------------------------------------------
#
# Differential uniformity bounds the solution count of f(x+a) + f(x) = b
# over all pairs (a, b) with a != 0.  Counting directly from the lookup
# table is the ground truth everything else is compared against.

for a, b in [(1, 1), (1, 9), (1, 2)]:
    count, sols = diff_solution_count(k, a, b)
    print(f"a={a:#x} b={b:#x}: {count} solutions {sorted(hex(x) for x in sols)}")

# -- One full replay --------------------------------------------------------
#
# reduction_trace normalizes the equation (x -> x*a), forms the constant
# c and its four-term relative trace t, and then follows one of two routes:
# t = 1 collapses to a single quadratic; t != 1 halves the problem twice
# and ends at a pair of quadratics.  Either way the roots, filtered by the
# expanded product identity, must reproduce the directly counted solutions.

tr = reduction_trace(k, 1, 1)
print(f"\npair (1,1): branch {tr.branch}, c={tr.c:#x}, t={tr.t:#x}")
print("  checks passed:", ", ".join(tr.checks))
print("  solutions recovered via quadratics:",
      sorted(hex(x) for x in tr.solutions_via_quadratics))

tr = reduction_trace(k, 1, 9)
print(f"pair (1,9): branch {tr.branch}, auxiliary r={tr.aux['r']:#x}, "
      f"s={tr.aux['s']:#x}, {len(tr.solutions_direct)} solutions")

# Some pairs are ruled out before any quadratic is solved: the halving step
# produces a candidate that violates its own subfield/trace constraints,
# which certifies the equation has no solutions at all.
tr = reduction_trace(k, 1, 2)
print(f"pair (1,2): obstruction = {tr.obstruction}, "
      f"solutions = {sorted(tr.solutions_direct)}")

# -- Sweeping every pair ----------------------------------------------------

report = reduction_sweep(1)  # exhaustive: all 15 * 16 pairs
print(f"\n{report.name}: {report.instances} pairs, {report.failures} failures")
report = reduction_sweep(3, samples=500)  # sampled on the 4096-element field
print(f"{report.name}: {report.instances} pairs, {report.failures} failures")

# -- The split-coordinate (Maiorana-McFarland) structure --------------------
#
# For the Walsh side, the component g(x) = Tr(gamma^2 x^d) is rewritten
# over coordinates x = y + omega*a with y, a in the half-degree subfield.
# mm_basis constructs the witness (gamma, alpha, omega) and verifies its
# invariants on the spot.  It holds the half field as members, each tagged
# by its image u under the inner map below; the mm-fibers and mm-quartic
# rows certify the fibers those tags draw.

w = mm_basis(2)
print(f"\nk=2 witness: gamma={w.gamma:#x}, alpha={w.alpha:#x}, omega={w.omega:#x}")

# In the new coordinates g is linear in y with inner map
# pi(a) = gamma*a^(2^(k-1)) + gamma^2*a^(2^k+1); Walsh coefficients become
# sums over the fibers of pi, so fiber sizes control coefficient sizes.
size = Counter(w.images.tolist())  # u -> the size of its fiber
print("fiber size histogram:", dict(sorted(Counter(size.values()).items())))

a0 = min(a for a, u in zip(w.members.tolist(), w.images.tolist()) if size[u] == 2)
u = pi_image(w, a0)
print(f"fiber of pi({a0:#x}) = {u:#x}:", sorted(hex(x) for x in pi_fiber(w, u)))

# Fibers are cut out by a linearized quartic; its subfield roots biject
# with the fiber through a0 + c^2:
qr = quartic_roots(w, a0)
print("quartic roots restricted to the subfield:",
      sorted(hex(c) for c in qr.roots_subfield))

# Each fiber-sum coefficient is cross-checked against an independent fast
# transform of the full map:
val = mm_walsh_crosscheck(w, u, 0xC)
print(f"coefficient at (u={u:#x}, v=0xc) both ways: {val}")

# Size-4 fibers -- which first appear at k = 3 -- are where the extremal
# coefficient 2^(2k+1) comes from: their four trace bits always sum odd,
# forcing a 3-against-1 sign split.
w3 = mm_basis(3)
print(f"\nk=3 fiber sizes: "
      f"{dict(sorted(Counter(Counter(w3.images.tolist()).values()).items()))}")
rep = m4_sum_check(w3)
print(f"{rep.name}: {rep.instances} instances, {rep.failures} failures "
      f"(extremal magnitude 2^7 = {1 << 7})")

# -- Everything at once -----------------------------------------------------

print("\nfull check table for k=1 and k=2:")
for r in run_all_checks([1, 2], samples=200):
    print(f"  {r.name:32s} {r.instances:>7} instances  {r.failures} failures")
