# Spectrum analysis of a single map
#
# How to measure a function GF(2^n) -> GF(2^n): its difference distribution
# table, its Walsh spectrum, and the derived quantities (differential
# uniformity, nonlinearity, APN / almost-bent flags).

from collections import Counter

from gf2lab import (
    build_lut,
    classify,
    ddt_rows,
    differential_uniformity,
    field_make,
    nonlinearity,
    walsh_row,
    walsh_spectrum,
)

# -- Materializing a map ----------------------------------------------------
#
# Everything operates on a full lookup table.  For power maps x^d the table
# is gathered from the log/exp tables of a generator g: g^i -> g^(i*d).

s = field_make(8)
f = build_lut(s, 21)  # x^21 = x^(2^4 + 2^2 + 1) on GF(2^8)
print(f"map x^21 on GF(2^{s.n}), first eight values:",
      [hex(int(v)) for v in f.lut[:8]])

# -- Difference distribution ------------------------------------------------
#
# Row a of the DDT counts, for each output difference b, the solutions x of
# f(x + a) + f(x) = b.  Counts come in pairs {x, x + a}, so they are even
# and each row sums to 2^n.  The maximum over all a != 0 is the
# differential uniformity delta.

delta = differential_uniformity(f)
print(f"\ndifferential uniformity delta = {delta}")

# The rows themselves are streamed one a at a time, never materialized
# as a whole table:
first = next(iter(ddt_rows(f)))
assert first.a == 1 and int(first.counts.max()) <= delta
print("row a=1 count histogram:", dict(Counter(first.counts.tolist())))

# -- Walsh spectrum ---------------------------------------------------------
#
# The Walsh coefficient at (a, b) correlates the linear form Tr(a*x) with
# the component Tr(b*f(x)); the full sweep does one fast transform per b.

ws = walsh_spectrum(f)
print(f"\nWalsh extremum max|coef| = {ws.max_abs}")
print("coefficient value histogram:", dict(sorted(ws.histogram.items())))
print(f"nonlinearity = 2^(n-1) - max/2 = {nonlinearity(f)}")

# One row (fixed component b) on demand:
row = walsh_row(f, 0x1)
assert int(abs(row).max()) <= ws.max_abs

# -- Classification flags ---------------------------------------------------
#
# classify() bundles the measurements: delta, nonlinearity, bijectivity, APN
# (delta = 2), and -- on odd-degree fields -- the almost-bent property,
# which asks for the three-valued spectrum {0, +-2^((n+1)/2)}.

# For a power-map table it uses the orbit engine of gf2lab.spectra, which
# gives the same exact answers as the full sweeps above.
summary = classify(f)
assert summary.delta == delta and summary.lam == ws.histogram
print(f"\nx^21 on GF(2^8): delta={summary.delta}, nl={summary.nl}, "
      f"permutation={summary.is_permutation}, apn={summary.is_apn}")

# The cube map on GF(2^5) is the textbook almost-bent example:
cube = classify(build_lut(field_make(5), 3))
print(f"x^3 on GF(2^5): delta={cube.delta}, spectrum values "
      f"{sorted(cube.lam)}, almost_bent={cube.is_ab}")

# Spectra are basis-independent: the same exponent measured under a
# different irreducible modulus gives the same histogram.
other = walsh_spectrum(build_lut(field_make(8, 0x11D), 21))
assert other.histogram == ws.histogram
print("\nsame spectrum under modulus 0x11d: checked")
