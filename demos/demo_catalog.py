# The catalog of differentially 4-uniform power families
#
# Four classical families of exponents reach differential uniformity 4 on
# even-degree fields: Gold 2^s+1, Kasami 2^(2s)-2^s+1, field inversion
# 2^n-2, and the degree-4k exponent 2^(2k)+2^k+1.  The catalog instantiates
# them, states their side conditions, and re-measures everything exactly.

from gf2lab import (
    build_lut,
    catalog_table,
    classify,
    family_exponent,
    field_make,
    inverse_map,
    permutation_check,
)
from gf2lab.catalog import conditions_met

# -- Exponents and side conditions ------------------------------------------

for fam, kw in [("gold", dict(n=6, s=2)), ("kasami", dict(n=6, s=2)),
                ("inverse", dict(n=8)), ("dobbertin", dict(k=3))]:
    fs = family_exponent(fam, **kw)
    print(f"{fam:10s} n={fs.n:2d} d={fs.d:4d} conditions met: {conditions_met(fs)}")

# The conditions matter.  Gold with gcd(n, s) != 2 (or n/2 even) loses the
# prediction; the degree-4k family needs k odd to be a permutation:
print("\ndobbertin k=2 (even):", conditions_met(family_exponent("dobbertin", k=2)))

# Bijectivity of x^d is a gcd condition -- no table needed:
for n, d in [(4, 7), (8, 21), (12, 73)]:
    print(f"x^{d} on GF(2^{n}): {permutation_check(n, d)}")

# -- Inversion --------------------------------------------------------------
#
# The inversion table maps 0 to 0 and x to x^(-1) otherwise; it equals the
# power map x^(2^n - 2) and is an involution.

s = field_make(8)
inv = inverse_map(s)
summary = classify(inv)
print(f"\ninversion on GF(2^8): delta={summary.delta}, nl={summary.nl}, "
      f"permutation={summary.is_permutation}")

# -- The measured table -----------------------------------------------------
#
# catalog_table() measures every family member realizable up to the given
# degree exactly, through the power-map orbit engine of gf2lab.spectra,
# and attaches the prediction when the side conditions hold.

print(f"\n{'family':10s} {'n':>3} {'d':>5} {'cond':>5} {'delta':>6} "
      f"{'nl':>5} {'perm':>5}")
for e in catalog_table(12):
    print(f"{e.family.family:10s} {e.family.n:>3} {e.family.d:>5} "
          f"{str(e.conditions_met):>5} {e.summary.delta:>6} "
          f"{e.summary.nl:>5} {str(e.summary.is_permutation):>5}")

# Note the one unconditioned row: the degree-4k exponent with k = 2 keeps
# delta = 4 but stops being a permutation (gcd(21, 255) = 3), which is
# exactly what its side condition predicts by excluding even k.

# A family member outside the shipped rows is measured the same way:
fs = family_exponent("kasami", n=10, s=4)
summary = classify(build_lut(field_make(10), fs.d))
print(f"\nkasami n=10 s=4 (d={fs.d}): delta={summary.delta}, nl={summary.nl}")
