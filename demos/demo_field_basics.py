# Field arithmetic basics
#
# A walk through the exact-arithmetic layer: constructing GF(2^n), the four
# field operations, traces, and the linearized-equation solver.  Run it top
# to bottom; every printed claim is recomputed on the spot.

from gf2lab import (
    FieldConstructionError,
    FieldSpec,
    default_poly,
    f_add,
    f_inv,
    f_mul,
    f_pow,
    field_make,
    frobenius,
    solve_linearized,
    trace_abs,
    trace_rel,
)

# -- Constructing a field ---------------------------------------------------
#
# Elements are plain integers: bit i holds the coefficient of x^i.  A field
# is a degree plus an irreducible modulus; when you don't name a modulus the
# lexicographically least irreducible polynomial is chosen, so everyone who
# says "GF(2^8)" gets the same basis.

s = field_make(8)
print(f"GF(2^{s.n}) with modulus {s.poly:#x} (that is x^8+x^4+x^3+x+1)")
print("default moduli for n=2..8:", [hex(default_poly(n)) for n in range(2, 9)])

# A modulus of your own is accepted only if it is irreducible; the error
# message names the degree of a factor otherwise.
try:
    field_make(4, 0x15)  # x^4 + x^2 + 1 = (x^2 + x + 1)^2
except Exception as e:
    print("rejected modulus:", e)

# The check belongs to FieldSpec itself, so a spec made directly is refused
# the same way.  In the ring modulo x^4 + x^2 + 1, 3 * 5 = 15 and 3 has no
# inverse, so an unchecked spec would give f_inv answers that are wrong.
try:
    FieldSpec(4, 0x15)
except FieldConstructionError as e:
    print("rejected spec:   ", e)
else:
    raise SystemExit("FieldSpec(4, 0x15) was accepted")
default4 = FieldSpec(4)
print(f"default GF(2^4):  modulus {default4.poly:#x}, the same field as field_make(4):",
      default4 == field_make(4))

# -- The four operations ----------------------------------------------------

a, b = 0x57, 0x83
print(f"\na = {a:#x}, b = {b:#x}")
print(f"a + b     = {f_add(s, a, b):#x}   (xor of coefficient vectors)")
print(f"a * b     = {f_mul(s, a, b):#x}")
print(f"a^11      = {f_pow(s, a, 11):#x}")
print(f"a^(-1)    = {f_inv(s, a):#x}, check a * a^(-1) = {f_mul(s, a, f_inv(s, a)):#x}")

# Squaring is linear in characteristic 2 -- the "freshman's dream" holds:
lhs = f_pow(s, f_add(s, a, b), 2)
rhs = f_add(s, f_pow(s, a, 2), f_pow(s, b, 2))
print(f"(a+b)^2 = {lhs:#x} = a^2 + b^2 = {rhs:#x}")

# frobenius(s, a, e) is a^(2^e) done by e squarings; e = n is the identity.
assert frobenius(s, a, 8) == a

# -- Traces -----------------------------------------------------------------
#
# The absolute trace Tr(a) = a + a^2 + ... + a^(2^(n-1)) always lands in
# {0, 1} and is balanced: exactly half the field has trace 1.

ones = sum(trace_abs(s, x) for x in range(s.size))
print(f"\nelements with trace 1 in GF(2^8): {ones} of {s.size}")

# The relative trace projects onto a subfield.  GF(2^8) over GF(2^4):
y = trace_rel(s, 4, a)
print(f"relative trace of a onto GF(2^4): {y:#x}")
print("fixed by the 4-fold Frobenius:", frobenius(s, y, 4) == y)

# Composing the subfield trace with the relative trace recovers the
# absolute one (transitivity):
sub_tr = 0
for i in range(4):
    sub_tr ^= frobenius(s, y, i)
assert sub_tr == trace_abs(s, a)
print("trace transitivity checked for a")

# -- Linearized equations ---------------------------------------------------
#
# A linearized polynomial is a sum of terms c * x^(2^e); as a map it is
# GF(2)-linear, so its equations reduce to linear algebra over bits.  The
# solver returns the exact solution set -- empty or a coset of the kernel.

# x^2 + x = c is the classic case: solvable iff Tr(c) = 0, with two roots.
for c in (0x00, 0x02, 0x57):
    sols = solve_linearized(s, [(1, 1), (1, 0)], c)
    print(f"x^2 + x = {c:#x}: trace {trace_abs(s, c)}, "
          f"solutions {sorted(hex(x) for x in sols)}")

# A three-term example; every solution is re-checked by substitution.
coeffs = [(0x03, 2), (0x01, 1), (0x05, 0)]
rhs = 0x0E
sols = solve_linearized(s, coeffs, rhs)
print(f"\n0x3*x^4 + x^2 + 0x5*x = {rhs:#x} has {len(sols)} solutions:",
      sorted(hex(x) for x in sols))
for x in sorted(sols):
    acc = 0
    for c, e in coeffs:
        acc ^= f_mul(s, c, frobenius(s, x, e))
    assert acc == rhs
print("all solutions verified by substitution")
