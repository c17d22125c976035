"""Walk through the counterexample where genericity genuinely fails.

The cast: SL(6, C) acting on antisymmetric 6x6 matrices by g . M = g M g^t,
the base point v0 = diag(J, J, J) with J = [[0, 1], [-1, 0]], and the
subgroup H = SL(2) sitting in the upper-left block.

Generic translates g . v0 have closed H-orbits and trivial H-stabilizers.
But one explicit unipotent translate has a one-dimensional H-stabilizer
spanned by a nilpotent matrix - a non-reductive stabilizer - which forces
the H-orbit through that point to be non-closed, even though the ambient
SL(6)-orbit of the very same point is closed.

Run:  python demos/counterexample_walkthrough.py
"""

import numpy as np

import orbitlab as ol

G = ol.special_linear(6, "complex")
H = ol.block_embedding(ol.special_linear(2, "complex"), 6, 0)
rep = ol.alt_bilinear(G)
v0 = ol.standard_symplectic_form(6, "complex")

print("base point v0 = diag(J, J, J), |v0|^2 =", ol.inner_product(rep, v0, v0))

# v0 is a minimal vector: the moment map on the Hermitian part of G's
# Cartan split vanishes there, so its ambient orbit is closed without
# running any flow.
print("relative moment norm at v0:",
      f"{ol.relative_moment_norm(rep, G, v0):.2e}",
      "-> minimal vector, closed ambient orbit")

algebra = ol.lie_algebra_basis(G)
orbit = ol.orbit_dimension_info(rep, algebra, v0)
print("dim_C SL(6).v0 =", orbit.rank, f"(ambiguous: {orbit.ambiguous})",
      "(stabilizer: the 21-dim symplectic algebra of the form v0)")

# The special translate: identity plus a single 1 in the (1, 3) entry.
g = np.eye(6, dtype=complex)
g[0, 2] = 1.0
x = ol.act(rep, g, v0)
print("\nspecial translate x = g . v0:")
print(np.array2string(x.real, precision=0))

h_algebra = ol.lie_algebra_basis(H)
stab = ol.stabilizer_subalgebra(rep, h_algebra, x)
print("\nH-stabilizer of x has dimension", stab.dim)
print("its generator (the embedded strictly upper-triangular matrix):")
print(np.array2string(stab.matrices[0].real[:2, :2], precision=3))
print("element type:", ol.element_type(stab.matrices[0]))

report = ol.reductivity_verdict(stab)
print("reductivity verdict:", report.verdict)

# A non-reductive stabilizer on a closed orbit is impossible, so H . x
# cannot be closed.  The flow confirms both halves.
h_verdict = ol.closedness_verdict(rep, H, x)
print("\nH-orbit of x:", h_verdict.status,
      f"(dims {h_verdict.start_orbit_dim} -> {h_verdict.limit_orbit_dim},",
      f"{h_verdict.trace.iterations_used} flow iterations)")

g_verdict = ol.closedness_verdict(rep, G, x)
print("SL(6)-orbit of x:", g_verdict.status,
      f"(dims {g_verdict.start_orbit_dim} -> {g_verdict.limit_orbit_dim})")

# And at a *random* translate everything is generic again.
g_rand = ol.random_group_element(G, seed=1, spread=0.5)
y = ol.act(rep, g_rand, v0)
print("\nrandom translate: H-stabilizer dim =",
      ol.stabilizer_subalgebra(rep, h_algebra, y).dim,
      "| H-orbit:", ol.closedness_verdict(rep, H, y).status)
