"""Watch the norm-minimizing flow distinguish three kinds of orbits.

The flow moves a vector inside its orbit by Newton steps along the
Hermitian part of the Lie algebra, each to the lowest norm on its ray.
Where it ends up tells the story:

  * closed orbit      - the flow stops at a minimal vector of the same
                        dimension as the start;
  * non-closed orbit  - the flow converges onto a strictly smaller orbit
                        sitting in the closure;
  * nullcone vector   - the norm collapses all the way to zero.

Run:  python demos/norm_flow_traces.py
"""

import numpy as np

import orbitlab as ol


def show(title, trace, shown=8):
    norms = trace.norms
    picks = np.unique(np.linspace(0, len(norms) - 1, shown).round().astype(int))
    line = " -> ".join(f"{norms[i]:.4f}" for i in picks)
    print(f"{title}")
    print(f"  norms: {line}")
    print(f"  iterations {trace.iterations_used}, reason {trace.reason!r}, "
          f"final relative moment norm {trace.moment_norms[-1]:.2e}\n")


sl2 = ol.special_linear(2, "complex")
rep = ol.sym2(sl2)

# 1. closed orbit: nonzero discriminant, started away from its minimum
m_closed = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
show("closed orbit (det != 0):", ol.norm_flow(rep, sl2, m_closed))

# 2. nullcone: rank-one symmetric matrix, det = 0
m_null = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
show("nullcone vector (det = 0):", ol.norm_flow(rep, sl2, m_null))

# 3. non-closed orbit in the 6x6 antisymmetric model: the special translate
G = ol.special_linear(6, "complex")
H = ol.block_embedding(sl2, 6, 0)
alt = ol.alt_bilinear(G)
v0 = ol.standard_symplectic_form(6, "complex")
g = np.eye(6, dtype=complex)
g[0, 2] = 1.0
x = ol.act(alt, g, v0)
trace = ol.norm_flow(alt, H, x)
show("non-closed block orbit at the special translate:", trace)
print("distance from the flow limit to the base form:",
      f"{np.linalg.norm(trace.limit_point - v0):.2e}")
print("the limit lies in the closure of the block orbit, one stratum down:")
verdict = ol.closedness_verdict(alt, H, x)
print(f"  orbit dimension {verdict.start_orbit_dim} at the start, "
      f"{verdict.limit_orbit_dim} at the limit -> {verdict.status}")
