"""Tour of the two warped product geometries.

Both ambient spaces live on a circle factor times a one dimensional base.
A "left" product scales the circle direction by a warp that depends on the
base point; a "right" product scales the base by a warp that depends on the
circle coordinate. This script builds one of each, inspects the metric and
Christoffel symbols at a few points, and checks the structural identities
that hold at every point of either space.
"""

import numpy as np

import wcsf

rng = np.random.default_rng(7)

# left: circle direction weighted by psi(x) = e^{0.3 cos x}
left = wcsf.WarpedProduct(wcsf.LEFT, warp=wcsf.FourierField.exp_cos(0.3))
# right: base weighted by phi(r) = e^{0.2 cos r}
right = wcsf.WarpedProduct(wcsf.RIGHT, warp=wcsf.FourierField.exp_cos(0.2))

print("== metric at sample points ==")
for name, manifold in (("left", left), ("right", right)):
    p = wcsf.WarpPoint(0.7, (1.1,))
    g = wcsf.metric_at(manifold, p)
    print(f"{name}: G(r=0.7, x=1.1) =")
    print(np.array_str(g, precision=6))

print()
print("== Christoffel symbols (nonzero entries, left product) ==")
p = wcsf.WarpPoint(0.0, (0.5,))
arr = wcsf.christoffel_at(left, p)
for idx in np.argwhere(np.abs(arr) > 1e-14):
    a, b, c = idx
    print(f"  Gamma^{a}_{{{b}{c}}} = {arr[a, b, c]: .8f}")

print()
print("== structural identities at random points ==")
# identity one: the circle direction has constant inner product structure
# against the metric; identity two (right products): the metric is conformal
# to a product metric. Both residuals vanish identically.
worst_dr = 0.0
worst_conf = 0.0
for _ in range(200):
    p = wcsf.WarpPoint(rng.uniform(0, 2 * np.pi),
                       (rng.uniform(0, 2 * np.pi),))
    xv = wcsf.TangentVec(rng.normal(size=2))
    yv = wcsf.TangentVec(rng.normal(size=2))
    for manifold in (left, right):
        worst_dr = max(worst_dr,
                       abs(wcsf.dr_identity_residual(manifold, p, xv, yv)))
    worst_conf = max(worst_conf, abs(wcsf.conformal_residual(right, p, xv)))
print(f"circle-direction identity, worst residual: {worst_dr:.3e}")
print(f"conformal identity (right), worst residual: {worst_conf:.3e}")

print()
print("== warp gradient on the left product ==")
# the gradient of log psi drives the r-circle dynamics: shortening pushes
# an r-circle against the gradient, toward smaller warp, so its base point
# obeys dx/dt = -(log psi)'(x) = 0.3 sin x
for x in (0.0, np.pi / 2, np.pi):
    grad = wcsf.warp_gradient(left, wcsf.WarpPoint(0.0, (x,)))
    print(f"  x = {x:.4f}: -grad log psi = {-grad.components[1]: .6f} "
          f"(0.3 sin x = {0.3 * np.sin(x): .6f})")
print("r-circles at warp critical points are closed geodesics.")
