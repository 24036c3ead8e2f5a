"""Tour of the two warped product geometries.

Both ambient spaces live on a circle factor times a one dimensional base.
A "left" product scales the circle direction by a warp that depends on the
base point; a "right" product scales the base by a warp that depends on the
circle coordinate. This script builds one of each, inspects the metric and
Christoffel symbols at a few points, and follows the warp gradient that
moves r-circles on the left product. Every geometric quantity is evaluated
on an (N, 2) array of points (r, x) at once.
"""

import numpy as np

import wcsf

# left: circle direction weighted by psi(x) = e^{0.3 cos x}
left = wcsf.WarpedProduct(wcsf.LEFT, warp=wcsf.FourierField.exp_cos(0.3))
# right: base weighted by phi(r) = e^{0.2 cos r}
right = wcsf.WarpedProduct(wcsf.RIGHT, warp=wcsf.FourierField.exp_cos(0.2))

print("== metric at sample points ==")
for name, manifold in (("left", left), ("right", right)):
    g, _ = manifold.frame(np.array([[0.7, 1.1]]))
    print(f"{name}: G(r=0.7, x=1.1) =")
    print(np.array_str(g[0], precision=6))

print()
print("== Christoffel symbols (nonzero entries, left product) ==")
_, gamma = left.frame(np.array([[0.0, 0.5]]))
arr = gamma[0]
for idx in np.argwhere(np.abs(arr) > 1e-14):
    a, b, c = idx
    print(f"  Gamma^{a}_{{{b}{c}}} = {arr[a, b, c]: .8f}")

print()
print("== warp gradient on the left product ==")
# the gradient of log psi drives the r-circle dynamics: shortening pushes
# an r-circle against the gradient, toward smaller warp, so its base point
# obeys dx/dt = -(log psi)'(x) = 0.3 sin x
xs = np.array([0.0, np.pi / 2, np.pi])
raised, _ = left.dlog_warp(xs)      # the x-component of D log psi
for x, grad in zip(xs, raised):
    print(f"  x = {x:.4f}: -grad log psi = {-grad: .6f} "
          f"(0.3 sin x = {0.3 * np.sin(x): .6f})")
print("r-circles at warp critical points are closed geodesics.")
