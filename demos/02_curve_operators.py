"""Discrete curve operators and their accuracy.

A closed graphical curve is sampled at M uniform circle nodes and all
geometric quantities (speed, tangent, curvature, angle, length) come from
spectral differentiation, so smooth data converges faster than any power
of 1/M. This script spot-checks the operators against closed forms. The
arclength operators take node values and the curve's speed |gamma'|, so
a curve's fields are computed once and reused.
"""

import numpy as np

import wcsf

product = wcsf.WarpedProduct(wcsf.LEFT, warp=1.0)
left = wcsf.WarpedProduct(wcsf.LEFT, warp=wcsf.FourierField.exp_cos(0.3))

# a graph x = 0.5 sin r over the circle
half_sine = wcsf.FourierField([0.0], [0.0, 0.5])

print("== plane-curve check in the product metric ==")
# with a constant warp the ambient space is flat, so the curvature norm
# must match the classical plane formula |f''| / (1 + f'^2)^(3/2)
for m in (32, 64, 128):
    curve = wcsf.make_graph_curve(half_sine, m)
    fields = wcsf.compute_fields(curve, product)
    u = 2.0 * np.pi * np.arange(m) / m
    fp = 0.5 * np.cos(u)
    fpp = -0.5 * np.sin(u)
    kappa = np.abs(fpp) / (1.0 + fp ** 2) ** 1.5
    err = np.abs(fields.curvature_norm - kappa).max()
    print(f"  M = {m:4d}: max |A - kappa_plane| = {err:.3e}")

print()
print("== length of an r-circle in the left warped metric ==")
# the circle fiber at base point x has length 2 pi psi(x)
for x0 in (0.0, 1.0, np.pi):
    circle = wcsf.make_graph_curve(wcsf.FourierField.constant(x0), 64)
    got = wcsf.length(circle, left)
    exact = 2.0 * np.pi * np.exp(0.3 * np.cos(x0))
    print(f"  x = {x0:.4f}: L = {got:.12f}, closed form {exact:.12f}, "
          f"gap {abs(got - exact):.1e}")

print()
print("== angle function and graphicality ==")
curve = wcsf.make_graph_curve(half_sine, 128)
theta, theta_hat = wcsf.angle_function(curve, product)
min_hat, graphical = wcsf.graphicality(curve, product)
print(f"min theta = {theta.min():.6f}, min theta_hat = {theta_hat.min():.6f}")
print(f"graphical: {graphical} (exact min: 1/sqrt(1.25) = "
      f"{1.0 / np.sqrt(1.25):.6f})")

print()
print("== arc-length operators on the unit circle ==")
circle = wcsf.make_graph_curve(wcsf.FourierField.constant(0.0), 64)
speed = wcsf.compute_fields(circle, product).speed
u = 2.0 * np.pi * np.arange(64) / 64
eta = np.sin(u)
d_err = np.abs(wcsf.arc_derivative(eta, speed) - np.cos(u)).max()
l_err = np.abs(wcsf.arc_laplacian(eta, speed) + np.sin(u)).max()
print(f"d/ds sin -> cos, max error {d_err:.3e}")
print(f"d2/ds2 sin -> -sin, max error {l_err:.3e}")

print()
print("== spectral resampling ==")
coarse = wcsf.make_graph_curve(half_sine, 64)
fine = wcsf.resample(coarse, 256)
l_coarse = wcsf.length(coarse, product)
l_fine = wcsf.length(fine, product)
print(f"length at M=64:  {l_coarse:.14f}")
print(f"length at M=256: {l_fine:.14f}")
print("bandlimited data resamples without loss.")
