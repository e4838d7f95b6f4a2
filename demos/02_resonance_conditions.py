"""The sampled hypothesis checks and the kernel-weighted resonance functional.

For f(u) = arctan(40 u) at resonance with the first eigenvalue the
functional evaluates to sqrt(2) on both signed kernel directions, so the
plus-signed condition holds with that margin; negating the field swaps the
verdicts.
"""

import math

import numpy as np

import resodyn as rd

basis = rd.build_basis(rd.Domain1D(1.0, 80), 32)
cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[0]),), sigma=(0.0,))
split = rd.classify(basis, cfg)
field = rd.make_field("arctan(40)", 1)

grid = rd.SampleGrid.default(basis, 1, seed=0)
print("boundedness:", rd.check_bounded(field, grid).detail)
sign_rep = rd.check_sign_condition(field, 1, "+", lambda x: np.zeros_like(x), grid, l=1)
print("sign condition (+, h=0):", sign_rep.verdict, f"margin {sign_rep.margin:.3e}")
print("declared limits verified:", rd.verify_limits(field, 1, basis=basis).verdict)

for name, fld in [("arctan(40)", field), ("-arctan(40)", rd.make_field("-arctan(40)", 1))]:
    for condition, rep in rd.evaluate_LL(fld, basis, split, cfg, 1).items():
        extra = "" if rep.min_value is None else f" (min {rep.min_value:.6f})"
        print(f"{name:12s} {condition}: {rep.verdict}{extra}")
print("sqrt(2) =", math.sqrt(2))

# the guiding margins behind the a priori bounds: positive beyond some radius
bounds = rd.apriori_bounds(basis, split, cfg, C6=math.pi / 2)
table = rd.guiding_margin(field, basis, split, cfg, which=1,
                          W_radius=bounds.R0_plus, R_grid=[2, 5, 10, 20, 50],
                          samples=32, sign="+", seed=0)
print("\nguiding margins (radius -> min <F(u+v+w), u>):")
for R, margin in table.rows:
    print(f"  R = {R:5.1f}: {margin:+.4f}")
