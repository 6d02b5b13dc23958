"""Unique-continuation diagnostics on a solved experiment.

Doubling ratios measure how fast mass can concentrate on small balls,
propagation ratios how much of the global mass every ball retains, and
the Muckenhoupt product whether u^2 behaves as an A_p weight.  Together
they control the negative-power integrals that decide which exponent
delta keeps |u|^(-delta) integrable across the nodal set.
"""

import numpy as np

from hybridlab import (
    Grid,
    PriorBounds,
    ScalarField,
    collect_diagnostics,
    make_pair,
    perturb_coefficient,
)
from hybridlab.diagnostics import (
    delta_from_p,
    eta_from_delta,
    negative_power_integral,
)


def main():
    grid = Grid(nx=33, ny=33, lx=1.0, ly=1.0)
    bounds = PriorBounds(k_bound=4.0, e_bound=50.0, h_bound=0.05,
                         d_margin=0.125)
    q1 = ScalarField.constant(grid, 2.0)
    pr = perturb_coefficient(q1, "bump", 0.5, seed=4, bounds=bounds)
    pair = make_pair(q1, pr.field, lambda x, y: np.cos(x) * np.cos(y),
                     bounds, seed=4, mode="bump", amplitude=0.5)

    report = collect_diagnostics(pair)

    def rows(functional):
        # one row per value, in the diagnostics.csv columns: functional,
        # center_x, center_y, r, param, value, floor_hits
        return [row for row in report.rows if row[0] == functional]

    print(f"doubling ratios (max {report.max_doubling:.3f}):")
    for _, cx, cy, r, _, v, _ in rows("doubling"):
        print(f"  ball({cx:.2f},{cy:.2f}; r={r:.3f}) -> {v:.3f}")
    print(f"propagation ratios (min {report.min_propagation:.4f})")
    print("Muckenhoupt products by p:")
    for p in (1.5, 2.0, 3.0):
        vals = [v for *_, pp, v, _ in rows("muckenhoupt") if pp == p]
        print(f"  p={p}: max {max(vals):.3f}  "
              f"(delta_from_p={delta_from_p(p):.2f}, "
              f"eta={eta_from_delta(delta_from_p(p)):.3f})")
    print("negative-power integrals over the interior margin:")
    for *_, delta, v, hits in rows("neg_integral"):
        print(f"  delta={delta:<5} integral={v:.4f}  floor hits={hits}")
    print(f"largest refinement-stable delta: {report.best_delta}")
    w = report.weighted
    print(f"\nweighted estimate: lhs={w.lhs:.3e} <= "
          f"proof bound={w.proof_bound:.3e} "
          f"(margin {w.lhs / w.proof_bound:.1e})")

    # the smooth positive solution above keeps every delta integrable;
    # a genuine nodal line moves the threshold to delta = 1
    line = Grid(nx=256, lx=1.0)
    u = ScalarField.from_function(line, lambda x: x - 0.5)
    for delta in (0.5, 1.5):
        v, _ = negative_power_integral(u, 0.125, delta)
        print(f"u = x - 1/2, delta={delta}: integral {v:.2f}")


if __name__ == "__main__":
    main()
