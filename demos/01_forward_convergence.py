"""Forward solver accuracy on a manufactured solution.

u = cos(x) cos(y) satisfies laplacian(u) + 2u = 0 exactly, so solving
with q = 2 and the trace of u as boundary data isolates the
discretization error.  Halving h should divide the sup-norm error by
about four.
"""

import numpy as np

from hybridlab import Grid, ScalarField, solve_dirichlet


def main():
    print("grid        h         sup error   observed order")
    prev = None
    for nx in (17, 33, 65, 129):
        grid = Grid(nx=nx, ny=nx, lx=1.0, ly=1.0)
        q = ScalarField.constant(grid, 2.0)
        report = solve_dirichlet(q, lambda x, y: np.cos(x) * np.cos(y))
        exact = ScalarField.from_function(
            grid, lambda x, y: np.cos(x) * np.cos(y)
        )
        err = float(np.max(np.abs(report.u.values - exact.values)))
        order = "" if prev is None else f"{np.log2(prev / err):14.3f}"
        print(f"{nx:3d}x{nx:<3d}  {grid.h:.6f}  {err:.3e}  {order}")
        prev = err

    grid = Grid(nx=65, ny=65, lx=1.0, ly=1.0)
    q = ScalarField.constant(grid, 2.0)
    report = solve_dirichlet(q, lambda x, y: np.cos(x) * np.cos(y))
    print(f"\n65x65 solve: method={report.method}, "
          f"residual={report.residual_linf:.2e}, "
          f"spectral gap={report.eigen_gap_estimate:.3f}")


if __name__ == "__main__":
    main()
