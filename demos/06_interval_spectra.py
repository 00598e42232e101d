"""Boundary conditions as symmetry: interval spectra via the doubled circle.

An interval problem with Dirichlet or Neumann ends embeds into a periodic
problem on the doubled circle with a reflection symmetry; the boundary
condition picks the isotype (odd extensions for Dirichlet, even for
Neumann).  Mixed ends double twice.  The eigenvalues of -u'' on [0, pi]
then come out of Sturm counts on the compressed operator, a symmetric
tridiagonal matrix, and converge at second order to the classical values.
"""
from equifred import (
    analytic_bvp_spectrum,
    convergence_order,
    double_interval_bvp,
    mixed_bvp_spectrum,
)

PAIRS = (
    ("dirichlet", "dirichlet"),
    ("neumann", "neumann"),
    ("dirichlet", "neumann"),
)
COUNT = 5
SIZES = (64, 128, 256)

for bc in PAIRS:
    problem = double_interval_bvp(SIZES[-1], bc)
    print(f"\n-u'' on [0, pi] with {bc[0]}/{bc[1]} ends")
    print(f"  doubled onto a {problem.grid_size}-point circle with symmetry "
          f"group of order {problem.group.order}; "
          f"{problem.invariant_dim} interior degrees of freedom")
    exact = analytic_bvp_spectrum(bc, COUNT)
    got = mixed_bvp_spectrum(problem, COUNT)
    print(f"  {'analytic':>12} {'computed (n=' + str(SIZES[-1]) + ')':>20}")
    for x, e in zip(exact, got):
        print(f"  {x:>12.4f} {e:>20.8f}")
    errs = [
        max(abs(e - x) for e, x in
            zip(mixed_bvp_spectrum(double_interval_bvp(n, bc), COUNT), exact))
        for n in SIZES
    ]
    print(f"  max error over sizes {SIZES}: " + ", ".join(f"{e:.2e}" for e in errs))
    print(f"  observed convergence order: {convergence_order(SIZES, errs):.4f}")
