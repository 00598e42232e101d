"""Boundary conditions as symmetry: interval spectra via the doubled circle.

Doubling the interval [0, pi] across both ends gives a periodic problem on a
4n-point circle, on which Z2 x Z2 acts by the two flips that fix the ends.
Every pair of boundary conditions is one character alpha of that group:
alpha = -1 at a Dirichlet end (odd extension), +1 at a Neumann end (even
extension).  The eigenvalues of -u'' on [0, pi] then come out of Sturm
counts on the operator compressed to the alpha-isotype, a symmetric
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
    print(f"  doubled onto the {problem.grid_size}-point circle under Z2 x Z2, "
          f"isotype alpha = {problem.alpha.exponents}; "
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
