"""Sample the quadratic numerical range of the 4x4 sharpness example.

Every sampled eigenvalue pair (lambda, mu) of the compressed 2x2 matrices
stays inside [inf B, sup B], and the extremes of the sampled cloud converge
to inf B and sup B as the sample count grows.  Writes qnr.csv and qnr.svg
next to this script.
"""

import pathlib

from offdiag import builtin_example, qnr_sample
from offdiag.io import qnr_svg, write_qnr_csv

problem = builtin_example("CASE1")
inf_b = problem.b_eigen.eigenvalues.min()
sup_b = problem.b_eigen.eigenvalues.max()
u, mask = problem.a_eigen.eigenvectors, problem.sigma_mask
bases = u[:, mask], u[:, ~mask]  # E_A(sigma)'s eigenvector columns and the rest

for n in (100, 1000, 10_000):
    samples = qnr_sample(problem.b, bases, n, seed=0)
    lo, hi = samples.lam.min(), samples.mu.max()
    print(f"n = {n:>6}: sampled range [{lo:+.4f}, {hi:+.4f}]   "
          f"spec(B) range [{inf_b:+.4f}, {sup_b:+.4f}]")

out_dir = pathlib.Path(__file__).parent
samples = qnr_sample(problem.b, bases, 1000, seed=0)
with open(out_dir / "qnr.csv", "w", encoding="utf-8") as fh:
    write_qnr_csv(samples, fh)
with open(out_dir / "qnr.svg", "w", encoding="utf-8") as fh:
    fh.write(qnr_svg(samples, [float(x) for x in problem.b_eigen.eigenvalues]))
print(f"wrote {out_dir / 'qnr.csv'} and {out_dir / 'qnr.svg'}")
