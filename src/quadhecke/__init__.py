"""Numerical laboratory for the one-level density of low-lying zeros of
quadratic Hecke L-functions over Q(i).

The family is L(s, chi_{i(1+i)^5 c}) with c odd squarefree in Z[i], weighted
by a smooth cutoff w(N(c)/X).  The same density statistic is computed three
independent ways and cross-validated:

  empirical  -- exact finite character sums through the explicit formula
  ratios     -- the L-functions ratios conjecture prediction integral
  expansion  -- closed-form asymptotic expansions in 1/log X

Submodules: zint (Gaussian-integer arithmetic), specfun (zeta_K and friends),
transforms (test functions, weights, Hankel/Mellin machinery), empirical,
expansion, ratios, checks (the invariant battery), cli.
"""

__version__ = "0.1.0"
