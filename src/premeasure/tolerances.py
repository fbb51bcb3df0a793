"""Every numerical tolerance of the package, each named for its role.

The modules that use a tolerance import it from here by name, so the old
spellings (``linalg.DEFAULT_TOL``, ``born.PROB_SLACK``, ...) keep resolving.
"""

# Structural checks: unitarity, Hermiticity, orthonormality, projector
# algebra, positivity, and the law-of-total-probability cross-check.
DEFAULT_TOL = 1e-10

# Norm (or trace) deviations below this window are silently repaired by
# renormalization; anything larger is rejected as a caller error.
RENORM_WINDOW = 1e-8

# A scenario state whose norm or trace, or an eigenbasis row whose norm, is
# at or below this cannot be normalized.
NORM_FLOOR = 1e-12

# Eigenvalues closer than this are treated as indistinct and rejected.
EIGENVALUE_SEPARATION = 1e-9

# Probabilities may stray this far outside [0, 1] before being an error,
# and conditioning events at or below it are refused outright.
PROB_SLACK = 1e-12

# A set of probabilities meant to be exhaustive must sum to 1 within this.
DISTRIBUTION_SUM_TOL = 1e-9

# Collapse-oracle branches at or below this weight are dropped from the tree.
PRUNE_TOL = 1e-12

# Default pass/fail tolerance of repeatability and equivalence reports; the
# CLI's ``--tol`` and ``PREMEASURE_TOL`` override it.
REPORT_TOL = 1e-10

# Property suite: checks without time evolution, and checks on trials that
# evolve the system.
STRUCT_TOL = 1e-10
DYNAMIC_TOL = 1e-9
