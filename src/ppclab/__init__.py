"""Pair-correlation laboratory for fast-growing polynomial sequences.

Tools to compute fractional-part orbits frac(f_n(alpha)) with certified error,
measure their pair correlations and discrepancy, check the growth/convexity
hypotheses under which Poissonian pair correlations are expected, and study
the interval structure behind the variance estimates.

Every name is imported from the module that owns it (ppclab.hpreal,
ppclab.families, ...); the package itself exports only __version__, so
importing one module loads only what that module needs.
"""

__version__ = "0.1.0"
