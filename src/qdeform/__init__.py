"""qdeform: verification lab for the sinh-deformed position/momentum algebra.

Three engines check the same structure from independent directions:

* :mod:`qdeform.weyl` -- exact symbolic engine over [p, x] = -i; proves the
  deformed commutator identity and its limits with zero residual.
* :mod:`qdeform.matrixrep` -- truncated oscillator-basis engine; quantifies
  how the identity survives finite dimension.
* :mod:`qdeform.clockshift` -- exact finite Weyl pairs realizing the
  quantum-plane relation PX = qXP, plus the scaling-path bookkeeping.

:mod:`qdeform.params` owns the contraction paths and the parsing of SI
quantities; :mod:`qdeform.cli` is the reporting front end.
"""

__version__ = "0.1.0"
