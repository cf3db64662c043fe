"""Hybrid quantum-classical malware classification toolkit.

Exact state-vector simulation feeding two classifier families (a
variational circuit and a quantum-kernel SVM), with classical
preprocessing, feature attribution, and statistical evaluation around
them.  Library code imports from the modules (``qshield.vqc``,
``qshield.pipeline``, ...); importing the package alone loads no numpy.
"""

__version__ = "0.1.0"
