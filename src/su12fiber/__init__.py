"""Exact desk computations for SU(1,2) Higgs bundle fibers.

Submodules:
  exact          arithmetic kernels (Q(sqrt2), truncated series, 2x2 matrices)
  stability      numerical stability of vanishing-locus partitions, census
  configuration  point configurations on (P^1)^N and the torus action
  git_engine     invariant-monomial classification, S-equivalence
  local_model    Hecke kernels, Smith reduction, Higgs normal forms
  cli            command line front end

The package namespace re-exports the names the README's Library section
uses; everything else is imported from its submodule.
"""

from .configuration import Configuration, FiberPoint
from .exact import Scalar
from .git_engine import Linearization, classify_bruteforce, classify_closed_form
from .local_model import hecke_frame, higgs_from_kernel_frame, smith_form
from .stability import ModuliParams, census

__all__ = [
    "Configuration",
    "FiberPoint",
    "Linearization",
    "ModuliParams",
    "Scalar",
    "census",
    "classify_bruteforce",
    "classify_closed_form",
    "hecke_frame",
    "higgs_from_kernel_frame",
    "smith_form",
]
