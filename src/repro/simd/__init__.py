"""NSIMD-like portable SIMD layer.

The paper vectorizes its 2D stencil with NSIMD ``pack`` types so one
generic kernel (Listing 2) runs on AVX2, NEON, and SVE.  This package
reproduces that programming model in Python:

* :mod:`~repro.simd.isa` -- ISA descriptors.  SVE is *vector-length
  agnostic*: the lane count is fixed at :class:`~repro.simd.isa.SveIsa`
  construction, mirroring GCC's ``-msve-vector-bits`` compile-time choice
  the paper had to make.
* :mod:`~repro.simd.layout` -- the Virtual Node Scheme data layout
  ([Boyle et al., Grid]) used by Listing 2, including the halo shuffle.

Listing 2's pack containers are the lanes axis of a ``VnsLayout``
array: ``Jacobi2D(mode="simd")`` updates every lane of a row with one
NumPy operation, so there is no separate pack value type.
"""

from .isa import Isa, FixedIsa, SveIsa, ScalarIsa, AVX2, NEON, isa_for, sve
from .layout import VnsLayout

__all__ = [
    "Isa",
    "FixedIsa",
    "SveIsa",
    "ScalarIsa",
    "AVX2",
    "NEON",
    "isa_for",
    "sve",
    "VnsLayout",
]
