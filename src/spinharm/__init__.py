"""Exact spinorial analysis of SU(3)- and G2-structures.

Clifford algebra over the rational-function field Q(u), stabilizer
algebras of unit spinors, intrinsic torsion, Gray-Hervella classification,
and exact harmonicity verdicts on parametrized homogeneous models.
"""

from .scalars import Scalar, Poly, Substitution
from .linalg import Matrix, Subspace
from .clifford import MultiVector, SpinRep, FrameTensor
from .gstruct import SpinorStructure
from .homogeneous import HomogeneousModel, ModelAnalysis, load_model

__all__ = [
    "Scalar", "Poly", "Substitution",
    "Matrix", "Subspace",
    "MultiVector", "SpinRep", "FrameTensor",
    "SpinorStructure",
    "HomogeneousModel", "ModelAnalysis", "load_model",
]

__version__ = "0.1.0"
