"""Exact construction of quantum Lie algebras from quantized enveloping algebras.

Subpackage map:

* ``qring``    -- exact rational functions in v = q^(1/2)
* ``linalg``   -- sparse exact linear algebra over Q(v) and Q
* ``rootdata`` -- Cartan matrices, root systems, Weyl dimensions, tensor rules
* ``repbuild`` -- highest-weight modules with exact matrices over Q(v)
* ``tensorcg`` -- tensor products, highest-weight spaces, lowering,
                  intertwining check, quantum CG inversion (whose check of
                  the bracket is the CG embedding's too, by the identity
                  (S (x) S) Delta(E_i) = Delta(F_i)^T (S (x) S))
* ``classical``-- the undeformed oracle pipeline over Q, independent of the
                  q-pipeline
* ``table``    -- the structure-constant table itself: basis labels, both
                  stored forms and their one constructor, change of basis
* ``qliealg``  -- the constructions of the table: generic pipeline,
                  explicit type-A construction, normalization, checks
* ``monodromy``-- monodromy operator on V (x) W, its adjoint family, claims (1), (3)
* ``cli``      -- the ``qlie`` command-line interface
"""

__version__ = "0.1.0"

from .qring import LaurentPoly, RatFunc, q_int, q_binomial, parse_scalar
from .rootdata import CartanDatum, build_cartan, root_system, weyl_dim
from .repbuild import IrrepModule, build_irrep, adjoint_module, verify_module
from .tensorcg import (TensorProduct, tensor_product, tensor_square, highest_weight_space,
                       swap_bar_halves, invert_cg)
from .classical import build_classical_module, classical_bracket, classical_sln_table
from .table import QuantumLieAlgebra, BasisLabel, same_algebra, InvalidParams
from .qliealg import (build_generic, build_sln_explicit, generic_pipeline, canonical_normalize,
                      check_gradation, check_q_antisymmetry, check_lr_identity,
                      check_classical_limit, check_ad_invariance,
                      compare_to_explicit, check_tau_sln, GaugeObstruction)
from .monodromy import (Monodromy, monodromy_on_tensor, casimir_exponent, adjoint_family,
                        verify_ad_submodule, concrete_bracket, check_concrete)

__all__ = [
    "LaurentPoly",
    "RatFunc",
    "q_int",
    "q_binomial",
    "parse_scalar",
    "CartanDatum",
    "build_cartan",
    "root_system",
    "weyl_dim",
    "IrrepModule",
    "build_irrep",
    "adjoint_module",
    "verify_module",
    "TensorProduct",
    "tensor_product",
    "tensor_square",
    "highest_weight_space",
    "swap_bar_halves",
    "invert_cg",
    "build_classical_module",
    "classical_bracket",
    "classical_sln_table",
    "QuantumLieAlgebra",
    "BasisLabel",
    "build_generic",
    "build_sln_explicit",
    "generic_pipeline",
    "canonical_normalize",
    "check_gradation",
    "check_q_antisymmetry",
    "check_lr_identity",
    "check_classical_limit",
    "check_ad_invariance",
    "compare_to_explicit",
    "check_tau_sln",
    "same_algebra",
    "InvalidParams",
    "GaugeObstruction",
    "Monodromy",
    "monodromy_on_tensor",
    "casimir_exponent",
    "adjoint_family",
    "verify_ad_submodule",
    "concrete_bracket",
    "check_concrete",
    "__version__",
]
