"""Exact construction of quantum Lie algebras from quantized enveloping algebras.

Subpackage map:

* ``qring``    -- exact rational functions in v = q^(1/2)
* ``rootdata`` -- Cartan matrices, root systems, Weyl dimensions, tensor rules
* ``repbuild`` -- highest-weight modules with exact matrices over Q(v)
* ``tensorcg`` -- tensor products, highest-weight spaces, lowering,
                  intertwining check, quantum CG inversion
* ``qliealg``  -- the bracket constants themselves: generic pipeline,
                  explicit type-A construction, normalization, checks
* ``monodromy``-- monodromy operator on V (x) V and adjoint-submodule checks
* ``cli``      -- the ``qlie`` command-line interface
"""

__version__ = "0.1.0"

from .qring import LaurentPoly, RatFunc, q_int, q_binomial, parse_scalar
from .rootdata import CartanDatum, build_cartan, root_system, weyl_dim
from .repbuild import IrrepModule, build_irrep, adjoint_module, verify_module
from .tensorcg import (TensorProduct, tensor_product, tensor_square, highest_weight_space,
                       antisymmetrize_hw, symmetrize_hw, cg_embedding,
                       verify_embedding, invert_cg)
from .classical import build_classical_module, classical_bracket, classical_sln_table
from .qliealg import (QuantumLieAlgebra, BasisLabel, build_generic,
                      build_sln_explicit, generic_pipeline, canonical_normalize,
                      check_gradation, check_q_antisymmetry, check_lr_identity,
                      check_classical_limit, check_ad_invariance,
                      check_ad_invariance_explicit, compare_to_explicit,
                      check_tau_sln, same_algebra,
                      InvalidParams, GaugeObstruction)
from .monodromy import (Monodromy, monodromy_on_tensor, casimir_exponent,
                        extract_A, verify_ad_submodule, ObstructionDetected)

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
    "antisymmetrize_hw",
    "symmetrize_hw",
    "cg_embedding",
    "verify_embedding",
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
    "check_ad_invariance_explicit",
    "compare_to_explicit",
    "check_tau_sln",
    "same_algebra",
    "InvalidParams",
    "GaugeObstruction",
    "Monodromy",
    "monodromy_on_tensor",
    "casimir_exponent",
    "extract_A",
    "verify_ad_submodule",
    "ObstructionDetected",
    "__version__",
]
