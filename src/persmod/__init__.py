"""Exact persistence modules over k[t].

Graded linear algebra, finitely presented modules and their barcodes,
module-level constructions (kernels, tensors, homs, ...), persistent
homology of filtered complexes, and a streaming reduction that accepts
simplices one at a time.
"""

from .fields import (
    PrimeField,
    QQ,
    Rationals,
    field_from_string,
)
from .linalg import (
    GradedBasis,
    GradedMatrix,
    SnfResult,
    column_echelon,
    graded_snf,
    membership,
)
from .presentation import (
    INF,
    Bar,
    Barcode,
    Presentation,
    PresentationMorphism,
    barcode,
    validate_morphism,
)
from .constructions import (
    SnfForm,
    cokernel,
    direct_sum,
    dual,
    exterior_power,
    hom,
    image,
    kernel,
    pullback,
    pushout,
    snf_form,
    symmetric_power,
    tensor,
    tensor_over_k,
)
from .homology import (
    FilteredComplex,
    Simplex,
    TorsionChainComplex,
    graded_boundary,
    persistent_homology,
    relative_complex,
    torsion_homology,
)
from .streaming import (
    BarcodeDelta,
    StreamState,
    add_simplex,
    current_barcode,
)

__all__ = [
    "PrimeField",
    "QQ",
    "Rationals",
    "field_from_string",
    "GradedBasis",
    "GradedMatrix",
    "SnfResult",
    "column_echelon",
    "graded_snf",
    "membership",
    "INF",
    "Bar",
    "Barcode",
    "Presentation",
    "PresentationMorphism",
    "barcode",
    "validate_morphism",
    "SnfForm",
    "cokernel",
    "direct_sum",
    "dual",
    "exterior_power",
    "hom",
    "image",
    "kernel",
    "pullback",
    "pushout",
    "snf_form",
    "symmetric_power",
    "tensor",
    "tensor_over_k",
    "FilteredComplex",
    "Simplex",
    "TorsionChainComplex",
    "graded_boundary",
    "persistent_homology",
    "relative_complex",
    "torsion_homology",
    "BarcodeDelta",
    "StreamState",
    "add_simplex",
    "current_barcode",
]
