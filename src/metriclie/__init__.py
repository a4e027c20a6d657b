"""Exact computations with finite-dimensional metric Lie algebras.

Everything runs over the rationals (and number fields where spectra
demand it): structure validation, the derived series, the
nilradical, Killing form, Jordan decompositions, reduction by isotropic
central ideals and its inverse double extension, Einstein checks for
bi-invariant metrics, eigenvalue-based lattice obstructions, and the
simple-ideal split of semisimple algebras.
"""

from .core import (
    JordanPair,
    LieAlgebra,
    LinearMap,
    SeriesReport,
    SubspaceBasis,
    ValidationReport,
    ad,
    center,
    centralizer,
    derived_subalgebra,
    jordan_chevalley,
    killing_form,
    killing_matrix,
    nilradical,
    series,
    validate_structure,
)
from .einstein import (
    BoundsCertificate,
    EigenvalueData,
    EinsteinReport,
    TraceIdentityReport,
    bounds_certificate,
    einstein_check,
    eigenvalue_condition,
    ricci_biinvariant,
    sharpness_search,
    trace_identity,
)
from .errors import (
    CertificateError,
    DocumentError,
    MetricLieError,
    PreconditionError,
)
from .forms import (
    MetricLieAlgebra,
    Signature,
    SymBilinearForm,
    central_isotropic_ideal,
    is_invariant,
    metric_radical,
    nilinvariance,
    signature,
    witt_basis,
)
from .obstruction import (
    ObstructionReport,
    RelationBasis,
    exact_eigenvalues,
    integer_exponential_probe,
    obstruction_verdict,
    qlinear_relations,
    restricted_obstruction,
)
from .reduction import (
    DoubleExtensionSpec,
    ReductionChain,
    ReductionStep,
    build_ab,
    build_example42,
    build_ko1,
    complete_reduction,
    double_extend,
    reduce_by_ideal,
)
from .semisimple import (
    SplitFormReport,
    SplitResult,
    compact_split,
    simple_decomposition,
    split_form_report,
)

__version__ = "0.1.0"
