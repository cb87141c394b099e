"""Exact toolkit for freeness and near-freeness of plane curves and line
arrangements, decided through minimal-degree Jacobian syzygies (found on
the logarithmic derivations for arrangements)."""

from .arrangement import (
    LineArrangement,
    SingularPoint,
    WeakCombinatorics,
    catalog,
    catalog_names,
    defining_polynomial,
    deformation,
    delete_line,
    load_lines,
    parse_lines,
    singular_points,
    weak_combinatorics,
)
from .classify import (
    CandidateRecord,
    CandidateStatus,
    ExclusionConfig,
    classify_all,
    default_exclusions,
    enumerate_candidates,
    mdr_window,
    schonheim_u3,
    t3_lower_bound,
)
from .criteria import (
    AnalysisReport,
    ExactMatrix,
    MdrResult,
    Verdict,
    VerdictKind,
    analyze_curve,
    derivation_rows,
    eta,
    mdr,
    relation_matrix,
    tau_bounds,
    verdict,
    verify_syzygy,
)
from .field import OMEGA, ONE, ZERO, FieldTag, Scalar, format_scalar, parse_scalar
from .linalg import kernel_basis
from .poly import (
    LinearForm,
    Poly,
    format_poly,
    graded_basis,
    parse_poly,
    product_of_forms,
)

__version__ = "0.1.0"
