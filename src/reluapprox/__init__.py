"""Convex-duality solvers and certified approximations for two-layer ReLU training.

The package pairs polynomial-time solvers (exact on orthogonal-separable
data, SDP/Goemans-Williamson rounding under negative correlation,
geometric-ratio bounds in general) with desk-scale brute-force oracles
that certify every claimed inequality.
"""

__version__ = "0.1.0"

from .dataset import (
    Dataset,
    DatasetClass,
    LossModel,
    classify_dataset,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .dual import (
    DualCertificate,
    GeoRatio,
    check_dual_feasibility,
    geometric_ratio,
    solve_dual_geo,
    solve_dual_negcorr,
    solve_dual_ortho,
)
from .geometry import (
    MaximinReport,
    dual_constraint_maximin,
    hausdorff_distance,
    ortho_closed_form,
    zonotope_vertex_max,
)
from .maxcut import (
    RoundingBatch,
    SdpSolution,
    c1_value,
    c2_value_and_gradient,
    gw_round,
    maxcut_bruteforce,
    realize_pattern,
    sdp_relaxation,
)
from .oracle import PatternSet, enumerate_patterns, exact_dual, exact_primal
from .primal import (
    ApproxResult,
    GatedReluNetwork,
    ReluNetwork,
    build_network_ortho,
    certify,
    evaluate_network,
    solve_primal_negcorr,
)

__all__ = [name for name in dir() if not name.startswith("_")]
