"""Exact-arithmetic symplectic minimal resolutions of weighted projective planes.

Everything is computed over Z and Q: Hirzebruch-Jung strings, Delzant
moment polygons, homology classes of the boundary divisor, exceptional
gap sets and the affine ruling attached to each resolution.
"""

from .arith import (
    WeightTriple,
    eval_neg_cf,
    hj_dual,
    hj_expand,
    weight_sequence,
    weight_triple,
)
from .errors import (
    DegenerateWeight,
    LemmaViolated,
    NoSignChange,
    NotPairwiseCoprime,
    UserInputError,
    WppError,
)
from .homlat import (
    AreaForm,
    GapResult,
    Lattice,
    NEG_INF,
    cp2_lattice,
    enumerate_exceptional,
    exceptional_gap,
    hirz_lattice,
    log_kodaira,
)
from .polygon import LatticePolygon, chop_corner, corner_type, polygon
from .report import make_report, parse_report, serialize_report
from .resolution import (
    ResolutionPair,
    build_resolution,
    check_divisor_predicates,
    check_sum_bound,
    check_two_minus2,
    connector_selfints,
    torelli_compare,
    two_minus2_strings,
)
from .rulings import (
    RulingData,
    combined_strings,
    nu_indices,
    ruling,
    ruling_resolution,
)
from .scan import run_scan
from .strings import (
    DivisorConfig,
    abstract_chain,
    blowdown,
    chain_config,
    delta_sequence,
    fiber_class,
    resolution_fiber_class,
    xi_invariant,
)

__version__ = "1.0.0"

__all__ = [
    "AreaForm",
    "DegenerateWeight",
    "DivisorConfig",
    "GapResult",
    "Lattice",
    "LatticePolygon",
    "LemmaViolated",
    "NEG_INF",
    "NoSignChange",
    "NotPairwiseCoprime",
    "ResolutionPair",
    "RulingData",
    "UserInputError",
    "WeightTriple",
    "WppError",
    "abstract_chain",
    "blowdown",
    "build_resolution",
    "chain_config",
    "check_divisor_predicates",
    "check_sum_bound",
    "check_two_minus2",
    "chop_corner",
    "combined_strings",
    "connector_selfints",
    "corner_type",
    "cp2_lattice",
    "delta_sequence",
    "enumerate_exceptional",
    "eval_neg_cf",
    "exceptional_gap",
    "fiber_class",
    "hirz_lattice",
    "hj_dual",
    "hj_expand",
    "log_kodaira",
    "make_report",
    "nu_indices",
    "parse_report",
    "polygon",
    "resolution_fiber_class",
    "ruling",
    "ruling_resolution",
    "run_scan",
    "serialize_report",
    "torelli_compare",
    "two_minus2_strings",
    "weight_sequence",
    "weight_triple",
    "xi_invariant",
]
