"""Dominated splitting certificates for 2x2 cocycles and Jacobi spectra."""

from .certifier import (
    ConeCertificate,
    DegenerateCocycle,
    DSCertificate,
    InternalInconsistency,
    SplittingField,
    certify,
    certify_many,
    certify_operator,
    cone_certificate,
    greens_directions,
    power_directions,
    stability_radius,
    subsample_equivalence_check,
    verify_domination,
    verify_invariance,
    verify_separation,
)
from .harness import (
    ScanReport,
    johnson_scan,
    perturb_sequence,
    perturbation_experiment,
    trial_rng,
)
from .jacobi import (
    GreensData,
    IllConditioned,
    JacobiOperator,
    SpectrumApprox,
    Truncation,
    char_poly,
    cocycle_map,
    cocycle_via_charpoly,
    dist_to_spectrum,
    floquet_bands,
    greens_column,
    greens_row_residual,
    load_operator,
    normalization_identity_check,
    operator_from_json,
    operator_to_json,
    save_operator,
    spectrum,
    truncation,
)
from .mat2 import (
    MatSequence,
    cocycle_product,
    norm_floor,
    op_norm,
)
from .models import (
    FAMILIES,
    DynCheckReport,
    InclusionReport,
    RationalRotation,
    SamplingPair,
    almost_mathieu,
    constant_pair,
    cosine_coupling,
    dynamical_ds_check,
    make_family,
    orbit_spectrum_inclusion,
    pair_lipschitz,
    periodic_operator,
    realize,
)
from .sphere import (
    GenCircle,
    ProjPoint,
    UndefinedAction,
    act,
    chordal_dist,
    image_diameter_bound,
    mobius,
    mobius_disk_image,
    schwarz_pick_rho,
    separation_constant,
)

__version__ = "0.1.0"
