"""Exact arithmetic for the signature cocycle on Sp(2g;Z), Meyer functions,
and local signatures of fibered 4-manifolds.

Everything is computed over arbitrary-precision integers and rationals;
there is no floating point anywhere in the public API.
"""

from .cocycle import VSpace, sigma_defect_via_tau, tau_sp, tau_twist, v_space
from .errors import InfiniteOrderError, ParseError, UnsupportedGenusError
from .exact import SignatureTriple, kernel_basis, signature
from .fibered import (
    FiberGerm,
    FibrationDescription,
    euler_contribution,
    geography_convert,
    geography_invert,
    horikawa_total,
    hyperelliptic_twist_value,
    kodaira_matrix,
    kodaira_neighborhood_signature,
    kodaira_word,
    load_fibration,
    local_signature,
    meyer_function,
    sigma_alg_hyperelliptic,
    signature_over_surface,
    sl2_word,
    total_euler,
    total_signature,
)
from .genus1 import SL2Element, dedekind_sum, phi1, rademacher, sawtooth, signature_defect
from .matrix import format_matrix, parse_matrix
from .presentations import (
    UNBOUNDED,
    ClassOrder,
    Presentation,
    SynthesizedMeyerFunction,
    Unbounded,
    Word,
    class_order,
    cochain_c,
    dump_presentation,
    evaluate_word,
    format_word,
    hyperelliptic,
    load_presentation,
    parse_word,
    shipped_meyer_function,
    shipped_presentation,
    synthesize_meyer,
)
from .symplectic import (
    SymplecticMatrix,
    a_class,
    b_class,
    is_symplectic,
    random_symplectic,
    standard_j,
    symplectic_pairing,
    transvection,
    twist_of,
)

__version__ = "0.1.0"
