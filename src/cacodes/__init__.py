"""Subspace codes from kernels of linear cellular automata over GF(q).

The pipeline, bottom to top:

* ``algebra``   exact GF(p^m) and polynomial arithmetic, GCDs, irreducibility
* ``linalg``    RREF / rank / null spaces / Sylvester matrices
* ``subspaces`` canonical subspaces, the subspace metric, Grassmannian codes
* ``ca``        linear cellular automata and their kernels (LFSR preimages)
* ``families``  rule families, GCD-based distance prediction, counting, search
* ``channel``   operator-channel simulation with a min-distance decoder
* ``cli``       the ``cacodes`` command-line tool wiring it all together
"""

__version__ = "0.1.0"

from .algebra import (
    GF,
    GFElement,
    Polynomial,
    is_irreducible,
    is_prime,
    monic_polynomials,
    poly_gcd,
)
from .ca import LinearCA, LinearRule
from .channel import ChannelConfig, TrialResult, decode_min_distance, simulate, transmit
from .errors import DomainError
from .families import (
    CAFamily,
    FamilyReport,
    GcdProfile,
    code_from_family,
    count_irreducibles,
    enumerate_irreducibles,
    enumerate_rule_polynomials,
    expected_uniform_gcd_size,
    gcd_profile,
    max_coprime_family_size,
    mobius,
    predicted_min_distance,
    search_max_exact_gcd,
    search_max_family,
    uniform_gcd_family,
    verify_family,
)
from .linalg import MatrixGF, sylvester
from .subspaces import (
    CodeParams,
    GrassmannianCode,
    Subspace,
    subspace_distance,
)

__all__ = [
    "__version__",
    "GF",
    "GFElement",
    "Polynomial",
    "is_irreducible",
    "is_prime",
    "monic_polynomials",
    "poly_gcd",
    "LinearCA",
    "LinearRule",
    "MatrixGF",
    "sylvester",
    "Subspace",
    "GrassmannianCode",
    "CodeParams",
    "subspace_distance",
    "CAFamily",
    "GcdProfile",
    "FamilyReport",
    "code_from_family",
    "gcd_profile",
    "predicted_min_distance",
    "mobius",
    "count_irreducibles",
    "enumerate_irreducibles",
    "enumerate_rule_polynomials",
    "max_coprime_family_size",
    "uniform_gcd_family",
    "expected_uniform_gcd_size",
    "verify_family",
    "search_max_family",
    "search_max_exact_gcd",
    "ChannelConfig",
    "TrialResult",
    "transmit",
    "decode_min_distance",
    "simulate",
    "DomainError",
]
