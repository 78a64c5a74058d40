"""Desk-scale verification of density theorems for sections with regular
divisor: exact finite-field and Galois-ring arithmetic, truncated zeta
values with explicit error bounds, mod-p^2 point classification, and
seeded density experiments over coefficient boxes."""

__version__ = "0.1.0"

from .ffield import GF, GaloisRing, find_irreducible, is_prime        # noqa: F401
from .projgeom import (HomogeneousForm, ProjectiveScheme, ClosedPoint,  # noqa: F401
                       monomial_basis, parse_form, load_scheme)
from .zetas import (PointCountTable, closed_point_counts, c0_estimate,  # noqa: F401
                    local_zeta_inverse, global_zeta_inverse,
                    verify_section_bounds, projective_counts)
from .fiberlab import (classify_point_detail, reference_truncation,  # noqa: F401
                       FiberClassifier, fiber_density_exhaustive, fiber_density_mc,
                       singular_at_point_proportion, DensityEstimate)
from .arithlab import (MonicPoly, discriminant, dedekind_p_maximal,  # noqa: F401
                       maximality_scan, equidistribution_audit,
                       multi_fiber_experiment, bsw_experiment)
