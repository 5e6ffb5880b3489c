"""Exact-arithmetic topological and contact invariants of Brieskorn manifolds.

A Brieskorn manifold enters as its exponent tuple; everything else (the
sphere criterion, homology rank, equivariant and mean Euler characteristics,
Reeb period strata, Robbin-Salamon indices, and non-Brieskorn certificates
for connected sums on S^5) is computed from it in exact integer and rational
arithmetic.
"""

from .certify import (
    CONCLUSION,
    DistinctnessClass,
    NonBrieskornCertificate,
    certificate_lines,
    certify_non_brieskorn_pairs,
    distinctness_classes,
    enumerate_sphere_tuples,
    iter_certificates,
    read_certificates,
    sphere_chi,
    write_certificates,
)
from .errors import (
    BrieskornError,
    CapacityError,
    CertificateFormatError,
    InvalidInputError,
    PreconditionError,
    UnsupportedLengthError,
)
from .exactarith import IntPolynomial, dominance_check, dominance_margin
from .families import (
    FamilyRow,
    FermatAsymptoticsReport,
    FermatRow,
    derivative_combination,
    fermat_asymptotics_report,
    fermat_number,
    fermat_tuple,
    sigma_family_rows,
    sigma_m_closed_form,
    sigma_m_tuple,
)
from .limits import DEFAULT_LIMITS, Limits, limits_from_env
from .reeb import (
    MeanEulerReport,
    Stratum,
    chi_m,
    connected_sum_chi,
    frequencies,
    has_isolated_exponent,
    mean_euler,
    mean_euler_coprime,
    total_rs_index,
)
from .topology import (
    ExponentTuple,
    SphereKind,
    SphereVerdict,
    chi_s1,
    evaluate_criterion,
    kappa,
    make_tuple,
    noncoprime_pair,
    pairwise_coprime,
    sphere_kind,
)
from .verify import CheckResult, SuiteResult, run_reproduction_suite

__version__ = "0.1.0"
