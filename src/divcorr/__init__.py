"""Additive divisor correlations: exact sieves, singular series, and the
asymptotic polynomial coefficients of shifted divisor sums.

The package is organized in four layers:

  arith        exact integer substrate: factorization, d_k sieves, the
               partial divisor function d_k(n, A) with rational-exact
               boundary tests, and sigma moments;
  jets /       truncated Taylor arithmetic at (s, w) = (1, 0) (Jet2, with
  zeta_series  order_w = 0 for one variable), Stieltjes constants,
               zeta-power Taylor data, prime-zeta moments;
  euler /      singular series Euler products, Dirichlet coefficient
  asympt       tables, the b/a coefficient ledgers and the full asymptotic
               polynomial, exponents of distribution, the beta law;
  oracle       independent brute-force sums that cross-check every
               coefficient numerically.
"""

from .arith import (
    DivisorTable,
    FactoredInteger,
    RationalExponent,
    divisor_count_array,
    dk_of_factored,
    dk_partial,
    dk_prime_power,
    factorize,
    sieve_dk,
    sigma_minus1_exact,
    sigma_minus1_moments,
)
from .asympt import (
    AsymptoticPolynomial,
    CoefficientContext,
    a_coefficient,
    ap_main_term,
    b_coefficient,
    bareikis_cdf,
    coefficient_context,
    conjecture_leading,
    corollary_lower_bound,
    correlation_leading,
    estermann_coefficients,
    main_polynomial,
    partial_vs_full_leading_gap,
    theta_base,
    theta_exponent,
)
from .errors import ConsistencyError, DivcorrError, PrecisionError, ResourceBudgetError
from .euler import (
    SingularSeries,
    cf_euler_jet,
    dirichlet_partials,
    evaluate_singular_series,
    singular_constant,
    singular_shift_factor,
    varphi_table,
)
from .jets import Jet2
from .oracle import (
    ComparisonReport,
    CorrelationResult,
    brute_ap_sweep,
    brute_correlation_decades,
    empirical_distribution,
    partial_divisor_array,
)
from .zeta_series import (
    c_coeffs,
    estermann_a_constants,
    stieltjes_table,
    zeta_power_coeffs,
)

__version__ = "0.1.0"
