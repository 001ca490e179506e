"""qchain: q-Hermite and Al-Salam-Chihara polynomial families, exact
arithmetic in Q(sqrt(D)), and the discrete Markov transition kernels
supported on their zeros.

The package has an exact lane (Fraction / QuadraticNumber scalars, every
identity holds identically) and a float lane (fast simulation); all
polynomial evaluators are generic over both.
"""

from .exactnum import (
    DiscriminantMismatch,
    NotAPerfectSquare,
    QuadraticNumber,
    Rational,
    quad_sqrt,
    rational_sqrt,
    scalar_sqrt,
)
from .markov import (
    Atom,
    ChainConfig,
    CompositionMismatch,
    ConditionalDistribution,
    DegenerateSupport,
    InsufficientSamples,
    InvalidKernel,
    NegativeMassError,
    StateOverflow,
    Trajectory,
    build_distribution,
    compose,
    conditional_moment_residual,
    empirical_conditional_moment,
    k_step_distribution,
    sample_step,
    simulate,
    verify_chapman_kolmogorov,
)
from .qcore import (
    eval_B,
    eval_B_seq,
    eval_H,
    eval_H_seq,
    eval_h,
    eval_h_seq,
    eval_p,
    eval_p_expansion,
    eval_p_seq,
    q_binomial,
    q_bracket,
    q_factorial,
    q_pochhammer,
)
from .spectra import (
    NotRepresentable,
    VerificationFailed,
    VerificationReport,
    chi,
    chi_radical,
    eval_product_form,
    eval_sum_form,
    hermite_limit_identity,
    index_set,
    index_sumset,
    t_factor,
    v_factor,
    verify_addition_formula,
    verify_B_H_relation,
    verify_chi_properties,
    verify_factorization,
    verify_h_H_relation,
)

__version__ = "0.1.0"
