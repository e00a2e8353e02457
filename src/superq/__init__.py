"""Super-qubit and super-coherent states on a truncated fermion-boson space.

The package constructs the n super-particle, super-qubit, super-coherent and
flipped states, and verifies their closed-form properties (annihilation
relations, commutators, concurrence, entropy, quadrature dispersions and the
Fibonacci/Golden uncertainty ladder) against independent dense-matrix
oracles.
"""

from .errors import (
    InvalidDimensionError,
    NormalizationError,
    SingularParameterError,
    TruncationError,
)
from .moebius import (
    BlochPoint,
    CartesianBloch,
    ExtendedComplex,
    bloch_cartesian,
    concurrence_circle,
    zeta_to_bloch,
)
from .fock import (
    DEFAULT_DIM,
    GUARD_BAND,
    FockVector,
    boson_annihilator,
    displaced_columns,
    displacement_operator,
    ensure_displacement_dim,
    required_displacement_dim,
)
from .superstate import (
    BlockOperator,
    CoherentParams,
    CommutatorResiduals,
    SuperQubitParams,
    SuperVector,
    commutator_suite,
    flip_operator,
    flip_state,
    n_superparticle_state,
    pole_probabilities,
    super_annihilation,
    super_annihilation_transposed,
    super_coherent_state,
    super_creation_gate,
    super_number_operator,
    super_qubit_state,
)
from .entanglement import (
    DensityMatrix,
    collapse_probabilities,
    concurrence_gram,
    concurrence_n_state,
    concurrence_superqubit,
    entanglement_entropy_bits,
    entropy_from_z,
    reduced_boson_density,
)
from .uncertainty import (
    GOLDEN_RATIO,
    FibonacciRecord,
    QuadratureStats,
    fibonacci_ladder,
    fibonacci_number,
    fibonacci_record,
    golden_limit,
    mean_quadratures_closed,
    quadrature_operators,
    quadrature_stats_closed,
    quadrature_stats_numeric,
    variance_quadratures_closed,
)
from .verify import Check, VerificationReport, run_verify

__version__ = "0.1.0"
