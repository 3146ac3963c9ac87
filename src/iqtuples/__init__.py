"""Tuples of imaginary quadratic fields with a common class-number divisor.

Constructs quadruples, quintuples, and (pi(m)+2)-tuples of imaginary
quadratic fields whose class numbers are all divisible by a chosen odd n,
and certifies the divisibility by exact computation: class numbers of
binary quadratic forms, square-free decomposition, Lehmer numbers with
primitive-divisor analysis, and the structure of x^2 + d*y^2 = ell^z.
"""

from .arith import (
    Factorization,
    SquarefreeDecomposition,
    factorize,
    is_prime,
    kronecker,
    primes_up_to,
    squarefree_decompose,
)
from .classno import (
    ClassNumberResult,
    QuadForm,
    class_number_dirichlet,
    class_number_forms,
    field_class_number,
    fundamental_discriminant,
    is_fundamental_discriminant,
    reduce_form,
)
from .errors import (
    BudgetError,
    DomainError,
    HypothesisCheck,
    HypothesisRejection,
    OutOfRangeError,
)
from .families import (
    FamilyMember,
    FamilyTuple,
    pi_tuple,
    quadruple,
    quintuple,
    verify_tuple,
)
from .lehmer import (
    LehmerParams,
    equivalent_params,
    exceptional_table_lookup,
    exceptional_tables,
    fibonacci,
    has_primitive_divisor,
    lehmer_number,
    lucas,
    primitive_divisors,
)
from .lrn import (
    Decomposition,
    LrnInstance,
    LrnSolution,
    Theorem31Report,
    solve_brute,
    solve_structured,
    theorem31_verify,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ClassNumberResult",
    "Decomposition",
    "DomainError",
    "Factorization",
    "FamilyMember",
    "FamilyTuple",
    "HypothesisCheck",
    "HypothesisRejection",
    "LehmerParams",
    "LrnInstance",
    "LrnSolution",
    "OutOfRangeError",
    "QuadForm",
    "SquarefreeDecomposition",
    "Theorem31Report",
    "class_number_dirichlet",
    "class_number_forms",
    "equivalent_params",
    "exceptional_table_lookup",
    "exceptional_tables",
    "factorize",
    "fibonacci",
    "field_class_number",
    "fundamental_discriminant",
    "has_primitive_divisor",
    "is_fundamental_discriminant",
    "is_prime",
    "kronecker",
    "lehmer_number",
    "lucas",
    "pi_tuple",
    "primes_up_to",
    "primitive_divisors",
    "quadruple",
    "quintuple",
    "reduce_form",
    "solve_brute",
    "solve_structured",
    "squarefree_decompose",
    "theorem31_verify",
    "verify_tuple",
]
