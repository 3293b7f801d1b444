"""Symbolic toolkit for adjoint equations, self-adjointness analysis and
conservation laws of scalar evolution equations in one space dimension.

All arithmetic is exact over the rationals.  The main entry points:

- :func:`parse_document` / :func:`parse_expression` read the text format;
- :func:`adjoint_equation` builds the adjoint of an equation;
- :func:`nsa_check` tests a substitution for nonlinear self-adjointness;
- :func:`determining_system` generates the conditions a substitution
  must satisfy;
- :func:`ibragimov_vector` constructs a conserved vector from a point
  symmetry, and :func:`verify_divergence` checks it on solutions;
- :mod:`nsakit.catalog` holds the built-in worked examples.
"""

from types import ModuleType as _ModuleType

from .atoms import (
    CoeffFn,
    IndepVar,
    Jet,
    Log,
    Param,
    UnknownFn,
)
from .expr import DiffExpr, as_expr, equal, ln, primitive_normal
from .calculus import (
    Equation,
    PointSymmetry,
    characteristic,
    euler,
    formal_lagrangian,
    partial_coord,
    partial_jet,
    prolonged_action,
    reduce_mod,
    substitute_dependent,
    substitute_symbols,
    total_derivative,
)
from .adjoint import (
    Classification,
    NsaReport,
    Substitution,
    adjoint_equation,
    adjoint_system,
    classify_substitution,
    determining_system,
    determining_system_detailed,
    nsa_check,
)
from .conslaw import (
    ConservedVector,
    Provenance,
    density_normalize,
    ibragimov_vector,
    is_trivial,
    localize,
    verify_divergence,
)
from .errors import (
    CollectError,
    DeclarationError,
    EquationFormError,
    ExpressionError,
    NsaError,
    OrderCapError,
    ParseError,
    SubstitutionError,
    UnsupportedInputError,
)
from .parser import (
    Declarations,
    ReorderedSubscriptWarning,
    SourceDocument,
    parse_document,
    parse_expression,
    parse_symmetry,
    print_document,
)
from .catalog import (
    CatalogEntry,
    catalog_entries,
    catalog_entry,
    load_fixture,
    verify_entry,
)

__version__ = "0.1.0"

# every public name imported above, in import order
__all__ = [
    name for name, value in dict(globals()).items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
