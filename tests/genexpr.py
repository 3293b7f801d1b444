"""Random expression generation shared by the property suites.

Every suite seeds its own random.Random, so failures reproduce exactly.
"""

from fractions import Fraction

from nsakit import DiffExpr, Equation, ln, parse_document
from nsakit.atoms import CoeffFn, IndepVar, Jet, Param, UnknownFn

# standard declarations assumed by round-trip parsing of generated text
PREAMBLE = (
    "param p; func a(t); func A(t) deriv = a; func f(t) deriv = p*f*t^-1;"
)


def declarations():
    return parse_document(PREAMBLE).declarations


T = IndepVar("t")
X = IndepVar("x")
P = Param("p")

# a is a chain-rule function (primes allowed); A and f carry deriv rules
_DECLS = declarations()
A_FN = _DECLS.funcs["a"]
A_INT = _DECLS.funcs["A"]
F_POW = _DECLS.funcs["f"]

U = Jet("u")
U_X = Jet("u", 0, 1)
U_XX = Jet("u", 0, 2)
U_XXX = Jet("u", 0, 3)
U_T = Jet("u", 1, 0)
U_TX = Jet("u", 1, 1)
V = Jet("v")
V_X = Jet("v", 0, 1)
V_XX = Jet("v", 0, 2)
PHI = UnknownFn("phi")
PHI_X = UnknownFn("phi", 0, 1, 0)
PHI_T = UnknownFn("phi", 1, 0, 0)
PHI_U = UnknownFn("phi", 0, 0, 1)
PHI_XU = UnknownFn("phi", 0, 1, 1)

# broad pool for print/parse round trips
ROUNDTRIP_ATOMS = (
    T, X, P, A_FN, CoeffFn("a", 1), CoeffFn("a", 2), A_INT, F_POW,
    U, U_X, U_XX, U_XXX, U_T, U_TX, V, V_X, V_XX,
    PHI, PHI_X, PHI_T, PHI_U, PHI_XU,
)

# pool for variational-calculus properties (kept small for speed)
CALCULUS_ATOMS = (T, X, P, A_FN, F_POW, U, U_X, U_XX, PHI, PHI_X, PHI_U)

# pool for the right sides of generated evolution equations
EVOLUTION_ATOMS = (T, X, P, A_FN, F_POW, U, U_X, U_XX, U_XXX)

# pool for the substitution/derivative exchange property
EXCHANGE_ATOMS = (T, X, P, A_FN, U, U_X, U_XX, V, V_X, V_XX)

_U_EXPR = DiffExpr.from_atom(U)

# single-monomial arguments stay invertible, so their logs differentiate;
# the sum argument is printable and parseable but only valid where no
# total derivative is taken
DIFFERENTIABLE_LOG_ARGS = (
    _U_EXPR,
    DiffExpr.from_atom(U_X),
    DiffExpr.from_atom(T),
    2 * _U_EXPR,
)
ROUNDTRIP_LOG_ARGS = DIFFERENTIABLE_LOG_ARGS + (
    _U_EXPR + DiffExpr.from_atom(T),
)


def random_expr(
    rng,
    atoms=ROUNDTRIP_ATOMS,
    max_terms=4,
    max_factors=3,
    max_exp=3,
    log_args=ROUNDTRIP_LOG_ARGS,
    allow_negative_exp=True,
):
    """A random exact-rational expression over the given atom pool.

    Negative exponents must be disabled when the expression will have a
    sum substituted into one of its atoms, since only single-monomial
    expressions are invertible.
    """
    e = DiffExpr.zero()
    for _ in range(rng.randint(0, max_terms)):
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        term = DiffExpr.number(coeff)
        for _ in range(rng.randint(0, max_factors)):
            if log_args and rng.random() < 0.15:
                base = ln(rng.choice(log_args))
            else:
                base = DiffExpr.from_atom(rng.choice(atoms))
            exp = rng.randint(1, max_exp)
            if allow_negative_exp and rng.random() < 0.2:
                exp = -exp
            term = term * base**exp
        e = e + term
    return e


def random_point_function(rng):
    """A random nonzero function of x, t, u valid as a substitution."""
    while True:
        e = random_expr(
            rng,
            atoms=(T, X, U),
            max_terms=2,
            max_factors=2,
            max_exp=2,
            log_args=(),
        )
        if not e.is_zero:
            return e


def random_equation(rng):
    """u_t + h = 0 with a random h over EVOLUTION_ATOMS and logs that
    differentiate."""
    h = random_expr(rng, atoms=EVOLUTION_ATOMS, log_args=DIFFERENTIABLE_LOG_ARGS)
    return Equation(DiffExpr.from_atom(U_T) + h)
