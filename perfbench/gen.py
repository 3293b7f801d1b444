"""Seeded generator of fifth-order conservation-form equations.

Each equation is ``u_t + D_x^2 K = 0`` with ``K`` a random polynomial of
degree at most 2 in ``u, u_x, u_xx, u_xxx`` whose coefficients are a
rational times one of ``1, p, a(t), t``.  ``D_x^2 K`` is expanded here,
with a small polynomial differentiator over exponent tuples, and never by
the package under test: the exact zero identities the benchmark checks
hold only because this expansion is right, so the reference stays
independent of the program.

For every such equation, ``phi = alpha + beta*x`` is a nonlinear
self-adjoint substitution (the adjoint only involves ``v_t`` and
``v_xx`` and higher), ``x``-translation is a point symmetry, and the
normalized density of the resulting conservation law is ``beta*u``.
"""

from __future__ import annotations

import random
from fractions import Fraction

ORDER = 6  # jets u .. u_5x, enough for D_x^2 of a third-order K
JET_NAMES = ("u", "u_x", "u_xx", "u_xxx", "u_xxxx", "u_xxxxx")
SYMBOLS = ("", "p", "a", "t")

# density the x-translation law normalizes to; see the module docstring
EXPECTED_DENSITY = "beta*u"


def _dx(poly: dict) -> dict:
    """Total x-derivative of a polynomial {(symbol, exps): Fraction}."""
    out: dict = {}
    for (sym, exps), coeff in poly.items():
        for k, e in enumerate(exps):
            if not e:
                continue
            if k + 1 >= ORDER:
                raise ValueError("jet order exceeds the generator's range")
            new = list(exps)
            new[k] -= 1
            new[k + 1] += 1
            key = (sym, tuple(new))
            out[key] = out.get(key, 0) + coeff * e
    return {key: c for key, c in out.items() if c}


def _random_term(rng: random.Random) -> tuple:
    exps = [0] * ORDER
    for _ in range(rng.randint(1, 2)):
        exps[rng.randrange(4)] += 1
    coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 1, 2, 3)))
    return (rng.choice(SYMBOLS), tuple(exps)), coeff


def _random_h(rng: random.Random, n_terms: int) -> dict:
    """D_x^2 K with exactly ``n_terms`` terms where possible.

    K starts from u_xxx, so the equation is of fifth order, and grows by
    random terms of degree 1 or 2; a term that would overshoot is skipped,
    unless many in a row do.  Fixing the size and the degree keeps the cost
    of equations of one size close together, whatever the seed.
    """
    k = {("", (0, 0, 0, 1, 0, 0)): Fraction(1)}
    h = _dx(_dx(k))
    skipped = 0
    while len(h) < n_terms:
        key, coeff = _random_term(rng)
        if key in k:
            continue
        grown = _dx(_dx({**k, key: coeff}))
        if len(grown) > n_terms and skipped < 100:
            skipped += 1
            continue
        k[key] = coeff
        h = grown
        skipped = 0
    return h


def _term_text(sym: str, exps: tuple, coeff: Fraction) -> str:
    factors = [sym] if sym else []
    for name, e in zip(JET_NAMES, exps):
        if e:
            factors.append(name if e == 1 else f"{name}^{e}")
    mag = abs(coeff)
    if mag != 1 or not factors:
        factors.insert(0, str(mag))
    return ("- " if coeff < 0 else "+ ") + "*".join(factors)


def equation(rng: random.Random, n_terms: int) -> tuple[str, int]:
    """One ``.nsa`` document whose left side has about ``n_terms`` terms,
    and the exact number of terms of that left side."""
    h = _random_h(rng, n_terms - 1)
    body = " ".join(_term_text(sym, exps, c) for (sym, exps), c in sorted(h.items()))
    text = (
        "param p;\nparam alpha;\nparam beta;\nfunc a(t);\n\n"
        f"u_t {body} = 0;\n"
        "phi = alpha + beta*x;\n"
        "symmetry xtrans { tau = 0; xi = 1; eta = 0; }\n"
    )
    return text, len(h) + 1
