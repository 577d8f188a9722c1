"""Closed-form bound evaluators: threshold temperature, CMI decay bounds for
finite-range and power-law interactions, recovery error, surface regions, and
the long-range tail-sum inequality.

Every evaluator returns its value unconditionally and flags validity
separately: a bound computed outside its hypotheses is reported with
``valid=False`` and the reason, never silently altered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spin_model import Hamiltonian, PowerLaw, SpinGraph, ValidationError, check_beta, check_integer, g_tilde
from . import ed


@dataclass(frozen=True)
class BoundReport:
    name: str
    value: float
    valid: bool
    reason: str = ""
    inputs: dict = field(default_factory=dict)

    def __str__(self) -> str:
        status = "valid" if self.valid else f"INVALID ({self.reason})"
        return f"{self.name}: {self.value:.6e} [{status}]"


def critical_beta(k: int) -> float:
    """Inverse-temperature threshold 1/(8 e^3 k) below which all expansion
    certificates are rigorous.  A k below 1 raises ``ValidationError``."""
    k = check_integer(k, "k", 1)
    return 1.0 / (8.0 * math.e ** 3 * k)


def _require(ok: bool, message: str) -> None:
    """Refuse a bound input outside the formula's domain; a nan fails every
    comparison, so ``ok`` is False for it."""
    if not ok:
        raise ValidationError(message)


def surface_region(graph: SpinGraph, region, l: int) -> tuple[int, ...]:
    """Vertices of the region within graph distance l of its complement.

    The whole vertex set has no complement; its surface is defined empty.
    """
    l = check_integer(l, "l", 0)
    (region,) = graph.check_regions(region)
    rset = set(region)
    comp = [v for v in range(graph.vertex_count) if v not in rset]
    if not comp:
        return ()
    return tuple(v for v in region if graph.distance((v,), comp) <= l)


def finite_range_cmi_bound(
    min_surface: int, beta: float, beta_c: float, d_ac: float, r: int
) -> BoundReport:
    """Decay bound for exact CMI across a separating region of width d_AC:

        e * min(|dA_r|, |dC_r|) * (beta/beta_c)^(d_AC/r) / (1 - beta/beta_c)

    valid below the threshold temperature.  An infinite d_AC (disconnected
    regions) gives value 0.  A negative or non-finite beta, an r below 1, a
    negative min_surface and a negative or nan d_AC raise
    ``ValidationError``.
    """
    check_beta(beta)
    min_surface = check_integer(min_surface, "min_surface", 0)
    r = check_integer(r, "r", 1)
    _require(d_ac >= 0, f"d_ac must be >= 0, got {d_ac}")
    inputs = {
        "min_surface": min_surface,
        "beta": beta,
        "beta_c": beta_c,
        "d_ac": d_ac,
        "r": r,
    }
    x = beta / beta_c
    if math.isinf(d_ac):
        value = 0.0
    elif x >= 1.0:
        value = math.inf
    else:
        value = math.e * min_surface * x ** (d_ac / r) / (1.0 - x)
    valid = beta < beta_c
    reason = "" if valid else "beta >= beta_c"
    return BoundReport("finite_range_cmi_bound", value, valid, reason, inputs)


def power_law_cmi_bound(
    min_ac: int, beta: float, k: int, alpha: float, d_ac: float
) -> BoundReport:
    """Decay bound for power-law interactions:

        beta * min(|A|, |C|) * C_beta * d_AC^(-alpha),
        C_beta = (11 e^(1/k) / beta_c) / (1 - 11 beta / beta_c)

    valid for beta < beta_c/11 and d_AC >= 2*alpha.  A negative or
    non-finite beta, a k below 1, an alpha that is not positive (the rule of
    a power-law model), a negative min_ac and a negative or nan d_AC raise
    ``ValidationError``.
    """
    check_beta(beta)
    min_ac = check_integer(min_ac, "min_ac", 0)
    _require(d_ac >= 0, f"d_ac must be >= 0, got {d_ac}")
    _require(alpha > 0, f"alpha must be > 0, got {alpha}")
    beta_c = critical_beta(k)
    inputs = {
        "min_ac": min_ac,
        "beta": beta,
        "k": k,
        "alpha": alpha,
        "d_ac": d_ac,
        "beta_c": beta_c,
    }
    denom = 1.0 - 11.0 * beta / beta_c
    if math.isinf(d_ac):
        value = 0.0
    elif denom <= 0.0:
        value = math.inf
    else:
        c_beta = (11.0 * math.exp(1.0 / k) / beta_c) / denom
        value = beta * min_ac * c_beta / d_ac ** alpha
    if beta >= beta_c / 11.0:
        valid, reason = False, "beta >= beta_c/11"
    elif d_ac < 2.0 * alpha:
        valid, reason = False, "d_AC < 2*alpha"
    else:
        valid, reason = True, ""
    return BoundReport("power_law_cmi_bound", value, valid, reason, inputs)


def cmi_decay_bound(ham: Hamiltonian, a_region, c_region) -> BoundReport:
    """The CMI decay bound that applies to the model at distance d(A, C):
    for a power-law model the power-law bound on min(|A|, |C|), else the
    finite-range bound on the r-surfaces of A and C."""
    a, c = ham.graph.check_regions(a_region, c_region)
    d_ac = ham.graph.distance(a, c)
    if isinstance(ham.interaction_class, PowerLaw):
        alpha = ham.interaction_class.alpha
        return power_law_cmi_bound(min(len(a), len(c)), ham.beta, ham.k, alpha, d_ac)
    r = ham.range_r
    surf = min(len(surface_region(ham.graph, x, r)) for x in (a, c))
    return finite_range_cmi_bound(surf, ham.beta, critical_beta(ham.k), d_ac, r)


def recovery_error_bound(cmi: float) -> float:
    """Trace-norm error of the local recovery map guaranteed by a small CMI:
    sqrt(cmi * log 2).  A negative or nan CMI raises ``ValidationError``."""
    _require(cmi >= 0, f"cmi must be nonnegative, got {cmi}")
    return math.sqrt(cmi * math.log(2.0))


def area_law_saturation_series(ham: Hamiltonian, a_region, slices):
    """Mutual-information increments I(A:B_1..B_l) - I(A:B_1..B_{l-1}) for a
    growing sequence of disjoint slices, each paired with the model's CMI
    decay bound for C = B_l, since the increment is I(A:B_l | B_1..B_{l-1}).
    Exact-diagonalization backed."""
    a, *slices = ham.graph.check_regions(a_region, *slices)
    st = ed.exact_gibbs(ham)
    out = []
    prev = ed.exact_cmi(st, a, (), ())  # I(A:empty) = 0
    grown: tuple[int, ...] = ()
    for new in slices:
        mi = ed.exact_cmi(st, a, (), grown + new)
        increment = mi - prev
        prev = mi
        grown += new
        out.append((increment, cmi_decay_bound(ham, a, new)))
    return out


def tail_sum_check(ham: Hamiltonian, m: int, l0: int) -> tuple[float, float, bool]:
    """Measured sum of products of interaction tail profiles against the
    closed-form ceiling 11^m * l0^(-alpha).

    measured = sum over (l_1..l_m), each >= 1, with l_1+...+l_m >= l0, of
    prod_j g_tilde(l_j), taken over the instance's finite diameter range.
    Returns (measured, bound, hypothesis_ok) where hypothesis_ok records
    l0 >= 2*alpha (finite-range inputs are always within hypothesis).
    """
    m = check_integer(m, "m", 1)
    l0 = check_integer(l0, "l0", 1)
    n = ham.graph.vertex_count
    profile = np.array([0.0] + [g_tilde(ham, l) for l in range(1, n + 1)])
    # entry L of the m-fold convolution sums the products over l_1+...+l_m = L
    folded = profile
    for _ in range(m - 1):
        folded = np.convolve(folded, profile)
    measured = float(folded[l0:].sum())
    if isinstance(ham.interaction_class, PowerLaw):
        alpha = ham.interaction_class.alpha
        bound = 11.0 ** m * l0 ** (-alpha)
        ok = l0 >= 2.0 * alpha
    else:
        bound = 11.0 ** m * float(l0) ** (-1.0)
        ok = True
    return measured, bound, ok
