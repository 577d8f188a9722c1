"""Seeded models and job lists of the three benchmark workloads.

Every job mirrors one CLI subcommand and calls the library through module
attributes (``expansion.effective_hamiltonian`` rather than a name imported
into this file), so the traced run's patches see every call.  A job returns
its output values, the scales to compare them on, and a list of correctness
checks; ``compare`` adds the checks against the recorded reference outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from gibbsmarkov import clusters, ed, expansion
from gibbsmarkov.bounds import (
    critical_beta,
    finite_range_cmi_bound,
    power_law_cmi_bound,
    surface_region,
)
from gibbsmarkov.operators import SupportedOperator
from gibbsmarkov.random_models import random_chain, random_grid
from gibbsmarkov.spin_model import PAULI, FiniteRange, load_model

ROOT = Path(__file__).resolve().parent.parent

# Every generated model sits at a quarter of the convergence threshold; the
# shipped model file carries its own beta, as the CLI uses it.
BETA = critical_beta(2) / 4.0

# The ROADMAP's "same numbers" tolerance for outputs against the reference.
REFERENCE_RTOL = 1e-12

# ED computes the CMI as a difference of four entropies, each at most
# |ABC| log d.  Its round-off, measured over random local basis changes of
# the CMI models here, is at most 3 ulp of that; allow 16.
ED_ROUNDOFF_ULPS = 16


def _chain(n: int):
    return lambda seed, j: random_chain(n, BETA, seed=1000 * seed + j)


def _grid(rows: int, cols: int):
    return lambda seed, j: random_grid(rows, cols, BETA, seed=1000 * seed + j)


def _model_file(name: str):
    return lambda seed, j: load_model(ROOT / "models" / name)


# workload -> model name -> build(seed, index).  The index keeps the
# models of one workload independent of each other for a given seed.
MODELS = {
    "highorder": {
        "chain3": _chain(3),
        "chain4": _chain(4),
    },
    "wide": {
        "chain32": _chain(32),
        "grid5x5": _grid(5, 5),
        "grid4x4": _grid(4, 4),
    },
    "local": {
        "chain12": _chain(12),
        "chain9": _chain(9),
        "powerlaw_chain6": _model_file("powerlaw_chain6.json"),
    },
}


def build_models(workload: str, seed: int) -> dict:
    return {
        name: build(seed, j)
        for j, (name, build) in enumerate(MODELS[workload].items())
    }


# ---------------------------------------------------------------------------
# jobs


def _check(label: str, ok: bool, detail: str) -> tuple[str, bool, str]:
    return label, bool(ok), detail


def _matrix(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def logz(model: str, order: int) -> Callable:
    def job(models):
        ham = models[model]
        value, cert, valid = expansion.log_partition_function(ham, order)
        values = {"log_z": value, "certificate": cert}
        checks = [_check("certificate-valid", valid, f"cert={cert:.6e}")]
        if ham.graph.vertex_count <= ed.DEFAULT_ED_LIMIT:
            exact = ed.exact_gibbs(ham).log_z
            gap = abs(value - exact)
            values["ed_log_z"] = exact
            checks.append(
                _check("series-vs-ed", gap <= cert, f"|gap|={gap:.6e} cert={cert:.6e}")
            )
        return values, {}, checks

    return job


def effham(model: str, region, order: int) -> Callable:
    def job(models):
        ham = models[model]
        res = expansion.effective_hamiltonian(ham, region, order)
        heff = res.effective_operator()
        values = {
            "heff": _matrix(heff.matrix),
            "boundary": _matrix(res.boundary_operator().matrix),
            "scalar_part": res.scalar_part,
            "per_order_norms": [v for _, v in sorted(res.per_order_norms().items())],
            # The boundary operator once per cluster size, so that each
            # order is compared on its own magnitude.
            "per_order_boundary": [
                _matrix(replace(res, boundary_terms={m: e}).boundary_operator().matrix)
                for m, e in sorted(res.boundary_terms.items())
            ],
            "clusters_per_order": [len(v) for _, v in sorted(res.boundary_terms.items())],
            "certificate": res.truncation_error,
        }
        checks = [
            _check("certificate-valid", res.certificate_valid, f"cert={res.truncation_error:.6e}"),
            _check("hermitian", heff.is_hermitian(), "H_eff"),
        ]
        if ham.graph.vertex_count <= ed.DEFAULT_ED_LIMIT:
            st = ed.exact_gibbs(ham)
            exact = ed.exact_effective_hamiltonian(st, res.region)
            err = float(np.linalg.norm(heff.matrix - exact.matrix, 2))
            checks.append(
                _check(
                    "heff-vs-ed",
                    err <= res.truncation_error,
                    f"|H_eff-exact|={err:.6e} cert={res.truncation_error:.6e}",
                )
            )
        return values, {}, checks

    return job


def reduced(model: str, region, order: int) -> Callable:
    def job(models):
        state, res = expansion.reduced_state(models[model], region, order)
        evals = np.linalg.eigvalsh(state.matrix)
        trace = complex(np.trace(state.matrix))
        values = {"state": _matrix(state.matrix), "eigenvalues": [float(x) for x in evals]}
        checks = [
            _check("certificate-valid", res.certificate_valid, f"cert={res.truncation_error:.6e}"),
            _check("unit-trace", abs(trace - 1.0) <= 1e-12, f"tr={trace}"),
            _check("positive", evals.min() >= -1e-12, f"min eig={evals.min():.3e}"),
        ]
        return values, {}, checks

    return job


def entropy(model: str, region, order: int) -> Callable:
    def job(models):
        value, cert, valid = expansion.local_entropy(models[model], region, order)
        top = len(region) * math.log(models[model].local_dim)
        values = {"entropy": value, "certificate": cert}
        checks = [
            _check("certificate-valid", valid, f"cert={cert:.6e}"),
            _check("in-range", -1e-12 <= value <= top + 1e-12, f"S={value:.12e} max={top:.6f}"),
        ]
        return values, {}, checks

    return job


def observable(model: str, support, pauli: str, order: int) -> Callable:
    def job(models):
        ham = models[model]
        mat = PAULI[pauli[0]]
        for ch in pauli[1:]:
            mat = np.kron(mat, PAULI[ch])
        obs = SupportedOperator(support, mat, local_dim=ham.local_dim)
        value, cert, valid = expansion.local_observable(ham, obs, order)
        values = {"value": value, "certificate": cert}
        checks = [
            _check("certificate-valid", valid, f"cert={cert:.6e}"),
            _check("in-range", abs(value) <= obs.norm() + 1e-12, f"<O>={value:.12e}"),
        ]
        # <O> is a sum of O(||O||) terms that nearly cancel at high temperature.
        return values, {"value": obs.norm()}, checks

    return job


def cmi(model: str, a, b, c, order: int) -> Callable:
    """CMI expansion with ED.  Checks: the exact CMI is non-negative and below
    the closed-form decay bound, and tr(rho H) differs from it by at most the
    summed order-m norm ceilings of the orders the truncation dropped."""

    def job(models):
        ham = models[model]
        st = ed.exact_gibbs(ham)
        res = expansion.cmi_expansion(ham, a, b, c, order, gibbs_state=st)
        exact = ed.exact_cmi(st, a, b, c)
        x = ham.beta / critical_beta(ham.k)
        tail = expansion.cmi_order_norm_bound(ham, a, c, order + 1) / (1.0 - x)
        d_ac = ham.graph.distance(a, c)
        if isinstance(ham.interaction_class, FiniteRange):
            surf = min(
                len(surface_region(ham.graph, a, ham.range_r)),
                len(surface_region(ham.graph, c, ham.range_r)),
            )
            rep = finite_range_cmi_bound(surf, ham.beta, critical_beta(ham.k), d_ac, ham.range_r)
        else:
            rep = power_law_cmi_bound(
                min(len(a), len(c)), ham.beta, ham.k, ham.interaction_class.alpha, d_ac
            )
        per_order = [v for _, v in sorted(res.per_order_norm_sums.items())]
        values = {
            "operator_eigenvalues": [float(v) for v in np.linalg.eigvalsh(res.operator.matrix)],
            "per_order_norm_sums": per_order,
            "cmi_estimate": res.cmi_estimate,
            "ed_cmi": exact,
        }
        # ED's own round-off; the series side gets no slack.
        top_entropy = len(set(a) | set(b) | set(c)) * math.log(ham.local_dim)
        ed_slack = ED_ROUNDOFF_ULPS * np.finfo(float).eps * top_entropy
        gap = abs(res.cmi_estimate - exact)
        checks = [
            _check("ed-cmi-nonnegative", exact >= -ed_slack, f"cmi={exact:.6e}"),
            _check(
                "ed-cmi-below-decay-bound",
                not rep.valid or exact <= rep.value + ed_slack,
                str(rep),
            ),
            _check(
                "estimate-vs-ed",
                gap <= tail + ed_slack,
                f"|estimate-exact|={gap:.6e} tail={tail:.6e} ed_slack={ed_slack:.1e}",
            ),
        ]
        # The order-m sum is what is left after the four regions' order-m
        # derivatives, each of size about (beta*||h||)^m, cancel; compare it
        # on that size.  The operator and the estimate carry the round-off of
        # the lowest order that has linking clusters.  The ED CMI is compared
        # on the scale of the entropies it is a difference of.
        first_order = ham.beta * max(t.norm for t in ham.terms)
        order_scales = [first_order**m for m in range(1, order + 1)]
        lowest = next((s for s, v in zip(order_scales, per_order) if v), order_scales[-1])
        scales = {
            "operator_eigenvalues": lowest,
            "per_order_norm_sums": order_scales,
            "cmi_estimate": lowest,
            "ed_cmi": top_entropy,
        }
        return values, scales, checks

    return job


def cluster_counts(model: str, anchor, max_order: int) -> Callable:
    def job(models):
        ham = models[model]
        comp = ham.graph.vertex_count - len(anchor)
        counts = [
            sum(1 for _ in clusters.enumerate_connected_to_region(ham, anchor, m))
            for m in range(1, max_order + 1)
        ]
        checks = [
            _check(
                "below-counting-bound",
                all(n <= clusters.counting_bound(ham, comp, m) for m, n in enumerate(counts, 1)),
                f"counts={counts}",
            )
        ]
        return {"counts": counts}, {}, checks

    return job


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable


# Why each workload exists, and which layer it loads, is in README.md next
# to this file.
JOBS = {
    "highorder": (
        Job("logz chain3 order5", logz("chain3", 5)),
        Job("effham chain3 L=1 order5", effham("chain3", (1,), 5)),
        Job("cmi chain4 A=0 B=1,2 C=3 order5", cmi("chain4", (0,), (1, 2), (3,), 5)),
    ),
    "wide": (
        Job("logz chain32 order3", logz("chain32", 3)),
        Job("logz grid5x5 order3", logz("grid5x5", 3)),
        Job("effham chain32 L=15,16 order3", effham("chain32", (15, 16), 3)),
        Job("clusters grid4x4 anchor=5,6 m<=4", cluster_counts("grid4x4", (5, 6), 4)),
        Job("clusters chain32 anchor=15,16 m<=5", cluster_counts("chain32", (15, 16), 5)),
    ),
    "local": (
        Job("reduced chain12 L=5,6 order3", reduced("chain12", (5, 6), 3)),
        Job("entropy chain12 L=6,7 order3", entropy("chain12", (6, 7), 3)),
        Job("observable chain12 ZZ@5,6 order3", observable("chain12", (5, 6), "ZZ", 3)),
        Job("effham chain9 L=4,5 order3", effham("chain9", (4, 5), 3)),
        Job(
            "cmi powerlaw_chain6 A=0 B=1,2 C=3,4,5 order3",
            cmi("powerlaw_chain6", (0,), (1, 2), (3, 4, 5), 3),
        ),
        Job("cmi chain9 A=0,1 B=2,3 C=4,5 order4", cmi("chain9", (0, 1), (2, 3), (4, 5), 4)),
    ),
}


# ---------------------------------------------------------------------------
# reference comparison


def compare(values: dict, reference: dict, scales: dict, floats: bool) -> list:
    """Checks of ``values`` against the recorded reference values of a job.

    Integers (cluster counts) depend only on the graph, never on the random
    coefficients, so they must match exactly for every seed.  Floats are
    compared only when ``floats`` is set, with the ROADMAP tolerance.  Each
    entry along the first axis -- one order of a per-order list, one row of
    a matrix, one element of a vector -- is compared on its own largest
    magnitude, or on its recorded scale when that is larger (a scale is one
    number, or a list with one number per entry).
    """
    out = []
    for key, ref in reference.items():
        got = values.get(key)
        want = np.atleast_1d(np.asarray(ref))
        if want.dtype.kind == "i":
            ok = got is not None and np.array_equal(np.asarray(got), np.asarray(ref))
            out.append(_check(f"reference {key}", ok, f"got {got} want {ref}"))
        elif floats:
            have = np.atleast_1d(np.asarray(got if got is not None else np.nan, dtype=float))
            if have.shape != want.shape:
                out.append(_check(f"reference {key}", False, f"shape {have.shape} want {want.shape}"))
                continue
            rows = len(want)
            size = np.abs(want).reshape(rows, -1).max(axis=1)
            tol = REFERENCE_RTOL * np.maximum(size, np.broadcast_to(scales.get(key, 0.0), rows))
            err = np.abs(have - want).reshape(rows, -1).max(axis=1)
            worst = int(np.argmax(err - tol))
            ok = bool(np.all(err <= tol))
            out.append(_check(
                f"reference {key}", ok,
                f"entry {worst}: |diff|={err[worst]:.3e} tol={tol[worst]:.3e}",
            ))
    return out
