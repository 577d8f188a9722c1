"""Randomized property suites runnable from the CLI.

Each suite takes a seed, generates instances inside the hypothesis class,
checks the module properties against oracles (an exact derivative reference,
exhaustive enumeration, exact diagonalization), and returns a deterministic
text report: an identical seed gives a byte-identical report.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

from . import ed
from .bounds import (
    critical_beta,
    finite_range_cmi_bound,
    power_law_cmi_bound,
    surface_region,
    tail_sum_check,
)
from .clusters import (
    count_bound_check,
    enumerate_connected,
    enumerate_connected_to_region,
    enumerate_linking,
    is_connected,
    is_connected_to,
    links_regions,
    make_cluster,
)
from .derivatives import cluster_derivative
from .expansion import effective_hamiltonian, log_partition_function
from .operators import embed
from .random_models import power_law_chain, random_chain, random_grid

SUITES = ("derivatives", "certificates", "counting", "bounds", "longrange")


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _report(lines, failures) -> tuple[bool, str]:
    ok = not failures
    lines.append(f"result: {'PASS' if ok else 'FAIL'} ({len(failures)} failures)")
    for f in failures:
        lines.append("FAILED: " + f)
    return ok, "\n".join(lines) + "\n"


def exact_derivative(ham, cluster, kept_region) -> np.ndarray:
    """Exact D_w G from nilpotent bookkeeping, sharing no combinatorics with
    ``beta-taylor`` (the block construction of higher-order Frechet
    derivatives, Higham & Relton, SIAM J. Matrix Anal. Appl. 35(3), 2014).

    Element j gets its own auxiliary qubit carrying N = [[0, 1], [0, 0]].
    The E_j = N on qubit j commute and square to zero, so X = -beta *
    sum_j E_j (x) h_j has X^(m+1) = 0 and exp(X) is a finite sum.  Tracing
    the traced sites out blockwise and dividing by their dimension leaves
    I + Y with Y nilpotent, so log(I + Y) is a finite series as well.  Its
    (aux 0, aux 2^m - 1) block is the coefficient of E_1 ... E_m: D_w G on
    the kept sites of V_w (1x1 when none are kept).
    """
    d, m, support = ham.local_dim, cluster.size, cluster.support
    kept_set = set(kept_region)
    kept = [i for i, v in enumerate(support) if v in kept_set]
    traced = [i for i, v in enumerate(support) if v not in kept_set]
    n, aux, dk, dt = len(support), 2 ** m, d ** len(kept), d ** len(traced)
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    x = 0.0
    for j, idx in enumerate(cluster.term_indices):
        e_j = np.kron(np.kron(np.eye(2 ** j), nil), np.eye(2 ** (m - j - 1)))
        h_j = embed(ham.terms[idx].as_operator(d), support).matrix
        x = x - ham.beta * np.kron(e_j, h_j)

    def series(y, coeff):
        out, power = np.zeros_like(y), np.eye(len(y))
        for k in range(1, m + 1):
            power = power @ y
            out = out + coeff(k) * power
        return out

    weight = np.eye(len(x)) + series(x, lambda k: 1.0 / math.factorial(k))
    # sort the site axes into (kept, traced) order, then trace the traced ones
    axes = [0] + [1 + i for i in kept + traced]
    w = weight.reshape(((aux,) + (d,) * n) * 2)
    w = w.transpose(axes + [n + 1 + a for a in axes]).reshape(aux, dk, dt, aux, dk, dt)
    y = np.einsum("akbclb->akcl", w).reshape(aux * dk, aux * dk) / dt
    log = series(y - np.eye(aux * dk), lambda k: (-1.0) ** (k + 1) / k)
    return log[:dk, -dk:]


def suite_derivatives(seed: int) -> tuple[bool, str]:
    """Agreement of ``beta-taylor`` with the exact reference, each pair
    compared on the cluster's own magnitude (beta * max ||h||)^m."""
    rng = np.random.default_rng(seed)
    lines = [f"suite: derivatives  seed: {seed}"]
    failures = []
    bc = critical_beta(2)
    checked = 0
    worst = 0.0
    for case in range(12):
        ham = random_chain(5, float(rng.uniform(0.2, 0.9)) * bc, seed=seed * 1000 + case)
        n_terms = len(ham.terms)
        first_order = ham.beta * max(t.norm for t in ham.terms)
        keep = tuple(range(3))
        for _ in range(6):
            m = int(rng.integers(1, 6))
            idxs = tuple(sorted(rng.integers(0, n_terms, size=m)))
            c = make_cluster(ham, idxs)
            if len(c.support) > 4:
                continue
            bt = cluster_derivative(ham, c, keep)
            ref = exact_derivative(ham, c, keep)
            scale = max(float(np.max(np.abs(bt))), first_order ** m)
            diff = float(np.max(np.abs(bt - ref))) / scale
            checked += 1
            worst = max(worst, diff)
            if diff > 1e-10:
                failures.append(
                    f"beta-taylor vs exact reference {_fmt(diff)} cluster={idxs} case={case}"
                )
    lines.append(f"reference pairs checked: {checked}")
    lines.append(f"worst relative gap: {_fmt(worst)}")
    lines.append("max tolerance: 1.0e-10 relative to max(|D_w|, (beta*max|h|)^m)")
    return _report(lines, failures)


def suite_certificates(seed: int) -> tuple[bool, str]:
    """Truncation-certificate soundness against exact diagonalization."""
    rng = np.random.default_rng(seed)
    lines = [f"suite: certificates  seed: {seed}"]
    failures = []
    bc = critical_beta(2)
    for case in range(4):
        frac = float(rng.choice([0.25, 0.5, 0.9]))
        ham = random_chain(6, frac * bc, seed=seed * 500 + case)
        st = ed.exact_gibbs(ham)
        region = (0, 1, 2)
        exact = ed.exact_effective_hamiltonian(st, region)
        for order in range(3):
            res = effective_hamiltonian(ham, region, order)
            err = float(
                np.linalg.norm(res.effective_operator().matrix - exact.matrix, 2)
            )
            line = f"case={case} beta/beta_c={frac} m0={order} err={_fmt(err)} cert={_fmt(res.truncation_error)}"
            lines.append(line)
            if err > res.truncation_error + 1e-9:
                failures.append(line)
        v, cert, _ = log_partition_function(ham, 3)
        gap = abs(v - st.log_z)
        lines.append(f"case={case} logz gap={_fmt(gap)} cert={_fmt(cert)}")
        if gap > cert + 1e-9:
            failures.append(f"logz case={case}")
    return _report(lines, failures)


def suite_counting(seed: int) -> tuple[bool, str]:
    """Cluster-count ceilings, multiplicity sums, and each enumerator's list
    against a brute-force scan filtered by the connectivity predicates."""
    lines = [f"suite: counting  seed: {seed}"]
    failures = []
    bc = critical_beta(2)
    ham = random_chain(5, 0.5 * bc, seed=seed)
    grid = random_grid(2, 3, 0.5 * bc, seed=seed + 1)
    for name, model, comp in (("chain", ham, (3, 4)), ("grid", grid, (4, 5))):
        region = tuple(v for v in range(model.graph.vertex_count) if v not in comp)
        for m in (1, 2, 3):
            measured, bound = count_bound_check(model, comp, m)
            lines.append(f"{name} m={m} measured={measured} bound={_fmt(bound)}")
            if measured > bound:
                failures.append(f"count bound {name} m={m}")
            scan = [
                make_cluster(model, idxs)
                for idxs in combinations_with_replacement(range(len(model.terms)), m)
            ]
            total, expected = sum(w.multiplicity for w in scan), len(model.terms) ** m
            lines.append(f"{name} m={m} multiplicity sum: {total} expected {expected}")
            if total != expected:
                failures.append(f"multiplicity sum {name} m={m}")
            for label, streamed, keep in (
                ("connected", enumerate_connected(model, m),
                 lambda w: is_connected(model, w)),
                ("connected within complement", enumerate_connected(model, m, within=comp),
                 lambda w: is_connected(model, w) and set(w.support) <= set(comp)),
                ("connected to region", enumerate_connected_to_region(model, region, m),
                 lambda w: is_connected_to(model, w, region)),
                ("linking", enumerate_linking(model, region, comp, m),
                 lambda w: links_regions(model, w, region, comp)),
            ):
                got = [w.term_indices for w in streamed]
                want = [w.term_indices for w in scan if keep(w)]
                lines.append(f"{name} m={m} {label}: emitted={len(got)} scan={len(want)}")
                if got != want:
                    failures.append(f"enumeration {label} {name} m={m}")
    return _report(lines, failures)


def suite_bounds(seed: int) -> tuple[bool, str]:
    """Finite-range CMI bound soundness and the correlation inequality."""
    rng = np.random.default_rng(seed)
    lines = [f"suite: bounds  seed: {seed}"]
    failures = []
    bc = critical_beta(2)
    for case in range(4):
        frac = float(rng.choice([0.25, 0.5, 0.9]))
        ham = random_chain(6, frac * bc, seed=seed * 300 + case)
        st = ed.exact_gibbs(ham)
        for a, b, c in (((0,), (1,), (2, 3, 4, 5)), ((0, 1), (2, 3), (4, 5))):
            value = ed.exact_cmi(st, a, b, c)
            d_ac = ham.graph.distance(a, c)
            surf = min(
                len(surface_region(ham.graph, a, 1)),
                len(surface_region(ham.graph, c, 1)),
            )
            rep = finite_range_cmi_bound(surf, ham.beta, bc, d_ac, 1)
            lines.append(
                f"case={case} dAC={d_ac} cmi={_fmt(value)} bound={_fmt(rep.value)}"
            )
            if rep.valid and value > rep.value + 1e-9:
                failures.append(f"cmi bound case={case} dAC={d_ac}")
        # correlation inequality on a random single-site observable pair
        oa = ed.SupportedOperator((0,), _random_unit_obs(rng), local_dim=2)
        ob = ed.SupportedOperator((5,), _random_unit_obs(rng), local_dim=2)
        cor = ed.operator_correlation(st, oa, ob)
        mi = ed.exact_cmi(st, (0,), (), (5,))
        lines.append(f"case={case} cor2={_fmt(cor * cor)} 2mi={_fmt(2 * mi)}")
        if cor * cor > 2 * mi + 1e-9:
            failures.append(f"correlation inequality case={case}")
    return _report(lines, failures)


def _random_unit_obs(rng) -> np.ndarray:
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = (a + a.conj().T) / 2
    return h / np.linalg.norm(h, 2)


def suite_longrange(seed: int) -> tuple[bool, str]:
    """Power-law bound soundness and the tail-sum inequality."""
    rng = np.random.default_rng(seed)
    lines = [f"suite: longrange  seed: {seed}"]
    failures = []
    bc = critical_beta(2)
    for case, alpha in enumerate((1.0, 2.0)):
        beta = float(rng.uniform(0.3, 0.9)) * bc / 11.0
        ham = power_law_chain(8, alpha, beta, seed=seed * 100 + case)
        st = ed.exact_gibbs(ham)
        a, c = (0,), (7,)
        b = tuple(range(1, 7))
        d_ac = ham.graph.distance(a, c)
        value = ed.exact_cmi(st, a, b, c)
        rep = power_law_cmi_bound(1, beta, 2, alpha, d_ac)
        lines.append(
            f"alpha={alpha} cmi={_fmt(value)} bound={_fmt(rep.value)} valid={rep.valid}"
        )
        if rep.valid and value > rep.value + 1e-9:
            failures.append(f"power-law bound alpha={alpha}")
        for m in (1, 2):
            l0 = max(2 * alpha, 3.0)
            measured, bound, ok = tail_sum_check(ham, m, int(l0))
            lines.append(
                f"alpha={alpha} m={m} tail measured={_fmt(measured)} bound={_fmt(bound)}"
            )
            if ok and measured > bound + 1e-12:
                failures.append(f"tail sum alpha={alpha} m={m}")
    return _report(lines, failures)


def run_suite(name: str, seed: int) -> tuple[bool, str]:
    table = {
        "derivatives": suite_derivatives,
        "certificates": suite_certificates,
        "counting": suite_counting,
        "bounds": suite_bounds,
        "longrange": suite_longrange,
    }
    if name not in table:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return table[name](seed)
