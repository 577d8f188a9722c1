"""Acceptance suite: ten gating criteria, one pass/fail line each, plus a
non-gating benchmark report on cluster-count growth.

Every criterion prints exactly one line of the form

    criterion NN <name>: PASS/FAIL <detail>

and fails the test run on violation.  Tolerances are fixed here and not
configurable.  The whole file is budgeted to run in well under ten minutes.
"""

import math
import time
from itertools import combinations_with_replacement

import numpy as np
import pytest

from gibbsmarkov import ed
from gibbsmarkov.bounds import (
    area_law_saturation_series,
    critical_beta,
    finite_range_cmi_bound,
    power_law_cmi_bound,
    surface_region,
)
from gibbsmarkov.clusters import (
    counting_bound,
    enumerate_connected_to_region,
    is_connected,
    links_regions,
    make_cluster,
)
from gibbsmarkov.derivatives import cluster_derivative, cmi_cluster_term
from gibbsmarkov.expansion import (
    effective_hamiltonian,
    local_entropy,
    local_observable,
    log_partition_function,
    truncation_certificate,
)
from gibbsmarkov.operators import embed
from gibbsmarkov.random_models import (
    power_law_chain,
    random_chain,
    random_grid,
    tfi_chain,
)
from gibbsmarkov.spin_model import Hamiltonian
from gibbsmarkov.verify import SUITES, exact_derivative, run_suite

BETA_C = critical_beta(2)

BETA_FRACTIONS = (0.25, 0.5, 0.9)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _ensemble():
    """50 seeded models: chains of 6-8 sites and small grid patches, each with
    a fixed evaluation region covering roughly half the system."""
    kinds = [
        ("chain6", lambda b, s: random_chain(6, b, s), (0, 1, 2)),
        ("chain7", lambda b, s: random_chain(7, b, s), (0, 1, 2, 3)),
        ("chain8", lambda b, s: random_chain(8, b, s), (0, 1, 2, 3)),
        ("grid2x3", lambda b, s: random_grid(2, 3, b, s), (0, 1, 2)),
        ("grid2x4", lambda b, s: random_grid(2, 4, b, s), (0, 1, 2, 3)),
    ]
    for i in range(50):
        label, make, region = kinds[i % len(kinds)]
        yield f"{label}-{100 + i}", make, 100 + i, region


def test_criterion_01_certificate_soundness():
    start = time.time()
    checked = 0
    worst_margin = -math.inf
    for label, make, seed, region in _ensemble():
        for frac in BETA_FRACTIONS:
            ham = make(frac * BETA_C, seed)
            res = effective_hamiltonian(ham, region, 3)
            st = ed.exact_gibbs(ham)
            exact = ed.exact_effective_hamiltonian(st, region)
            dim = ham.local_dim ** len(region)
            bare = sum(
                (embed(t, region).matrix for t in res.bare_terms),
                np.zeros((dim, dim), dtype=complex),
            )
            phi_ed = exact.matrix - bare
            acc = res.scalar_part * np.eye(dim, dtype=complex)
            for m0 in range(4):
                for cluster, op in res.boundary_terms.get(m0, []):
                    if op.support:
                        acc = acc + cluster.multiplicity * embed(op, region).matrix
                    else:
                        acc = acc + cluster.multiplicity * complex(
                            op.matrix[0, 0]
                        ) * np.eye(dim)
                err = float(np.linalg.norm(phi_ed - acc, 2))
                cert, valid = truncation_certificate(ham, region, m0)
                assert valid
                worst_margin = max(worst_margin, err - cert)
                if err > cert + 1e-9:
                    _report(
                        1, "certificate-soundness", False,
                        f"{label} beta={frac}betac m0={m0}: {err:.3e} > {cert:.3e}",
                    )
                checked += 1
    _report(
        1, "certificate-soundness", True,
        f"{checked} cases, worst err-cert={worst_margin:.3e}, {time.time() - start:.1f}s",
    )


def test_criterion_02_finite_range_cmi_soundness():
    checked = 0
    worst = -math.inf
    for label, make, seed, _ in _ensemble():
        for frac in BETA_FRACTIONS:
            ham = make(frac * BETA_C, seed)
            st = ed.exact_gibbs(ham)
            g = ham.graph
            n = g.vertex_count
            a = (0,)
            for d_ac in (1, 2, 3):
                b = tuple(
                    v for v in range(1, n) if g.distance((v,), a) < d_ac
                )
                c = tuple(
                    v for v in range(1, n)
                    if v not in b and g.distance((v,), a) >= d_ac
                )
                if not c:
                    continue
                cmi = ed.exact_cmi(st, a, b, c)
                surf = min(
                    len(surface_region(g, a, 1)), len(surface_region(g, c, 1))
                )
                rep = finite_range_cmi_bound(surf, ham.beta, BETA_C, d_ac, 1)
                assert rep.valid
                worst = max(worst, cmi - rep.value)
                if cmi > rep.value:
                    _report(
                        2, "cmi-decay-finite-range", False,
                        f"{label} beta={frac}betac d={d_ac}: {cmi:.3e} > {rep.value:.3e}",
                    )
                checked += 1
    _report(
        2, "cmi-decay-finite-range", True,
        f"{checked} tripartitions, worst cmi-bound={worst:.3e}",
    )


def test_criterion_03_power_law_cmi_soundness():
    checked = 0
    worst = -math.inf
    for alpha in (1.0, 2.0):
        min_d = int(2 * alpha)
        for seed in range(200, 210):
            for beta in (BETA_C / 22.0, BETA_C / 12.0):
                ham = power_law_chain(8, alpha=alpha, beta=beta, seed=seed)
                st = ed.exact_gibbs(ham)
                for d_ac in (min_d, min_d + 1):
                    a = (0,)
                    b = tuple(range(1, d_ac))
                    c = tuple(range(d_ac, 8))
                    cmi = ed.exact_cmi(st, a, b, c)
                    rep = power_law_cmi_bound(
                        min(len(a), len(c)), beta, 2, alpha, float(d_ac)
                    )
                    assert rep.valid, rep.reason
                    worst = max(worst, cmi - rep.value)
                    if cmi > rep.value:
                        _report(
                            3, "cmi-decay-power-law", False,
                            f"alpha={alpha} seed={seed} d={d_ac}: {cmi:.3e} > {rep.value:.3e}",
                        )
                    checked += 1
    _report(
        3, "cmi-decay-power-law", True,
        f"{checked} cases, worst cmi-bound={worst:.3e}",
    )


def _sample_cluster(ham: Hamiltonian, rng, m: int, max_support: int = 4):
    """A random connected cluster of the given size with |V_w| <= max_support."""
    n_terms = len(ham.terms)
    while True:
        idxs = tuple(sorted(rng.integers(0, n_terms, size=m)))
        c = make_cluster(ham, idxs)
        if len(c.support) <= max_support and is_connected(ham, c):
            return c


def test_criterion_04_derivative_cross_validation():
    rng = np.random.default_rng(424242)
    worst_rel = 0.0
    for case in range(200):
        beta = float(rng.uniform(0.1, 0.4))
        ham = random_chain(4, beta=beta, seed=int(rng.integers(0, 2 ** 31)))
        m = int(rng.integers(1, 4))
        # the sample set (support caps, fully-traced m = 3, the 2^9 size cap
        # on kept + m * traced sites) is fixed so that the same 200 clusters
        # are drawn from this seed; the exact reference handles any of them
        cluster = _sample_cluster(ham, rng, m, max_support=3 if m >= 3 else 4)
        support = set(cluster.support)
        while True:
            if m >= 3:
                kept = ()
            else:
                kept = tuple(
                    v for v in range(4) if rng.random() < 0.5
                )
            traced = support - set(kept)
            if m >= 2 and any(
                set(ham.terms[i].support) <= set(kept)
                for i in cluster.term_indices
            ):
                # any fully-kept element makes the derivative vanish
                # identically, so a relative comparison is meaningless
                continue
            if 2 ** (len(support & set(kept)) + m * len(traced)) <= 512:
                break
        bt = cluster_derivative(ham, cluster, kept)
        ref = exact_derivative(ham, cluster, kept)
        scale = max(float(np.max(np.abs(bt))), float(np.max(np.abs(ref))))
        diff = float(np.max(np.abs(bt - ref)))
        # identically-vanishing clusters leave only machine noise; compare
        # those absolutely instead of dividing noise by noise
        rel = diff / scale if scale > 1e-12 else diff
        worst_rel = max(worst_rel, rel)
        if rel > 1e-10:
            _report(4, "derivative-cross-validation", False,
                    f"case {case}: beta-taylor vs exact reference rel={rel:.3e}")
    _report(
        4, "derivative-cross-validation", True,
        f"200 clusters, worst rel={worst_rel:.3e}",
    )


def test_criterion_05_vanishing_lemmas():
    rng = np.random.default_rng(515151)
    worst = 0.0
    for case in range(100):
        beta = float(rng.uniform(0.1, 0.4))
        ham = random_chain(6, beta=beta, seed=int(rng.integers(0, 2 ** 31)))
        if case % 2 == 0:
            # disconnected cluster: terms at the two chain ends plus repeats
            ends = [
                i for i, t in enumerate(ham.terms) if set(t.support) <= {0, 1}
            ]
            fars = [
                i for i, t in enumerate(ham.terms) if set(t.support) <= {4, 5}
            ]
            idxs = (
                int(rng.choice(ends)),
                int(rng.choice(fars)),
            ) + ((int(rng.choice(ends)),) if case % 4 == 0 else ())
            cluster = make_cluster(ham, idxs)
            assert not is_connected(ham, cluster)
            kept = tuple(v for v in range(6) if rng.random() < 0.5)
            # cluster_derivative returns zeros for a disconnected cluster
            # without forming a moment; the exact reference checks the
            # lemma itself
            val = max(
                float(np.max(np.abs(cluster_derivative(ham, cluster, kept)))),
                float(np.max(np.abs(exact_derivative(ham, cluster, kept)))),
            )
        else:
            # connected cluster anchored away from C: no A-C link, so the
            # four-log combination cancels exactly
            a, b, c = (0,), (1, 2, 3), (4, 5)
            cluster = _sample_cluster(ham, rng, int(rng.integers(1, 4)))
            if links_regions(ham, cluster, a, c):
                near = [
                    i for i, t in enumerate(ham.terms)
                    if set(t.support) <= {0, 1, 2}
                ]
                cluster = make_cluster(ham, (int(rng.choice(near)),))
            assert not links_regions(ham, cluster, a, c)
            piece = cmi_cluster_term(ham, cluster, a, b, c)
            val = float(np.max(np.abs(piece.matrix)))
        worst = max(worst, val)
        if val > 1e-10:
            _report(5, "vanishing-lemmas", False, f"case {case}: |op|={val:.3e}")
    _report(5, "vanishing-lemmas", True, f"100 cases, worst residual={worst:.3e}")


def test_criterion_06_counting_bound():
    worst_ratio = 0.0
    checked = 0
    cases = [
        (random_chain(8, 0.3 * BETA_C, seed=303), (0, 1, 2, 3)),
        (random_chain(6, 0.3 * BETA_C, seed=304), (0, 1)),
        (random_grid(2, 4, 0.3 * BETA_C, seed=305), (0, 1, 4, 5)),
        (random_grid(2, 3, 0.3 * BETA_C, seed=306), (0, 3)),
    ]
    for ham, region in cases:
        # the bound counts the clusters on the region that touch L^c
        comp = set(range(ham.graph.vertex_count)).difference(region)
        for m in range(1, 5):
            count = sum(
                1 for w in enumerate_connected_to_region(ham, region, m)
                if comp.intersection(w.support)
            )
            bound = counting_bound(ham, len(comp), m)
            worst_ratio = max(worst_ratio, count / bound)
            if count > bound:
                _report(6, "counting-bound", False,
                        f"m={m}: {count} > {bound:.3e}")
            checked += 1
    _report(
        6, "counting-bound", True,
        f"{checked} (region, m) pairs, worst count/bound={worst_ratio:.3e}",
    )


def test_criterion_07_tfi_convergence():
    ham = tfi_chain(6, beta=BETA_C / 4.0)
    st = ed.exact_gibbs(ham)
    value, cert, valid = log_partition_function(ham, 4)
    logz_gap = abs(value - st.log_z)
    ok = valid and logz_gap <= cert

    from gibbsmarkov.operators import SupportedOperator
    from gibbsmarkov.spin_model import PAULI

    obs = SupportedOperator((3,), PAULI["Z"], local_dim=2)
    exact_mag = float(
        np.trace(ed.reduced_density(st, (3,)).matrix @ PAULI["Z"]).real
    )
    mag, mag_cert, mag_valid = local_observable(ham, obs, order=4)
    mag_gap = abs(mag - exact_mag)
    ok = ok and mag_valid and mag_gap <= mag_cert

    region = (2, 3)
    exact_s = ed.entropy(ed.reduced_density(st, region))
    s_val, s_cert, s_valid = local_entropy(ham, region, order=4)
    s_gap = abs(s_val - exact_s)
    ok = ok and s_valid and s_gap <= s_cert
    _report(
        7, "tfi-logz-observable-entropy", ok,
        f"logZ gap {logz_gap:.2e}<=cert {cert:.2e}, "
        f"magnetization gap {mag_gap:.2e}<=cert {mag_cert:.2e}, "
        f"entropy gap {s_gap:.2e}<=cert {s_cert:.2e}",
    )


def test_criterion_08_area_law_saturation():
    ham = random_chain(8, beta=BETA_C / 4.0, seed=808)
    slices = [(2,), (3,), (4,), (5,), (6,), (7,)]
    series = area_law_saturation_series(ham, (0, 1), slices)
    ok = True
    details = []
    for l, (increment, bound) in enumerate(series, start=1):
        assert bound.valid
        if increment > bound.value + 1e-12:
            ok = False
        details.append(f"l={l}: {increment:.2e}<={bound.value:.2e}")
    _report(8, "area-law-saturation", ok, "; ".join(details[:3]) + " ...")


def test_criterion_09_correlation_inequality():
    from gibbsmarkov.operators import SupportedOperator
    from gibbsmarkov.random_models import random_hermitian

    rng = np.random.default_rng(909090)
    worst = -math.inf
    for case in range(100):
        frac = float(rng.choice(BETA_FRACTIONS))
        ham = random_chain(6, beta=frac * BETA_C, seed=int(rng.integers(0, 2 ** 31)))
        st = ed.exact_gibbs(ham)
        i, j = sorted(rng.choice(6, size=2, replace=False))
        op_a = SupportedOperator((int(i),), random_hermitian(rng, 2), local_dim=2)
        op_b = SupportedOperator((int(j),), random_hermitian(rng, 2), local_dim=2)
        cor = ed.operator_correlation(st, op_a, op_b)
        mi = ed.exact_cmi(st, (int(i),), (), (int(j),))
        excess = cor ** 2 - 2.0 * mi
        worst = max(worst, excess)
        if excess > 1e-9:
            _report(9, "correlation-inequality", False,
                    f"case {case}: Cor^2 - 2I = {excess:.3e}")
    _report(
        9, "correlation-inequality", True,
        f"100 cases, worst Cor^2-2I={worst:.3e}",
    )


def test_criterion_10_verify_determinism():
    first = {}
    for name in SUITES:
        ok, report = run_suite(name, seed=5)
        assert ok, f"verify suite {name} failed"
        first[name] = report
    identical = True
    for name in SUITES:
        ok, report = run_suite(name, seed=5)
        if report != first[name] or not ok:
            identical = False
    _report(
        10, "verify-determinism", identical,
        f"{len(SUITES)} suites re-run byte-identical",
    )


def test_benchmark_cluster_count_growth():
    """Non-gating: cluster counts per order should grow geometrically with a
    per-order factor no worse than the counting-bound base."""
    ham = random_chain(12, beta=0.3 * BETA_C, seed=1212)
    region = (0, 1, 2, 3, 4, 5)
    base = 3.0 * 2 ** ham.k * ham.graph.degree ** (ham.range_r * ham.k)
    # the clusters on the region that touch L^c, which the bound counts
    comp = set(range(ham.graph.vertex_count)).difference(region)
    counts = []
    print("benchmark: cluster-count growth (non-gating)")
    print(f"{'m':>3} {'count':>8} {'bound':>12} {'growth':>8}")
    for m in range(1, 5):
        count = sum(
            1 for w in enumerate_connected_to_region(ham, region, m)
            if comp.intersection(w.support)
        )
        bound = counting_bound(ham, len(comp), m)
        growth = count / counts[-1] if counts else float("nan")
        counts.append(count)
        print(f"{m:>3} {count:>8} {bound:>12.3e} {growth:>8.2f}")
    ratios = [b / a for a, b in zip(counts, counts[1:])]
    print(
        f"per-order growth {['%.1f' % r for r in ratios]} vs bound base {base:.1f}"
    )
