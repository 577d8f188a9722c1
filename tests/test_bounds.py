"""Arithmetic and soundness checks for the closed-form bound evaluators."""

import math
import re

import numpy as np
import pytest

from gibbsmarkov import ed
from gibbsmarkov.bounds import (
    area_law_saturation_series,
    cmi_decay_bound,
    critical_beta,
    finite_range_cmi_bound,
    power_law_cmi_bound,
    recovery_error_bound,
    surface_region,
    tail_sum_check,
)
from gibbsmarkov.random_models import power_law_chain, random_chain
from gibbsmarkov.verify import run_suite
from gibbsmarkov.spin_model import (
    FiniteRange,
    PAULI,
    ValidationError,
    build_graph,
    build_hamiltonian,
)


class TestCriticalBeta:
    def test_values(self):
        base = 1.0 / (8.0 * math.e ** 3)
        for k in (1, 2, 4):
            assert critical_beta(k) == pytest.approx(base / k)
        assert critical_beta(2) == pytest.approx(3.1117e-3, rel=1e-3)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValidationError):
            critical_beta(0)


class TestSurfaceRegion:
    def grid(self):
        edges = []
        for i in range(3):
            for j in range(3):
                if j < 2:
                    edges.append((3 * i + j, 3 * i + j + 1))
                if i < 2:
                    edges.append((3 * i + j, 3 * i + j + 3))
        return build_graph(9, edges)

    def test_zero_width_is_empty(self):
        g = self.grid()
        assert surface_region(g, (0, 1, 2), 0) == ()

    def test_whole_system_has_no_surface(self):
        g = self.grid()
        assert surface_region(g, range(9), 3) == ()

    def test_row_of_grid(self):
        g = self.grid()
        # top row: every vertex is one step from the middle row
        assert surface_region(g, (0, 1, 2), 1) == (0, 1, 2)
        # top two rows: width-1 surface is the middle row only
        assert surface_region(g, (0, 1, 2, 3, 4, 5), 1) == (3, 4, 5)
        assert surface_region(g, (0, 1, 2, 3, 4, 5), 2) == (0, 1, 2, 3, 4, 5)

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            surface_region(self.grid(), (0,), -1)

    @pytest.mark.parametrize("l, message", [
        (-1, "l must be >= 0, got -1"), (1.0, "l 1.0 is not an integer"),
    ], ids=["negative", "float"])
    def test_width_is_an_integer_with_a_floor(self, l, message):
        with pytest.raises(ValidationError, match=message):
            surface_region(self.grid(), (0,), l)


class TestFiniteRangeBound:
    def test_arithmetic(self):
        bc = critical_beta(2)
        rep = finite_range_cmi_bound(4, 0.5 * bc, bc, 4.0, 2)
        # e * 4 * 0.5^2 / (1 - 0.5) = 2e
        assert rep.value == pytest.approx(2.0 * math.e)
        assert rep.valid

    def test_monotone_in_distance(self):
        bc = critical_beta(2)
        vals = [
            finite_range_cmi_bound(1, 0.5 * bc, bc, d, 1).value for d in (1, 2, 5)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_disconnected_regions_give_zero(self):
        bc = critical_beta(2)
        rep = finite_range_cmi_bound(3, 0.5 * bc, bc, math.inf, 1)
        assert rep.value == 0.0 and rep.valid

    def test_invalid_above_threshold(self):
        bc = critical_beta(2)
        rep = finite_range_cmi_bound(3, 2.0 * bc, bc, 2.0, 1)
        assert not rep.valid and math.isinf(rep.value)
        assert "beta" in rep.reason

    @pytest.mark.parametrize("beta", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_negative_or_nonfinite_beta(self, beta):
        # the Hamiltonian's rule: a negative beta would pass beta < beta_c
        # and a nan would give a nan bound
        with pytest.raises(ValidationError):
            finite_range_cmi_bound(1, beta, critical_beta(2), 4.0, 1)

    def test_zero_beta_is_accepted(self):
        rep = finite_range_cmi_bound(1, 0.0, critical_beta(2), 4.0, 1)
        assert rep.value == 0.0 and rep.valid

    @pytest.mark.parametrize("min_surface, d_ac, r", [
        (-2, 4.0, 1), (1, -3.0, 1), (1, math.nan, 1), (1, 4.0, 0),
    ])
    def test_rejects_inputs_outside_the_formula(self, min_surface, d_ac, r):
        with pytest.raises(ValidationError):
            finite_range_cmi_bound(min_surface, 0.5 * critical_beta(2), critical_beta(2), d_ac, r)


class TestPowerLawBound:
    @pytest.mark.parametrize("min_ac, k, alpha, d_ac", [
        (-1, 2, 2.0, 4.0), (1, 0, 2.0, 4.0), (1, 2, 0.0, 4.0), (1, 2, math.nan, 4.0),
        (1, 2, 2.0, -3.0), (1, 2, 2.0, math.nan),
    ])
    def test_rejects_inputs_outside_the_formula(self, min_ac, k, alpha, d_ac):
        with pytest.raises(ValidationError):
            power_law_cmi_bound(min_ac, 1e-5, k, alpha, d_ac)

    def test_arithmetic(self):
        bc = critical_beta(2)
        beta = bc / 22.0
        rep = power_law_cmi_bound(2, beta, 2, 2.0, 5.0)
        c_beta = (11.0 * math.exp(0.5) / bc) / 0.5
        assert rep.value == pytest.approx(beta * 2 * c_beta / 25.0)
        assert rep.valid

    def test_hypothesis_flags(self):
        bc = critical_beta(2)
        too_hot = power_law_cmi_bound(1, bc / 5.0, 2, 2.0, 10.0)
        assert not too_hot.valid and "beta" in too_hot.reason
        too_close = power_law_cmi_bound(1, bc / 22.0, 2, 2.0, 3.0)
        assert not too_close.valid and "d_AC" in too_close.reason

    def test_report_formatting(self):
        rep = power_law_cmi_bound(1, critical_beta(2) / 22.0, 2, 2.0, 10.0)
        text = str(rep)
        assert "power_law_cmi_bound" in text and "valid" in text

    @pytest.mark.parametrize("beta", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_negative_or_nonfinite_beta(self, beta):
        with pytest.raises(ValidationError):
            power_law_cmi_bound(1, beta, 2, 2.0, 4.0)


class TestCmiDecayBound:
    def test_finite_range_model_takes_the_surface_bound(self):
        # the r-surfaces of A = {0, 1} and C = {4, 5, 6} on a 7-site chain
        # with range 2 are {0, 1} and {4, 5}
        g = build_graph(7, [(i, i + 1) for i in range(6)])
        zz = np.kron(PAULI["Z"], PAULI["Z"])
        ham = build_hamiltonian(
            g, [((i, i + 2), 0.2 * zz) for i in range(5)], FiniteRange(2), beta=1e-3,
        )
        got = cmi_decay_bound(ham, (1, 0), (6, 5, 4))
        want = finite_range_cmi_bound(2, 1e-3, critical_beta(2), 3.0, 2)
        assert got == want

    def test_power_law_model_takes_the_power_law_bound(self):
        ham = power_law_chain(6, 1.5, 1e-5, seed=0)
        got = cmi_decay_bound(ham, (0, 1), (5,))
        assert got == power_law_cmi_bound(1, 1e-5, 2, 1.5, 4.0)

    def test_refuses_overlapping_regions(self):
        ham = random_chain(4, 1e-3, seed=0)
        with pytest.raises(ValidationError, match="regions must be disjoint"):
            cmi_decay_bound(ham, (0, 1), (1, 2))


class TestRecoveryBound:
    def test_values(self):
        assert recovery_error_bound(0.0) == 0.0
        assert recovery_error_bound(1.0 / math.log(2.0)) == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="cmi must be nonnegative, got -1e-09"):
            recovery_error_bound(-1e-9)


class TestAreaLawSeries:
    def test_increments_below_bounds_on_chain(self):
        bc = critical_beta(2)
        ham = random_chain(8, beta=0.5 * bc, seed=61)
        series = area_law_saturation_series(
            ham, (0, 1), [(2, 3), (4, 5), (6, 7)]
        )
        assert len(series) == 3
        for increment, bound in series:
            assert bound.valid
            assert increment <= bound.value + 1e-12
        # increments shrink as the new slice moves away
        incs = [inc for inc, _ in series]
        assert incs[2] <= incs[0] + 1e-12


class TestTailSums:
    def test_power_law_measured_below_bound(self):
        bc = critical_beta(2)
        ham = power_law_chain(6, alpha=2.0, beta=bc / 22.0, seed=7)
        for m in (1, 2, 3):
            measured, bound, ok = tail_sum_check(ham, m, l0=4)
            assert ok
            assert measured <= bound

    def test_m2_matches_the_sum_over_pairs(self):
        from gibbsmarkov.spin_model import g_tilde

        ham = power_law_chain(6, alpha=1.0, beta=critical_beta(2) / 22.0, seed=7)
        g = [0.0] + [g_tilde(ham, l) for l in range(1, 7)]
        for l0 in (2, 5, 9, 13):
            direct = sum(g[i] * g[j] for i in range(1, 7) for j in range(1, 7) if i + j >= l0)
            measured, _, _ = tail_sum_check(ham, 2, l0=l0)
            assert measured == pytest.approx(direct, rel=1e-14, abs=0.0)

    def test_m1_matches_direct_tail(self):
        bc = critical_beta(2)
        ham = power_law_chain(6, alpha=2.0, beta=bc / 22.0, seed=7)
        from gibbsmarkov.spin_model import g_tilde

        direct = sum(g_tilde(ham, l) for l in range(3, 7))
        measured, _, _ = tail_sum_check(ham, 1, l0=3)
        assert measured == pytest.approx(direct)

    def test_finite_range_tail_vanishes_beyond_range(self):
        bc = critical_beta(2)
        ham = random_chain(6, beta=0.5 * bc, seed=67)
        measured, bound, ok = tail_sum_check(ham, 1, l0=2)
        assert measured == 0.0 and ok

    def test_rejects_bad_arguments(self):
        bc = critical_beta(2)
        ham = random_chain(4, beta=0.5 * bc, seed=71)
        with pytest.raises(ValueError):
            tail_sum_check(ham, 0, 1)
        with pytest.raises(ValueError):
            tail_sum_check(ham, 1, 0)

    @pytest.mark.parametrize("m, l0, message", [
        (0, 1, "m must be >= 1, got 0"), (1, 0, "l0 must be >= 1, got 0"),
        (1.5, 1, "m 1.5 is not an integer"), (1, "3", "l0 '3' is not an integer"),
    ], ids=["m-zero", "l0-zero", "m-float", "l0-string"])
    def test_arguments_are_integers_with_a_floor(self, m, l0, message):
        ham = random_chain(4, beta=0.5 * critical_beta(2), seed=71)
        with pytest.raises(ValidationError, match=message):
            tail_sum_check(ham, m, l0)


class TestVerifyBoundsSuite:
    def test_marks_each_ed_value_below_its_round_off_floor(self):
        ok, report = run_suite("bounds", 0)
        assert ok, report
        rows = _value_rows(report)
        assert len(rows) == 16
        for line, value, n_sites in rows:
            below = value < ed.exact_cmi_floor(2, n_sites)
            assert line.endswith("  (below the ED round-off floor)") == below, line
        # the 2I of case 0, of the neighbours 0 and 1, reads 3.4e-7
        assert rows[3][0].startswith("case=0 cor2=") and not rows[3][0].endswith("floor)")

    @pytest.mark.parametrize("seed", [0, 4])
    def test_each_case_measures_a_value_above_the_floor(self, seed):
        # the mutual information of sites 0 and 1, at d(A, C) = 1, reads
        # 3e-8 to 2e-7 at these seeds against a floor of 4.9e-15
        ok, report = run_suite("bounds", seed)
        assert ok, report
        unmarked = {line.split()[0] for line, _, _ in _value_rows(report)
                    if not line.endswith("  (below the ED round-off floor)")}
        assert unmarked == {f"case={i}" for i in range(4)}

    def test_fails_on_a_correlation_above_the_mutual_information(self, monkeypatch):
        # Cor^2 = 1e-6 exceeds 2 I(0:1), 7.6e-8 to 3.4e-7 at seed 0
        monkeypatch.setattr(ed, "operator_correlation", lambda st, a, b: 1e-3)
        ok, report = run_suite("bounds", 0)
        assert not ok
        assert "correlation inequality case=0" in report


def _value_rows(report: str) -> list:
    """(line, value, |A u B u C|) for each value line of a bounds report:
    cmi= lines are on 6 qubits but for the d(A, C) = 1 mutual information
    of sites 0 and 1, 2mi= lines (whose value is halved) on 2."""
    rows = []
    for line in report.splitlines():
        if not line.startswith("case="):
            continue
        if " cmi=" in line:
            n_sites = 2 if " dAC=1.0 " in line else 6
            rows.append((line, float(re.search(r" cmi=(\S+)", line)[1]), n_sites))
        else:
            rows.append((line, float(re.search(r" 2mi=(\S+)", line)[1]) / 2, 2))
    return rows
