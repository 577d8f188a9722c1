"""Smoke tests of every CLI subcommand, driven through main(argv)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gibbsmarkov

from gibbsmarkov.bounds import critical_beta
from gibbsmarkov.cli import main
from gibbsmarkov.expansion import effective_hamiltonian
from gibbsmarkov.random_models import random_chain, tfi_chain
from gibbsmarkov.spin_model import load_model, save_model

BETA_C = critical_beta(2)
MODELS = Path(__file__).resolve().parent.parent / "models"


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "chain6.json"
    save_model(random_chain(6, beta=0.5 * BETA_C, seed=13), path)
    return str(path)


@pytest.fixture(scope="module")
def tfi_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "tfi6.json"
    save_model(tfi_chain(6, beta=BETA_C / 4.0), path)
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


class TestSubcommands:
    def test_clusters_counts_on_path(self, capsys, tmp_path):
        # three-vertex path, anchor on the end vertex: one size-1 cluster
        # touches it, two multisets of size 2 do
        import numpy as np
        from gibbsmarkov.spin_model import FiniteRange, PAULI, build_graph, build_hamiltonian

        zz = np.kron(PAULI["Z"], PAULI["Z"])
        g = build_graph(3, [(0, 1), (1, 2)])
        ham = build_hamiltonian(
            g, [((0, 1), 0.4 * zz), ((1, 2), 0.4 * zz)], FiniteRange(1),
            beta=0.5 * BETA_C,
        )
        path = tmp_path / "p3.json"
        save_model(ham, path)
        out_json = tmp_path / "clusters.json"
        rc, out = run(capsys, [
            "clusters", "--model", str(path), "--anchor", "0",
            "--max-order", "2", "--out", str(out_json),
        ])
        assert rc == 0
        data = json.loads(out_json.read_text())
        counts = [row["count"] for row in data["rows"]]
        assert counts == [1, 2]
        for row in data["rows"]:
            assert row["count"] <= row["bound"]

    def test_clusters_counts_the_clusters_that_touch_the_complement(self, capsys, tmp_path):
        # anchor 0..30 on a 32-site chain: 62 terms meet the anchor, above
        # the bound 48 for |L^c| = 1, but only the bond (30, 31) touches L^c
        path = tmp_path / "chain32.json"
        save_model(random_chain(32, beta=BETA_C / 4.0, seed=0), path)
        out_json = tmp_path / "clusters.json"
        rc, _ = run(capsys, [
            "clusters", "--model", str(path), "--anchor", ",".join(map(str, range(31))),
            "--max-order", "2", "--out", str(out_json),
        ])
        assert rc == 0
        rows = json.loads(out_json.read_text())["rows"]
        assert rows[0]["count"] == 1
        for row in rows:
            assert row["count"] <= row["bound"]

    def test_clusters_rows_are_the_effham_boundary_counts(self, capsys, model_file, tmp_path):
        out_json = tmp_path / "clusters.json"
        rc, _ = run(capsys, [
            "clusters", "--model", model_file, "--anchor", "1,2",
            "--max-order", "3", "--out", str(out_json),
        ])
        assert rc == 0
        counts = [row["count"] for row in json.loads(out_json.read_text())["rows"]]
        res = effective_hamiltonian(load_model(model_file), (1, 2), 3)
        assert counts == [len(res.boundary_terms[m]) for m in (1, 2, 3)]

    def test_effham_reports_small_ed_error(self, capsys, model_file):
        rc, out = run(capsys, [
            "effham", "--model", model_file, "--region", "0,1,2", "--order", "2",
        ])
        assert rc == 0
        assert "truncation certificate" in out
        line = [l for l in out.splitlines() if "ED comparison" in l][0]
        assert float(line.split("=")[-1]) < 1e-6

    def test_logz_matches_ed(self, capsys, tfi_file):
        rc, out = run(capsys, ["logz", "--model", tfi_file, "--order", "4"])
        assert rc == 0
        gap_line = [l for l in out.splitlines() if "|gap|" in l][0]
        assert float(gap_line.split("=")[-1]) < 1e-8

    def test_reduced_writes_json(self, capsys, model_file, tmp_path):
        out_json = tmp_path / "reduced.json"
        rc, out = run(capsys, [
            "reduced", "--model", model_file, "--region", "2,3",
            "--order", "2", "--out", str(out_json),
        ])
        assert rc == 0
        data = json.loads(out_json.read_text())
        evals = data["eigenvalues"]
        assert len(evals) == 4
        assert abs(sum(evals) - 1.0) < 1e-12

    def test_observable(self, capsys, tfi_file):
        rc, out = run(capsys, [
            "observable", "--model", tfi_file, "--support", "3",
            "--pauli", "Z", "--order", "3",
        ])
        assert rc == 0
        assert "error certificate" in out

    def test_entropy(self, capsys, model_file):
        rc, out = run(capsys, [
            "entropy", "--model", model_file, "--region", "1,2", "--order", "2",
        ])
        assert rc == 0
        assert "nats" in out

    def test_cmi(self, capsys, model_file):
        rc, out = run(capsys, [
            "cmi", "--model", model_file, "--A", "0", "--B", "1,2",
            "--C", "3,4,5", "--order", "3",
        ])
        assert rc == 0
        assert "ED exact CMI" in out
        assert "finite_range_cmi_bound" in out

    def test_cmi_marks_an_ed_value_below_the_round_off_floor(self, capsys, model_file, tmp_path):
        # B two sites wide: the ED CMI is round-off; B empty: the mutual
        # information of two neighbours is far above the floor
        out_file = tmp_path / "cmi.json"
        for (a, b, c), n_sites, below in [
            (("0", "1,2", "3,4,5"), 6, True), (("0", "", "1"), 2, False),
        ]:
            rc, out = run(capsys, [
                "cmi", "--model", model_file, "--A", a, "--B", b, "--C", c,
                "--order", "2", "--out", str(out_file),
            ])
            assert rc == 0
            payload = json.loads(out_file.read_text())
            floor = 16 * sys.float_info.epsilon * n_sites * math.log(2)
            assert payload["ed_cmi_floor"] == pytest.approx(floor, rel=1e-15)
            assert (payload["ed_cmi"] < floor) is below
            assert ("below the ED round-off floor" in out) is below

    def test_bound_without_model(self, capsys):
        rc, out = run(capsys, [
            "bound", "--kind", "both", "--beta", str(0.5 * BETA_C),
            "--d-ac", "4", "--r", "2", "--min-surface", "4",
        ])
        assert rc == 0
        assert "finite_range_cmi_bound" in out
        assert "power_law_cmi_bound" in out

    def test_verify_single_suite(self, capsys):
        rc, out = run(capsys, ["verify", "--suite", "counting", "--seed", "3"])
        assert rc == 0

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("argv", [
        ["logz", "--epsilon", "1e-30"],
        ["clusters", "--anchor", "0", "--order", "3"],
        ["clusters", "--anchor", "0", "--ed-limit", "3"],
        ["effham", "--region", "0,1", "--seed", "3"],
        ["verify", "--suite", "counting"],
    ])
    def test_refuses_flags_it_cannot_honor(self, argv, model_file, monkeypatch):
        from gibbsmarkov import expansion

        def refuse(*args, **kwargs):
            raise AssertionError("series work ran before the refusal")

        monkeypatch.setattr(expansion, "cluster_derivative", refuse)
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--model", model_file] + argv[1:])
        assert exc.value.code not in (0, None)


    @pytest.mark.parametrize("command, extra, keys", [
        ("clusters", ["--anchor", "0"], set()),
        ("logz", ["--order", "1"], {"ed_limit"}),
        ("verify", ["--suite", "counting"], {"seed"}),
    ])
    def test_provenance_echoes_only_flags_it_reads(
        self, command, extra, keys, model_file, tmp_path
    ):
        out_json = tmp_path / "out.json"
        argv = [command] + (["--model", model_file] if command != "verify" else [])
        main(argv + extra + ["--out", str(out_json)])
        prov = json.loads(out_json.read_text())["provenance"]
        assert {"method", "seed", "ed_limit"} & set(prov) == keys

    @pytest.mark.parametrize("argv", [
        ["effham", "--model", "powerlaw", "--region", "0,1"],
        ["reduced", "--model", "powerlaw", "--region", "0,1"],
        ["observable", "--model", "powerlaw", "--support", "2", "--pauli", "Z"],
        ["entropy", "--model", "powerlaw", "--region", "0,1"],
        ["logz", "--model", "malformed"],
        ["effham", "--model", "tfi", "--region", "0,x"],
        ["effham", "--model", "tfi", "--region", "0,9"],
        ["effham", "--model", "missing", "--region", "0"],
        ["cmi", "--model", "tfi", "--A", "0,1", "--B", "2", "--C", "1,3"],
        ["observable", "--model", "tfi", "--support", "2", "--pauli", "Q"],
        ["observable", "--model", "tfi", "--support", "2,3", "--pauli", "Z"],
        ["logz", "--model", "tfi", "--order", "-1"],
        ["cmi", "--model", "tfi", "--A", "0", "--B", "1", "--C", "2", "--order", "-1"],
        ["effham", "--model", "tfi", "--region", "0", "--order", "-1"],
        ["reduced", "--model", "tfi", "--region", "0", "--order", "-1"],
        ["observable", "--model", "tfi", "--support", "2", "--pauli", "Z", "--order", "-1"],
        ["entropy", "--model", "tfi", "--region", "0", "--order", "-1"],
        ["clusters", "--model", "tfi", "--anchor", "0", "--max-order", "-1"],
        ["effham", "--model", "tfi", "--region", "0", "--epsilon", "-1"],
        ["entropy", "--model", "tfi", "--region", "0", "--order", "2", "--epsilon", "0"],
        ["reduced", "--model", "tfi", "--region", "0", "--epsilon", "1e-300"],
        ["observable", "--model", "tfi", "--support", "2", "--pauli", "Z", "--pad", "-3"],
        ["logz", "--model", "tfi", "--beta", "-1"],
        ["effham", "--model", "tfi", "--region", "0", "--beta", "nan"],
        ["cmi", "--model", "tfi", "--A", "0", "--B", "1", "--C", "2", "--beta", "inf"],
        ["logz", "--model", "negative-beta"],
        ["bound", "--kind", "both", "--beta", "-1"],
        ["bound", "--kind", "both", "--beta", "nan"],
        ["bound", "--kind", "both", "--k", "0"],
        ["bound", "--kind", "both", "--r", "0"],
        ["bound", "--kind", "both", "--d-ac", "-3"],
        ["bound", "--kind", "both", "--d-ac", "nan"],
        ["bound", "--kind", "both", "--min-surface", "-2"],
        ["bound", "--kind", "both", "--min-ac", "-1"],
        ["bound", "--kind", "both", "--alpha", "0"],
        ["observable", "--model", "tfi", "--support", "2,2", "--pauli", "ZZ"],
        ["observable", "--model", "tfi", "--support", "2,x", "--pauli", "ZZ"],
        ["verify", "--suite", "counting", "--seed", "-1"],
    ])
    def test_model_errors_are_one_line(self, argv, tmp_path):
        malformed = tmp_path / "malformed.json"
        malformed.write_text('{"vertices": "x"}')
        negative = tmp_path / "negative.json"
        doc = json.loads((MODELS / "tfi_chain6.json").read_text())
        negative.write_text(json.dumps({**doc, "beta": -0.5}))
        paths = {
            "powerlaw": str(MODELS / "powerlaw_chain6.json"),
            "tfi": str(MODELS / "tfi_chain6.json"),
            "malformed": str(malformed),
            "missing": str(tmp_path / "nope.json"),
            "negative-beta": str(negative),
        }
        argv = [paths.get(a, a) for a in argv]
        src = str(Path(gibbsmarkov.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "gibbsmarkov.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"gibbsmarkov {argv[0]}: ")
        assert proc.stderr.count("\n") == 1


class TestRegionsAsComputed:
    """Every vertex list is echoed as the library computed on it: sorted,
    each vertex once."""

    def test_reduced_echoes_the_normalized_region(self, capsys, tfi_file, tmp_path):
        out_json = tmp_path / "reduced.json"
        rc, out = run(capsys, [
            "reduced", "--model", tfi_file, "--region", "1,0,0", "--order", "2",
            "--out", str(out_json),
        ])
        assert rc == 0
        assert "reduced state on [0, 1] at order 2" in out
        data = json.loads(out_json.read_text())
        assert data["region"] == [0, 1]
        assert len(data["eigenvalues"]) == 4

    def test_cmi_echoes_the_normalized_regions(self, capsys, model_file):
        rc, out = run(capsys, [
            "cmi", "--model", model_file, "--A", "5,4", "--B", "3,3", "--C", "1,0",
            "--order", "2",
        ])
        assert rc == 0
        assert "A=[4, 5] B=[3] C=[0, 1]  order=2" in out

    def test_pauli_letter_i_acts_on_support_i(self, capsys, tfi_file, tmp_path):
        # X on 2 and Z on 3, whichever order the flags list them in
        values = []
        for support, pauli in (("3,2", "ZX"), ("2,3", "XZ")):
            out_json = tmp_path / f"{pauli}.json"
            rc, out = run(capsys, [
                "observable", "--model", tfi_file, "--support", support, "--pauli", pauli,
                "--order", "2", "--out", str(out_json),
            ])
            assert rc == 0
            assert "<1.0*XZ on [2, 3]> = " in out
            values.append(json.loads(out_json.read_text())["value"])
        assert values[0] == values[1]

    def test_verify_exits_1_when_a_suite_fails(self, capsys, monkeypatch, tmp_path):
        from gibbsmarkov import cli

        monkeypatch.setattr(cli, "run_suite", lambda name, seed: (False, f"suite: {name}\n"))
        out_json = tmp_path / "verify.json"
        rc, out = run(capsys, ["verify", "--suite", "bounds", "--out", str(out_json)])
        assert rc == 1
        assert out.endswith("suite: bounds\n")
        assert json.loads(out_json.read_text())["ok"] is False


class TestModes:
    def test_epsilon_selects_order(self, capsys, model_file):
        rc, out = run(capsys, [
            "effham", "--model", model_file, "--region", "0,1",
            "--epsilon", "10",
        ])
        assert rc == 0
        order_line = [l for l in out.splitlines() if "order:" in l][0]
        order = int(order_line.rsplit(":", 1)[-1])
        assert 1 <= order <= 6

    def test_beta_override_changes_certificate(self, capsys, model_file):
        _, out_cold = run(capsys, [
            "logz", "--model", model_file, "--order", "2",
            "--beta", str(0.1 * BETA_C),
        ])
        _, out_warm = run(capsys, [
            "logz", "--model", model_file, "--order", "2",
            "--beta", str(0.9 * BETA_C),
        ])
        def cert(text):
            line = [l for l in text.splitlines() if l.startswith("certificate")][0]
            return float(line.split()[1])
        assert cert(out_cold) < cert(out_warm)

    def test_deterministic_output(self, capsys, model_file, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, ["cmi", "--model", model_file, "--A", "0", "--B", "1",
                     "--C", "2,3", "--order", "2", "--out", str(p1)])
        run(capsys, ["cmi", "--model", model_file, "--A", "0", "--B", "1",
                     "--C", "2,3", "--order", "2", "--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()
