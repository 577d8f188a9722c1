"""Smoke tests of every CLI subcommand, driven through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gibbsmarkov

from gibbsmarkov.bounds import critical_beta
from gibbsmarkov.cli import main
from gibbsmarkov.random_models import random_chain, tfi_chain
from gibbsmarkov.spin_model import save_model

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
    ])
    def test_model_errors_are_one_line(self, argv, tmp_path):
        malformed = tmp_path / "malformed.json"
        malformed.write_text('{"vertices": "x"}')
        paths = {
            "powerlaw": str(MODELS / "powerlaw_chain6.json"),
            "malformed": str(malformed),
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
