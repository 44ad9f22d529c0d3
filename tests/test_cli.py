"""End-to-end command-line contracts: exit codes, file formats, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from vortexcert import cli
from vortexcert import model as md
from vortexcert import catalog as cat
from vortexcert import continuation as cont


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestCertify:
    def test_equilibrium_validates(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = run_cli(["certify", "--fixture", "antiprism8", "--omega", 0, "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "validated"
        assert payload["bounds"]["norm"] == "sup"
        assert payload["bounds"]["r0"] <= payload["bounds"]["rstar"]
        manifest = json.loads((tmp_path / "cert.json.manifest.json").read_text())
        assert manifest["outputs"] == [str(out)]

    def test_collision10_validates(self, tmp_path):
        out = tmp_path / "c10.json"
        code = run_cli(["certify", "--fixture", "collision10", "--omega", 50, "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["coordinate_tolerance"] <= 4e-13

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert run_cli(["certify", "--config", bad, "--omega", 0]) == 1

    def test_missing_file_exit_1(self):
        assert run_cli(["certify", "--config", "/nonexistent/nope.json", "--omega", 0]) == 1

    def test_not_validated_exit_2(self, tmp_path, capsys):
        # legal but nearly-colliding triangle: enormous contraction defect
        v = np.array([[1.0, 0, 0], [1.0, 2e-6, 0], [0, 0, 1.0]])
        v /= np.linalg.norm(v, axis=1)[:, None]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(md.dumps_config({"vortices": [[float(x) for x in r] for r in v]}))
        assert run_cli(["certify", "--config", cfg, "--omega", 0]) == 2

    def test_deterministic_artifact(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["certify", "--fixture", "gyro10", "--omega", 0, "--out", a])
        run_cli(["certify", "--fixture", "gyro10", "--omega", 0, "--out", b])
        assert a.read_bytes() == b.read_bytes()  # timestamps live in the manifest


class TestContinueAndDiagram:
    def test_chain_diagram_pipeline(self, tmp_path, capsys):
        chain = tmp_path / "chain.json"
        code = run_cli(
            ["continue", "--fixture", "bipyramid5", "--label", "2,2,1", "--seed-omega", 0.0,
             "--omega-from", 0.28, "--omega-to", 0.29, "--out", chain, "--workers", 1]
        )
        assert code == 0
        data = json.loads(chain.read_text())
        assert isinstance(data, list) and data
        assert all(obj["status"] == "validated" for obj in data)

        verd = tmp_path / "verd.json"
        assert run_cli(["stability", chain, "--out", verd]) == 0
        verdicts = json.loads(verd.read_text())
        assert all(v["verdict"] == "CertifiedStable" for v in verdicts)

        csv = tmp_path / "diagram.csv"
        assert run_cli(["diagram", chain, "--verdicts", verd, "--out", csv]) == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == len(data) + 1
        for row in lines[1:]:
            fields = row.split(",")
            assert fields[-1] == "green"
            mu_lo, mu_hi = float(fields[2]), float(fields[3])
            assert 0.18 <= mu_lo <= mu_hi <= 0.98

    def test_diagram_yellow_without_verdicts(self, tmp_path):
        chain = tmp_path / "chain.json"
        run_cli(
            ["continue", "--fixture", "bipyramid5", "--label", "2,2,1", "--seed-omega", 0.0,
             "--omega-from", 0.28, "--omega-to", 0.285, "--out", chain, "--workers", 1]
        )
        csv = tmp_path / "d.csv"
        run_cli(["diagram", chain, "--out", csv])
        rows = csv.read_text().strip().splitlines()[1:]
        assert all(r.endswith("yellow") for r in rows)

    def test_empty_range_empty_chain(self, tmp_path):
        chain = tmp_path / "chain.json"
        code = run_cli(
            ["continue", "--fixture", "bipyramid5", "--label", "2,2,1",
             "--omega-from", 0.3, "--omega-to", 0.3, "--out", chain, "--workers", 1]
        )
        assert code == 0
        assert json.loads(chain.read_text()) == []
        csv = tmp_path / "d.csv"
        run_cli(["diagram", chain, "--out", csv])
        assert csv.read_text().strip() == cli.CSV_HEADER

    def test_no_rigor_numeric_walk(self, tmp_path):
        chain = tmp_path / "chain.json"
        code = run_cli(
            ["continue", "--fixture", "bipyramid5", "--label", "2,2,1", "--seed-omega", 0.0,
             "--omega-from", 0.2, "--omega-to", 0.3, "--no-rigor", "--out", chain]
        )
        assert code == 0
        assert json.loads(chain.read_text()) == []  # nothing validated

    def test_workers_two(self, tmp_path):
        """One and two workers write the same chain bytes and manifest stages."""
        windows = [("bipyramid5", "2,2,1", 0.28, 0.285), ("antiprism8", "2,4,0", 1.6103, 1.6106)]
        for fixture, label, w0, w1 in windows:
            chains, stages = [], []
            for workers in (1, 2):
                chain = tmp_path / f"{fixture}-{workers}.json"
                run_cli(
                    ["continue", "--fixture", fixture, "--label", label, "--seed-omega", 0.0,
                     "--omega-from", w0, "--omega-to", w1, "--out", chain, "--workers", workers]
                )
                chains.append(chain.read_bytes())
                stages.append(json.loads((tmp_path / f"{chain.name}.manifest.json").read_text())["stages"])
            assert chains[0] == chains[1], fixture
            assert stages[0] == stages[1], fixture
            data = json.loads(chains[1])
            assert data and all(obj["status"] == "validated" for obj in data[:-1])
            if fixture == "bipyramid5":
                assert data[-1]["status"] == "validated"
            else:
                # near the bifurcation: a certified prefix, then the stall marker
                assert len(data) > 1 and data[-1]["status"] == "stalled"

    def test_pool_cancels_grid_segments_after_the_chain_ends(self, tmp_path, monkeypatch):
        """The pool's map validates the grid; what it has not started past a
        stall is cancelled."""
        calls = []

        class Pool:
            def __init__(self, max_workers):
                calls.append(("workers", max_workers))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                calls.append("map")
                return map(fn, *iterables)

            def shutdown(self, **kwargs):
                calls.append(kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        chain = tmp_path / "chain.json"
        code = run_cli(
            ["continue", "--fixture", "bipyramid5", "--label", "2,2,1", "--seed-omega", 0.0,
             "--omega-from", 0.28, "--omega-to", 0.285, "--out", chain, "--workers", 3]
        )
        assert code == 0
        assert calls == [("workers", 3), "map", {"cancel_futures": True}]

    def test_stability_missing_file_exit_1(self):
        assert run_cli(["stability", "/nonexistent/chain.json"]) == 1

    def test_stability_of_point_certificate(self, tmp_path):
        cert = tmp_path / "cert.json"
        run_cli(["certify", "--fixture", "antiprism8", "--omega", 0, "--out", cert])
        verd = tmp_path / "v.json"
        assert run_cli(["stability", cert, "--out", verd]) == 0
        v = json.loads(verd.read_text())[0]
        assert v["verdict"] == "CertifiedStable"
        assert v["kernel_real_dim"] == 2

    def test_stability_non_object_entry_exit_1(self, tmp_path, capsys):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps([1]))
        assert run_cli(["stability", chain]) == 1
        assert "chain entry 0 is not an object" in capsys.readouterr().err

    def test_stability_certificate_without_m_exit_1(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        run_cli(["certify", "--fixture", "antiprism8", "--omega", 0, "--out", cert])
        payload = json.loads(cert.read_text())
        del payload["m"]
        cert.write_text(json.dumps(payload))
        assert run_cli(["stability", cert]) == 1
        assert "lacks the field 'm'" in capsys.readouterr().err

    def test_stability_manifest_counts_subsegment_validations(self, tmp_path, monkeypatch):
        chain = tmp_path / "chain.json"
        run_cli(
            ["continue", "--fixture", "bipyramid5", "--label", "2,2,1", "--seed-omega", 0.0,
             "--omega-from", 0.28, "--omega-to", 0.282, "--out", chain, "--workers", 1]
        )
        calls = []  # one entry per validated sub-segment
        splits = []  # one entry per stacked call, i.e. per split
        validate = cont.nk_validate_segment

        def spy(x0, x1, *args, **kwargs):
            out = validate(x0, x1, *args, **kwargs)
            # a stacked call validates len(x0) segments and returns a list
            calls.extend(out if isinstance(out, list) else [out])
            splits.extend([out] if isinstance(out, list) else [])
            return out

        monkeypatch.setattr(cont, "nk_validate_segment", spy)
        verd = tmp_path / "v.json"
        assert run_cli(["stability", chain, "--out", verd]) == 0
        stages = json.loads((tmp_path / "v.json.manifest.json").read_text())["stages"]
        assert stages["segments"] == len(json.loads(chain.read_text()))
        assert stages["subsegment_validations"] == len(calls) > 0
        assert 2 <= stages["max_segment_pieces"] <= stages["subsegment_validations"]
        # one tube check of each segment, and one stacked check per split
        assert stages["tube_checks"] == stages["segments"] + len(splits)

    def test_diagram_black_row_for_stall(self, tmp_path):
        chain = tmp_path / "chain.json"
        run_cli(
            ["continue", "--fixture", "bipyramid5", "--label", "2,2,1", "--seed-omega", 0.0,
             "--omega-from", 0.28, "--omega-to", 0.282, "--out", chain, "--workers", 1]
        )
        data = json.loads(chain.read_text())
        data.append({"status": "stalled", "omega": 0.282})
        chain.write_text(json.dumps(data))
        csv = tmp_path / "d.csv"
        run_cli(["diagram", chain, "--out", csv])
        rows = csv.read_text().strip().splitlines()
        assert rows[-1].endswith("black")


class TestSimulate:
    def test_invalid_dt_exit_1(self):
        assert run_cli(["simulate", "--fixture", "octahedron", "--t", 1, "--dt", 0]) == 1

    def test_trajectory_conserves(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run_cli(
            ["simulate", "--fixture", "bipyramid5", "--label", "2,2,1", "--t", 0.5, "--dt", 1e-3, "--out", out]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["t", "H", "phi_x", "phi_y", "phi_z"]
        first = np.array([float(x) for x in lines[1].split(",")])
        last = np.array([float(x) for x in lines[-1].split(",")])
        assert abs(first[1] - last[1]) <= 1e-8  # H drift
        assert np.max(np.abs(first[2:5] - last[2:5])) <= 1e-8  # Phi drift


class TestCatalogCli:
    def test_list(self, capsys):
        assert run_cli(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "octahedron" in out and "collision12" in out

    def test_show_json(self, capsys):
        assert run_cli(["catalog", "show", "antiprism8", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["m"] == 4 and obj["n"] == 2 and obj["p"] == 0
        assert "provenance" in obj

    def test_show_unknown_exit_1(self, capsys):
        assert run_cli(["catalog", "show", "nonagon99"]) == 1

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vortexcert.cli", "catalog", "list"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "icosahedron" in proc.stdout
