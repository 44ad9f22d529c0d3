"""The benchmark workloads: certified batch jobs run through ``vortexcert.cli.main``.

Every pass runs the real CLI commands in process, writes its artifacts into
a fresh directory and checks them.  An *operation* is the unit a pass counts
as attempted and failed: a 0.001-wide omega cell for ``branch5``, the whole
walk for ``stall8`` and one fixture for ``points``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field


def _cli(argv) -> int:
    from vortexcert import cli

    return cli.main([str(a) for a in argv])


def _load(path):
    with open(path) as f:
        return json.load(f)


def artifact_hashes(directory) -> dict:
    """sha256 of every artifact a pass wrote (manifests hold timestamps)."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".manifest.json"):
            with open(os.path.join(directory, name), "rb") as f:
                out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


@dataclass
class PassResult:
    attempted: int
    failed: int
    certified_share: float  # certified part of what the workload asks for
    segments: int = 0  # validated branch segments
    certified_width: float = 0.0  # omega width those segments cover
    problems: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)


def _union(intervals) -> list:
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


class Branch5:
    """Criterion 4: the bipyramid5 (2,2,1) branch over [0.2, omega_to] with
    segment stability and the diagram; the one pool (``--workers 2``) path."""

    name = "branch5"
    why = (
        "criterion-4 N=5 branch, continue --workers 2 then stability and diagram: stresses "
        "stability_over_segment and tube Hessians; pool-worker validations are seen only via cli.pool.*"
    )
    fixtures = [("bipyramid5", "2,2,1")]
    omega_from = 0.2
    cell = 1e-3
    expect_called = [
        "cli.continue.calls", "cli.stability.calls", "cli.diagram.calls", "cli.pool.tasks",
        "catalog.fixture.calls",
        "stability.stability_over_segment.calls", "stability.build_slice.calls",
        "stability.assemble_blocks.calls", "stability.stability_test.calls",
        "stability.validate_simple_eigenpair.calls",
        "intervals.verify_invertible.calls", "model.full_hstar_hessian.calls",
        "model.hess_hstar.calls", "model.grad_hstar.calls",
        "continuation.nk_validate_segment.calls", "continuation.nk_validate_point.calls",
        "continuation.newton_polish.calls", "continuation.jacobian_F.interval_calls",
        "stability.stability_over_segment.revalidations",
    ]

    def __init__(self, omega_to: float = 0.3, step: float | None = None):
        self.omega_to = omega_to
        self.step = step

    @classmethod
    def from_seed(cls, seed: int) -> "Branch5":
        # The seed may move omega_to only inside [0.299, 0.3]: every
        # sub-window of [0.2, 0.3] is known to be stable, and a small move
        # keeps the amount of work nearly the same between seeds.
        return cls(omega_to=round(0.3 - 1e-4 * (seed % 11), 4))

    def inputs(self) -> dict:
        return {"fixture": "bipyramid5", "label": "2,2,1", "omega_from": self.omega_from,
                "omega_to": self.omega_to, "workers": 2, "step": self.step}

    def run_pass(self, d) -> PassResult:
        chain, verdicts, diagram = (os.path.join(d, n) for n in ("chain.json", "verdicts.json", "diagram.csv"))
        argv = ["continue", "--fixture", "bipyramid5", "--label", "2,2,1", "--seed-omega", 0,
                "--omega-from", self.omega_from, "--omega-to", self.omega_to, "--workers", 2, "--out", chain]
        if self.step is not None:
            argv += ["--step", self.step]
        codes = [_cli(argv)]
        if codes[0] == 0:
            codes.append(_cli(["stability", chain, "--out", verdicts]))
            codes.append(_cli(["diagram", chain, "--verdicts", verdicts, "--out", diagram]))
        n_cells = math.ceil((self.omega_to - self.omega_from) / self.cell - 1e-9)
        if codes != [0, 0, 0]:
            return PassResult(n_cells, n_cells, 0.0, problems=[f"exit codes {codes}, expected [0, 0, 0]"])

        certs = [c for c in _load(chain) if c.get("status") == "validated"]
        widths = [c["omega"][1] - c["omega"][0] for c in certs]
        with open(diagram) as f:
            rows = list(csv.DictReader(f))
        green = _union((float(r["omega_lo"]), float(r["omega_hi"])) for r in rows if r["status"] == "green")
        failed = 0
        for k in range(n_cells):
            lo = self.omega_from + k * self.cell
            hi = min(lo + self.cell, self.omega_to)
            failed += not any(g_lo <= lo and hi <= g_hi for g_lo, g_hi in green)
        covered = sum(hi - lo for lo, hi in _union(tuple(c["omega"]) for c in certs))
        return PassResult(
            attempted=n_cells,
            failed=failed,
            certified_share=covered / (self.omega_to - self.omega_from),
            segments=len(certs),
            certified_width=sum(widths),
            problems=[f"{failed} of {n_cells} omega cells not covered by green rows"] if failed else [],
            details={"segments": len(certs), "green_rows": sum(r["status"] == "green" for r in rows)},
        )


class Stall8:
    """Criterion 6: the antiprism8 (2,4,0) walk from 1.61 that crawls into
    the bifurcation and stalls; sequential path, no stability work."""

    name = "stall8"
    why = (
        "criterion-6 N=8 crawl from omega 1.61 to a stall near 1.6105 with --workers 1: "
        "hundreds of NK segment validations, a quarter of them failing, and no stability work"
    )
    fixtures = [("antiprism8", "2,4,0")]
    omega_from = 1.61
    omega_to = 1.70
    expect_called = [
        "cli.continue.calls", "catalog.fixture.calls",
        "continuation.nk_validate_segment.calls", "continuation.nk_validate_segment.fails",
        "continuation.newton_polish.calls", "continuation.jacobian_F.interval_calls",
        "model.hess_hstar.interval_calls", "model.hess_hstar.float_calls",
        "model.grad_hstar.interval_calls", "model.grad_hstar.float_calls",
    ]

    @classmethod
    def from_seed(cls, seed: int) -> "Stall8":
        return cls()  # fixed input: the seed is recorded only

    def inputs(self) -> dict:
        return {"fixture": "antiprism8", "label": "2,4,0", "omega_from": self.omega_from,
                "omega_to": self.omega_to, "workers": 1}

    def run_pass(self, d) -> PassResult:
        chain = os.path.join(d, "chain.json")
        code = _cli(["continue", "--fixture", "antiprism8", "--label", "2,4,0", "--seed-omega", 0,
                     "--omega-from", self.omega_from, "--omega-to", self.omega_to, "--workers", 1, "--out", chain])
        if code != 2:
            return PassResult(1, 1, 0.0, problems=[f"exit code {code}, expected 2 (stalled)"])
        data = _load(chain)
        certs = [c for c in data if c.get("status") == "validated"]
        stall = next((c["omega"] for c in data if c.get("status") == "stalled"), None)
        problems = []
        if stall is None or not 1.55 <= stall <= 1.70:
            problems.append(f"stall omega {stall} outside [1.55, 1.70]")
        ends = [self.omega_from] + [x for c in certs for x in c["omega"]] + [stall]
        if not certs or any(a != b for a, b in zip(ends[::2], ends[1::2])):
            problems.append("validated chain is not contiguous from 1.61 to the stall")
        width = sum(c["omega"][1] - c["omega"][0] for c in certs)
        return PassResult(
            attempted=1,
            failed=int(bool(problems)),
            certified_share=width / (self.omega_to - self.omega_from),
            segments=len(certs),
            certified_width=width,
            problems=problems,
            details={"segments": len(certs), "stall_omega": stall},
        )


class Points:
    """Criteria 1 and 8: ``certify`` then ``stability`` on isolated
    configurations, including the mu=0 kernel winding count."""

    name = "points"
    why = (
        "criteria 1 and 8: certify then stability on 8 fixtures (N=8..12, omega 0 and 50): "
        "large-N NK point validation, eigenpair validation and the mu=0 winding count; no walk"
    )
    all_fixtures = ["antiprism8", "triaugmented9", "gyro10", "eq11", "icosahedron",
                    "collision10", "collision11", "collision12"]
    expect_called = [
        "cli.certify.calls", "cli.stability.calls", "catalog.fixture.calls",
        "continuation.nk_validate_point.calls", "continuation.newton_polish.calls",
        "continuation.jacobian_F.interval_calls",
        "model.full_hstar_hessian.calls", "model.hess_hstar.calls", "model.grad_hstar.calls",
        "stability.stability_test.calls", "stability.build_slice.calls",
        "stability.assemble_blocks.calls", "stability.validate_simple_eigenpair.calls",
        "stability.count_eigenvalues_winding.calls", "intervals.complex_det_enclosure.calls",
    ]

    def __init__(self, names=None):
        from vortexcert import catalog

        self.names = list(names or self.all_fixtures)
        self.fixtures = [(n, None) for n in self.names]
        # catalog coordinates for the criterion-8 check, read before any pass
        # so that the check adds no calls to the traced layers
        self.given = {n: catalog.fixture(n).generators for n in self.names}

    @classmethod
    def from_seed(cls, seed: int) -> "Points":
        return cls()  # fixed input: the seed is recorded only

    def inputs(self) -> dict:
        return {"fixtures": self.names}

    def _check(self, name, cert, verdict) -> list:
        from vortexcert import catalog

        entry = catalog.fixture_entry(name)
        got = verdict.get("verdict")
        if entry.omega == 0.0:
            if got != "CertifiedStable" or verdict.get("kernel_real_dim") != 2:
                return [f"{name}: {got} with kernel_real_dim {verdict.get('kernel_real_dim')}"]
            return []
        problems = []
        allowed = ("CertifiedStable", "Inconclusive") if name == "collision11" else ("CertifiedStable",)
        if got not in allowed:
            problems.append(f"{name}: verdict {got}, expected one of {allowed}")
        # criterion 8: polished point plus certified radius within the
        # published coordinate tolerance of the catalog coordinates
        shift = max(abs(a - b) for ra, rb in zip(cert["x0"]["u"], self.given[name]) for a, b in zip(ra, rb))
        if not shift + cert["coordinate_tolerance"] <= entry.coordinate_tolerance:
            problems.append(f"{name}: tolerance {shift + cert['coordinate_tolerance']:.2e} "
                            f"> {entry.coordinate_tolerance:.0e}")
        return problems

    def run_pass(self, d) -> PassResult:
        problems, failed, stable = [], 0, 0
        for name in self.names:
            cert, verdict = os.path.join(d, f"{name}.cert.json"), os.path.join(d, f"{name}.verdict.json")
            codes = [_cli(["certify", "--fixture", name, "--out", cert])]
            if codes[0] == 0:
                codes.append(_cli(["stability", cert, "--out", verdict]))
            if codes != [0, 0]:
                bad = [f"{name}: exit codes {codes}, expected [0, 0]"]
            else:
                v = _load(verdict)[0]
                bad = self._check(name, _load(cert), v)
                stable += v.get("verdict") == "CertifiedStable"
            problems += bad
            failed += bool(bad)
        return PassResult(
            attempted=len(self.names),
            failed=failed,
            certified_share=stable / len(self.names),
            problems=problems,
            details={"certified_stable": stable},
        )


WORKLOADS = {w.name: w for w in (Branch5, Stall8, Points)}
