"""Command-line pipeline: certify, continue, stability, diagram, simulate,
catalog.

Artifacts are deterministic (byte-identical across identical invocations);
wall-clock and timestamps live only in the side-car run manifest.  Colors in
reports follow the usual traffic convention: green = existence and
stability certified, yellow = existence only, black = not certified.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import catalog as cat
from . import continuation as cont
from . import model as md
from . import stability as stab
from .intervals import DomainError, Interval

GREEN, YELLOW, BLACK = "green", "yellow", "black"

CSV_HEADER = "omega_lo,omega_hi,mu_lo,mu_hi,H_lo,H_hi,status"


class CliError(RuntimeError):
    pass


def _write_text(path: str, text: str):
    with open(path, "w") as f:
        f.write(text)


def _write_manifest(out_path: str, command: str, params: dict, inputs: list, outputs: list, t0: float, stages: dict):
    params = {k: v for k, v in params.items() if not callable(v)}
    manifest = {
        "command": command,
        "inputs": inputs,
        "parameters": params,
        "outputs": outputs,
        "build": f"vortexcert-{__version__}",
        "wall_clock_s": time.time() - t0,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "stages": stages,
    }
    _write_text(out_path + ".manifest.json", json.dumps(manifest, indent=1) + "\n")


def _load_ring(args) -> tuple:
    """(RingSystem, default omega, name) from --fixture or --config."""
    if getattr(args, "fixture", None):
        entry = cat.fixture_entry(args.fixture)
        label = tuple(int(t) for t in args.label.split(",")) if getattr(args, "label", None) else None
        ring = cat.fixture(args.fixture, label)
        return ring, entry.omega, args.fixture
    if getattr(args, "config", None):
        with open(args.config) as f:
            obj = json.load(f)
        if "generators" in obj:
            return md.ring_from_json(obj), float(obj.get("omega", 0.0)), args.config
        if "vortices" in obj:
            cfg = md.full_from_json(obj)
            ring = md.RingSystem(1, cfg.N, 0, np.asarray(cfg.vectors, dtype=float))
            return ring, float(obj.get("omega", 0.0)), args.config
        raise CliError("configuration file must contain 'generators' or 'vortices'")
    raise CliError("one of --fixture or --config is required")


def _point_certificate_json(pc: cont.PointCertificate) -> dict:
    cert = cont.BranchCertificate(
        m=pc.m, n=pc.n, p=pc.p, anchor=pc.anchor, x0=pc.point, x1=pc.point, bounds=pc.bounds
    )
    out = cert.to_json()
    out["coordinate_tolerance"] = pc.coordinate_tolerance()
    return out


def cmd_certify(args) -> int:
    t0 = time.time()
    ring, w_default, name = _load_ring(args)
    omega = w_default if args.omega is None else args.omega
    try:
        pt = cont.seed_point(ring, omega)
        b0 = np.asarray(pt.u, dtype=float)
        x = cont.newton_polish(pt.flat(), omega, b0, ring.m, ring.p)
        pc = cont.nk_validate_point(cont.AugmentedPoint.from_flat(x, omega), b0, ring.m, ring.p)
    except (cont.NoConvergence, cont.NotValidated, DomainError) as exc:
        report = {"status": "not_validated", "reason": str(exc), "input": name, "omega": omega}
        text = json.dumps(report, indent=1) + "\n"
        if args.out:
            _write_text(args.out, text)
            _write_manifest(args.out, "certify", vars(args), [name], [args.out], t0, {"validate": "failed"})
        else:
            sys.stdout.write(text)
        return 2
    payload = _point_certificate_json(pc)
    text = json.dumps(payload, indent=1) + "\n"
    if args.out:
        _write_text(args.out, text)
        _write_manifest(args.out, "certify", vars(args), [name], [args.out], t0, {"validate": "ok"})
    if args.json or not args.out:
        sys.stdout.write(text)
    return 0


def _validate_segment_task(payload):
    (m, p, anchor, x0, w0, x1, w1) = payload
    anchor = np.array(anchor)
    a0 = cont.AugmentedPoint.from_flat(np.array(x0), w0)
    a1 = cont.AugmentedPoint.from_flat(np.array(x1), w1)
    try:
        certificate = cont.nk_validate_segment(a0, a1, anchor, m, p)
        return ("ok", certificate.to_json())
    except cont.NotValidated as exc:
        return ("fail", str(exc))


def _refine_failed_segment(m, p, anchor, a0, a1, depth=0):
    """Sequential bisection fallback for one failed segment."""
    out = []
    if depth > 10:
        raise cont.NotValidated("segment refinement exhausted")
    try:
        out.append(cont.nk_validate_segment(a0, a1, anchor, m, p))
        return out
    except cont.NotValidated:
        if abs(a1.omega - a0.omega) < cont.MIN_STEP:
            raise
    xm = 0.5 * (a0.flat() + a1.flat())
    wm = 0.5 * (a0.omega + a1.omega)
    xm_pol = cont.newton_polish(xm, wm, anchor, m, p)
    mid = cont.AugmentedPoint.from_flat(xm_pol, wm)
    out.extend(_refine_failed_segment(m, p, anchor, a0, mid, depth + 1))
    out.extend(_refine_failed_segment(m, p, anchor, mid, a1, depth + 1))
    return out


def cmd_continue(args) -> int:
    t0 = time.time()
    ring, w_default, name = _load_ring(args)
    seed_omega = w_default if args.seed_omega is None else args.seed_omega
    workers = args.workers if args.workers else (os.cpu_count() or 1)
    stages = {}
    if args.no_rigor or workers <= 1:
        result = cont.continue_branch(
            ring,
            args.omega_from,
            args.omega_to,
            step=args.step,
            rigor=not args.no_rigor,
            seed_omega=seed_omega,
        )
        certs = result.certificates
        status = result.status
        stall = result.stall_omega
        stages["walk"] = status
    else:
        # numerical pass first; validations are independent and run in a pool
        numeric = cont.continue_branch(
            ring, args.omega_from, args.omega_to, step=args.step, rigor=False, seed_omega=seed_omega
        )
        stages["walk"] = numeric.status
        pts = [pt for (w, pt) in numeric.points if _between(w, args.omega_from, args.omega_to)]
        tasks = []
        for a0, a1 in zip(pts, pts[1:]):
            anchor = np.asarray(a0.u, dtype=float)
            tasks.append((ring.m, ring.p, anchor.tolist(), a0.flat().tolist(), a0.omega, a1.flat().tolist(), a1.omega))
        certs = []
        status = numeric.status
        stall = numeric.stall_omega
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_validate_segment_task, tasks))
        for (a0, a1), (state, payload) in zip(zip(pts, pts[1:]), outcomes):
            if state == "ok":
                certs.append(cont.BranchCertificate.from_json(payload))
                continue
            anchor = np.asarray(a0.u, dtype=float)
            try:
                certs.extend(_refine_failed_segment(ring.m, ring.p, anchor, a0, a1))
            except (cont.NotValidated, cont.NoConvergence):
                status = "stalled"
                stall = a0.omega
                break
        stages["validate"] = status
    chain = [c.to_json() for c in certs]
    if status == "stalled":
        chain.append({"status": "stalled", "omega": stall})
    text = json.dumps(chain, indent=1) + "\n"
    if args.out:
        _write_text(args.out, text)
        _write_manifest(args.out, "continue", vars(args), [name], [args.out], t0, stages)
    else:
        sys.stdout.write(text)
    colors = {GREEN: 0, YELLOW: len(certs), BLACK: 1 if status == "stalled" else 0}
    sys.stderr.write(
        f"continue: {len(certs)} validated segments (yellow: {colors[YELLOW]}, black: {colors[BLACK]})"
        + (f"; stalled at omega = {stall}\n" if status == "stalled" else "\n")
    )
    return 0 if status == "completed" else 2 if status == "stalled" else 0


def _between(w, a, b):
    lo, hi = min(a, b), max(a, b)
    return lo - 1e-12 <= w <= hi + 1e-12


def _load_chain(path: str) -> tuple:
    with open(path) as f:
        data = json.load(f)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise CliError(f"{path}: a chain is a JSON object or a list of objects")
    certs = []
    stall = None
    for i, obj in enumerate(data):
        if not isinstance(obj, dict):
            raise CliError(f"{path}: chain entry {i} is not an object")
        if obj.get("status") == "stalled":
            stall = obj.get("omega")
            continue
        try:
            certs.append(cont.BranchCertificate.from_json(obj))
        except KeyError as exc:
            raise CliError(f"{path}: chain entry {i} lacks the field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise CliError(f"{path}: chain entry {i} is malformed: {exc}") from None
    return certs, stall


def cmd_stability(args) -> int:
    t0 = time.time()
    certs, stall = _load_chain(args.chain)
    verdicts = []
    for c in certs:
        if c.x0.omega == c.x1.omega and np.allclose(c.x0.flat(), c.x1.flat()):
            pc = cont.nk_validate_point(c.x0, c.anchor, c.m, c.p)
            mu_zero = c.x0.omega == 0.0
            v = stab.stability_test(pc.ring_enclosure(), Interval(c.x0.omega), mu_zero=mu_zero)
            verdicts.append(v.to_json())
        else:
            sv = stab.stability_over_segment(c)
            verdicts.append(sv.to_json())
    text = json.dumps(verdicts, indent=1) + "\n"
    if args.out:
        _write_text(args.out, text)
        _write_manifest(args.out, "stability", vars(args), [args.chain], [args.out], t0, {"segments": len(verdicts)})
    else:
        sys.stdout.write(text)
    return 0


def cmd_diagram(args) -> int:
    t0 = time.time()
    certs, stall = _load_chain(args.chain)
    verdicts = None
    if args.verdicts:
        with open(args.verdicts) as f:
            verdicts = json.load(f)
    rows = [CSV_HEADER]
    for i, c in enumerate(certs):
        tube = c.ring_tube()
        mu = c.mu_enclosure()
        from .model import hamiltonian_H, lift_rho

        H = hamiltonian_H(lift_rho(tube).vectors)
        lo, hi = c.omega_interval
        status = YELLOW
        if verdicts is not None and i < len(verdicts):
            if verdicts[i].get("verdict") == "CertifiedStable" and verdicts[i].get("whole_segment", True):
                status = GREEN
        rows.append(
            f"{lo:.17g},{hi:.17g},{mu.lo:.17g},{mu.hi:.17g},{H.lo:.17g},{H.hi:.17g},{status}"
        )
    if stall is not None:
        rows.append(f"{stall:.17g},{stall:.17g},nan,nan,nan,nan,{BLACK}")
    text = "\n".join(rows) + "\n"
    if args.out:
        _write_text(args.out, text)
        _write_manifest(args.out, "diagram", vars(args), [args.chain], [args.out], t0, {"rows": len(rows) - 1})
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    t0 = time.time()
    if args.dt <= 0 or args.t <= 0:
        raise CliError("simulation requires positive --t and --dt")
    ring, _w, name = _load_ring(args)
    full = md.lift_rho(ring)
    vecs = np.asarray(full.vectors, dtype=float)
    params = md.VortexParameters()
    steps = int(round(args.t / args.dt))
    sample_every = max(1, steps // max(1, args.samples))
    rows = ["t,H,phi_x,phi_y,phi_z," + ",".join(f"v{j}_{c}" for j in range(full.N) for c in "xyz")]

    def emit(t, v):
        H = md.hamiltonian_H(v)
        phi = md.momentum_Phi(v)
        coords = ",".join(f"{x:.17g}" for x in np.asarray(v, dtype=float).reshape(-1))
        rows.append(f"{t:.17g},{H:.17g},{phi[0]:.17g},{phi[1]:.17g},{phi[2]:.17g},{coords}")

    emit(0.0, vecs)
    v = vecs
    for k in range(1, steps + 1):
        v = md.integrate_full_rk4(v, params, args.dt, args.dt)
        if k % sample_every == 0 or k == steps:
            emit(k * args.dt, v)
    text = "\n".join(rows) + "\n"
    if args.out:
        _write_text(args.out, text)
        _write_manifest(args.out, "simulate", vars(args), [name], [args.out], t0, {"steps": steps})
    else:
        sys.stdout.write(text)
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in cat.list_fixtures():
            e = cat.fixture_entry(name)
            labels = " ".join(f"({m},{n},{p})" for (m, n, p) in e.labels)
            sys.stdout.write(f"{name}: N={e.N} {labels} omega={e.omega} {e.provenance}\n")
        return 0
    entry = cat.fixture_entry(args.name)
    label = tuple(int(t) for t in args.label.split(",")) if args.label else None
    ring = cat.fixture(args.name, label)
    obj = md.ring_to_json(ring)
    obj["omega"] = entry.omega
    obj["provenance"] = entry.provenance
    if entry.coordinate_tolerance:
        obj["coordinate_tolerance"] = entry.coordinate_tolerance
    if args.json:
        sys.stdout.write(md.dumps_config(obj) + "\n")
    else:
        sys.stdout.write(f"{args.name}: N={entry.N}, (m,n,p)=({ring.m},{ring.n},{ring.p})\n")
        for row in np.asarray(ring.generators, dtype=float):
            sys.stdout.write("  " + " ".join(f"{x: .17g}" for x in row) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vortexcert", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_input(p):
        p.add_argument("--fixture", help="catalog fixture name")
        p.add_argument("--config", help="JSON configuration path")
        p.add_argument("--label", help="fixture reduction as m,n,p")

    p = sub.add_parser("certify", help="validate an isolated rotating configuration")
    add_input(p)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("continue", help="validated branch continuation in omega")
    add_input(p)
    p.add_argument("--omega-from", type=float, required=True)
    p.add_argument("--omega-to", type=float, required=True)
    p.add_argument("--step", type=float, default=cont.DEFAULT_STEP)
    p.add_argument("--seed-omega", type=float, default=None)
    p.add_argument("--no-rigor", action="store_true")
    p.add_argument("--workers", type=int, default=0, help="0 = machine core count")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_continue)

    p = sub.add_parser("stability", help="stability verdicts for a chain file")
    p.add_argument("chain")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("diagram", help="energy-momentum CSV from a chain file")
    p.add_argument("chain")
    p.add_argument("--verdicts")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_diagram)

    p = sub.add_parser("simulate", help="RK4 trajectory CSV")
    add_input(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("catalog", help="list or show fixtures")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.add_argument("--label")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_catalog)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, cat.NotFound, DomainError, FileNotFoundError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
