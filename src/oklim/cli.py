"""Command-line surface: evaluate Green's functions, local energies, limit and
finite-scale energies, the eta-sweep expansion table, and particle placement.

Each command returns its output text, and ``main`` alone writes it: to
``--out`` when the command has one and it is given, otherwise to stdout.
``main(argv)`` returns the exit code and may be called many times in one
process: it builds its parser on the first call, and at each call it looks
up the command function, ``cmd_<command>``, by name.
Exit codes: 0 success, 1 usage/schema (or Ewald parameters whose certified
tail breaks the accuracy contract, a result outside the float range, an
``--out`` that cannot be written, running out of memory, or any other
library error), 2 singularity, 3 physical validation, 4 admissibility.
All numeric output is finite and carries 17 significant digits; CSV
columns are append-only across versions.  The 3D Ewald sum
chooses its splitting parameter from the particle count, and the green
command takes the choice for one pair, n = 2; the environment variable
OKLIM_EWALD_ALPHA fixes it instead (the 2D theta form has none).
Manifests name the parameters that ran.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, green, limits, local, optimize, sharp
from .errors import (CoincidentPoints, DiameterTooLarge, InadmissibleConfiguration,
                     NoConvergence, OklimError, OverlappingBalls, SingularPoint, UnequalMasses2D)

EXIT_USAGE = 1
EXIT_SINGULAR = 2
EXIT_PHYSICAL = 3
EXIT_ADMISSIBILITY = 4


# ---------------------------------------------------------------------------
# serialization: JSON / CSV with 17 significant digits
# ---------------------------------------------------------------------------

def fmt17(x) -> str:
    x = float(x)
    if not math.isfinite(x):  # inf and nan are not JSON numbers
        raise ValueError(f"result {x} is outside the float range")
    return format(x, ".17g")


def dumps17(obj, indent=0) -> str:
    """JSON text with floats at 17 significant digits."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {dumps17(v, indent + 2).lstrip()}"
            for k, v in obj.items())
        return f"{pad}{{\n{items}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        items = ", ".join(dumps17(v).lstrip() for v in obj)
        return f"{pad}[{items}]"
    if isinstance(obj, bool) or obj is None:
        return pad + json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + fmt17(obj)
    return pad + json.dumps(obj)


def make_manifest(command: str, parameters: dict, params: green.EwaldParameters,
                  wall_time_s: float, dim: int) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "version": __version__,
        "ewald": None if dim == 2 else {"alpha": params.alpha, "real_cutoff": params.real_cutoff,
                                        "fourier_cutoff": params.fourier_cutoff},
        "wall_time_s": wall_time_s,
        "green_method": "theta" if dim == 2 else "ewald",
    }


def write_csv(manifest: dict, header: list, rows: list) -> str:
    """CSV text: the ``# manifest:`` line, the header, then one line per row."""
    lines = ["# manifest: " + dumps17(manifest).replace("\n", " "), ",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if v is None:
                cells.append("")
            elif isinstance(v, str):
                cells.append(v)
            else:
                cells.append(fmt17(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

def _is_finite_number(v) -> bool:
    # json.load accepts NaN, Infinity and -Infinity as numbers, and integers of any size;
    # an int compares with a float exactly, so one beyond the float range fails here too
    return isinstance(v, (int, float)) and not isinstance(v, bool) and \
        abs(v) <= sys.float_info.max


def validate_config(data) -> list:
    """Schema check; returns (json-pointer, message) pairs for every violation."""
    errs = []
    if not isinstance(data, dict):
        return [("", "configuration must be a JSON object")]
    dim = data.get("dim")
    if type(dim) is not int or dim not in (2, 3):  # 2.0 == 2, yet a float is no dim; nor is true
        errs.append(("/dim", "must be 2 or 3"))
        dim = None
    parts = data.get("particles")
    if not isinstance(parts, list) or not parts:
        errs.append(("/particles", "must be a non-empty array"))
        parts = []
    for i, p in enumerate(parts):
        ptr = f"/particles/{i}"
        if not isinstance(p, dict):
            errs.append((ptr, "must be an object"))
            continue
        m = p.get("mass")
        if not _is_finite_number(m) or not m > 0:
            errs.append((ptr + "/mass", "must be a positive finite number"))
        pos = p.get("position")
        if not isinstance(pos, list) or (dim in (2, 3) and len(pos) != dim) or \
                not all(_is_finite_number(v) for v in pos):
            count = f"{dim} " if dim in (2, 3) else ""  # an invalid dim is reported at /dim
            errs.append((ptr + "/position", f"must be an array of {count}finite numbers"))
    eta = data.get("eta")
    if eta is not None and (not _is_finite_number(eta) or not 0 < eta <= 0.25):
        errs.append(("/eta", "must be a number in (0, 0.25]"))
    return errs


def load_point_configuration(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    errs = validate_config(data)
    if errs:
        for ptr, msg in errs:
            sys.stderr.write(f"schema violation at {ptr or '/'}: {msg}\n")
        raise SystemExit(EXIT_USAGE)
    cfg = limits.PointConfiguration(
        data["dim"], [(p["mass"], p["position"]) for p in data["particles"]])
    return cfg, data.get("eta")


def default_params(n=2) -> green.EwaldParameters:
    """The 3D Ewald parameters a command runs with, named in its manifest.

    OKLIM_EWALD_ALPHA's alpha with for_alpha's cutoffs when it is set;
    otherwise the library's choice for n particles, ``for_count(n)``, with
    n = 2 for a single G evaluation (2D uses none).  The variable is checked
    before any lattice table is built: at the ends of [0.5, 11] the 3D
    tables hold 10,648 images or 8,000 octant k entries (20^3).
    """
    env = os.environ.get("OKLIM_EWALD_ALPHA")
    if not env:
        return green._resolve(None, n)
    try:
        alpha = float(env)
    except ValueError:
        raise ValueError(f"OKLIM_EWALD_ALPHA must be a number, got {env!r}") from None
    if not 0.5 <= alpha <= 11.0:
        why = ""
        if 0.0 < alpha < 0.5:
            why = ": below 0.5 a certified tail of 1e-13 takes at least 10,648 real-space images"
        raise ValueError(f"OKLIM_EWALD_ALPHA must lie in [0.5, 11], got {env}{why}")
    return green.EwaldParameters.for_alpha(alpha)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_green(args) -> str:
    params = default_params()
    x = [float(v) for v in args.x.split(",")]
    if len(x) != args.dim:
        raise ValueError(f"--x needs {args.dim} comma-separated coordinates")
    g = green.green_eval(args.dim, x, params)
    if not (args.grad or args.regular):
        return fmt17(g) + "\n"
    payload = {"G": g}
    if args.grad:
        payload["grad"] = list(green.green_grad(args.dim, x, params))
    if args.regular:
        payload["g"] = green.regular_part(args.dim, x, params)
    return dumps17(payload) + "\n"


# the flags of `local` that the other dimension's energies have no output for
_FOREIGN_LOCAL_FLAGS = {2: ("concavity", "splitting"), 3: ()}


def cmd_local(args) -> str:
    for flag in _FOREIGN_LOCAL_FLAGS[args.dim]:
        if getattr(args, flag):
            raise ValueError(f"--{flag} does not apply to --dim {args.dim}")
    m = args.mass
    payload = {}
    if args.dim == 2:
        payload["e2d"] = local.e2d(m)
    else:
        b = local.e3d_ball(m)
        payload["e3d_ball"] = {
            "perimeter_term": b.perimeter_term, "self_h1_term": b.self_h1_term,
            "total": b.total, "reference": "ball ansatz (upper bound)"}
        if args.concavity:
            payload["concavity_coefficient"] = local.concavity_coefficient(m)
        if args.splitting:
            payload["splitting_threshold"] = local.splitting_threshold_3d()
    if args.partition:
        part = local.envelope(args.dim, m)
        payload["partition"] = {"n": part.n, "per_mass": part.per_mass,
                                "envelope_value": part.envelope_value}
    return dumps17(payload) + "\n"


_CSV_HEADER = ["kind", "eta", "gamma", "perimeter_term", "self_h1_term",
               "regular_self_term", "cross_term", "total", "tail_bound"]


def _breakdown_row(kind, bd) -> list:
    return [kind, bd.eta, bd.gamma, bd.perimeter_term, bd.self_h1_term,
            bd.regular_self_term, bd.cross_term, bd.total, bd.tail_bound]


def cmd_energy(args) -> str:
    t0 = time.perf_counter()
    cfg, inline_eta = load_point_configuration(args.config)
    params = default_params(cfg.n)
    eta = args.eta if args.eta is not None else inline_eta
    rows = []
    if eta is not None:
        if args.pair_convention == "halved":  # the finite-scale energy sums ordered pairs only
            raise ValueError("--pair-convention halved does not apply with an eta")
        ball = sharp.BallConfiguration(cfg.dim, eta, zip(cfg.masses, cfg.positions))
        bd = sharp.sharp_energy(ball, params=params)
        rows.append(_breakdown_row("sharp", bd))
    else:
        e0_val = limits.e0(cfg)
        f0_bd = limits.f0_energy(cfg, params, args.pair_convention)
        rows.append(["E0", None, None, None, None, None, None, e0_val, 0.0])
        rows.append(_breakdown_row("F0", f0_bd))
    manifest = make_manifest("energy", {
        "config": args.config, "eta": eta, "pair_convention": args.pair_convention},
        params, time.perf_counter() - t0, cfg.dim)
    return write_csv(manifest, _CSV_HEADER, rows)


def cmd_expand(args) -> str:
    t0 = time.perf_counter()
    cfg, _ = load_point_configuration(args.config)
    params = default_params(cfg.n)
    etas = [float(v) for v in args.etas.split(",") if v.strip()]
    if not etas:
        raise ValueError("--etas must list at least one value")
    table = sharp.second_order_quotient(cfg, etas, params)
    rows = [["sweep", r.eta, r.energy, r.quotient, None] for r in table.rows]
    if args.richardson:
        f0_hat, slope = sharp.richardson_extrapolate(table.etas, table.quotients)
        gap = abs(f0_hat - table.f0) / abs(table.f0)
        rows.append(["richardson_f0", None, None, None, f0_hat])
        rows.append(["richardson_slope", None, None, None, slope])
        rows.append(["limit_f0_ordered", None, None, None, table.f0])
        rows.append(["relative_gap", None, None, None, gap])
        # for balls F_eta - F0 is exactly c eta^2, so a fit in eta^2 has no model error
        f0_hat2, slope2 = sharp.richardson_extrapolate(table.etas**2, table.quotients)
        rows.append(["richardson_f0_eta2", None, None, None, f0_hat2])
        rows.append(["richardson_slope_eta2", None, None, None, slope2])
    manifest = make_manifest("expand", {
        "config": args.config, "etas": etas, "richardson": bool(args.richardson),
        "reference": table.reference, "reference_kind": table.reference_kind},
        params, time.perf_counter() - t0, cfg.dim)
    return write_csv(manifest, ["kind", "eta", "E_eta", "F_eta", "value"], rows)


def cmd_place(args) -> str:
    t0 = time.perf_counter()
    initial = None
    if args.from_config and not args.config:
        raise ValueError("--from-config needs --config")
    if args.config:
        for flag in ("n", "mass", "dim"):  # the file gives the masses and the dimension
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} does not apply with --config")
        cfg, _ = load_point_configuration(args.config)
        masses = cfg.masses
        dim = cfg.dim
        if args.from_config:
            initial = cfg.positions
    else:
        if args.n is None or args.mass is None:
            raise ValueError("--n and --mass are required without --config")
        if args.n > sys.maxsize:  # no list of masses that long
            raise ValueError(f"--n is a particle count of at most {sys.maxsize}, got {args.n}")
        masses = [args.mass] * args.n  # empty for n < 1, which place rejects
        dim = 2 if args.dim is None else args.dim
    params = default_params(len(masses))
    try:
        result = optimize.place(dim, masses, restarts=args.restarts, seed=args.seed,
                                tol=args.tol, params=params, initial_positions=initial)
    except NoConvergence as exc:
        result = exc.result
    equal = limits.equal_masses(result.config.masses)  # for the lattice and the manifest
    payload = {
        "converged": result.converged,
        "energy": result.energy,
        "grad_norm": result.grad_norm,
        "iterations": result.iterations,
        "restarts_used": result.restarts_used,
        "evaluations": result.evaluations,
        "pairwise_distances": list(result.pairwise_distances),
        "min_hessian_eigenvalue": result.min_hessian_eigenvalue,
        "config": {
            "dim": dim,
            "particles": [{"mass": m, "position": p} for m, p in
                          zip(result.config.masses.tolist(), result.config.positions.tolist())],
        },
    }
    if args.lattice_compare:
        square = {"lattice": "square", "skipped": "the masses are not all equal"}
        if equal:
            try:
                square = {"lattice": "square", "energy": optimize.lattice_candidate_energy(
                    dim, len(masses), float(masses[0]), params)}
            except OklimError as exc:
                square["skipped"] = str(exc)
        payload["lattice_candidates"] = [square]
    payload["manifest"] = make_manifest("place", {
        "dim": dim, "n": len(masses),
        "mass": float(masses[0]) if equal else None,
        "masses": [float(m) for m in masses],
        "restarts": args.restarts, "seed": args.seed, "tol": args.tol},
        params, time.perf_counter() - t0, dim)
    return dumps17(payload) + "\n"


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # built on the first main call, not at import
def build_parser() -> _Parser:
    p = _Parser(prog="oklim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("green", help="evaluate the periodic Green's function")
    g.add_argument("--dim", type=int, choices=(2, 3), required=True)
    g.add_argument("--x", required=True, help="comma-separated coordinates")
    g.add_argument("--grad", action="store_true")
    g.add_argument("--regular", action="store_true")

    l = sub.add_parser("local", help="per-particle local energies")
    l.add_argument("--dim", type=int, choices=(2, 3), required=True)
    l.add_argument("--mass", type=float, required=True)
    l.add_argument("--partition", action="store_true")
    l.add_argument("--concavity", action="store_true")
    l.add_argument("--splitting", action="store_true")

    e = sub.add_parser("energy", help="limit or finite-scale energies of a configuration")
    e.add_argument("--config", required=True)
    e.add_argument("--eta", type=float)
    e.add_argument("--pair-convention", choices=("ordered", "halved"), default="ordered")
    e.add_argument("--out")

    x = sub.add_parser("expand", help="eta-sweep of second-order quotients")
    x.add_argument("--config", required=True)
    x.add_argument("--etas", required=True)
    x.add_argument("--richardson", action="store_true")
    x.add_argument("--out")

    pl = sub.add_parser("place", help="optimize particle positions")
    pl.add_argument("--dim", type=int, choices=(2, 3))  # 2 without --config
    pl.add_argument("--n", type=int)
    pl.add_argument("--mass", type=float)
    pl.add_argument("--restarts", type=int, default=10)
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--tol", type=float, default=1e-8)
    pl.add_argument("--config")
    pl.add_argument("--from-config", action="store_true")
    pl.add_argument("--lattice-compare", action="store_true")
    pl.add_argument("--out")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan reach fmt17's report
            text = globals()["cmd_" + args.command](args)  # by name: the parser holds no command
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except SingularPoint as exc:
        sys.stderr.write(f"singular point: {exc}\n")
        return EXIT_SINGULAR
    except (CoincidentPoints, OverlappingBalls, DiameterTooLarge) as exc:
        sys.stderr.write(f"physical validation: {exc}\n")
        return EXIT_PHYSICAL
    except (UnequalMasses2D, InadmissibleConfiguration) as exc:
        sys.stderr.write(f"not an admissible limit configuration: {exc}\n")
        return EXIT_ADMISSIBILITY
    except OverflowError as exc:
        sys.stderr.write(f"error: an input is outside the float range ({exc})\n")
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's names the allocation that failed
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return EXIT_USAGE
    except (ValueError, OSError, OklimError) as exc:  # OklimError: any without a code of its own
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
