"""The benchmark's workloads: seeded inputs, the operations of one pass, output checks.

A pass is a fixed list of operations made from the run's seed, so every pass
of every run does the same mix of work.  Operations call oklim through module
attributes looked up at call time (``oklim.sharp.sharp_energy``, ...), so the
traced run's wrappers see them.  Every check compares against refs.py, which
shares no code with oklim, or against a property the method must have; none
compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import refs
from probe import build

PLACE_TOL = 1e-8
MASS_2D_PAIR = 2.0 ** (2.0 / 3.0) * math.pi  # optimal per-particle mass of the 2D envelope


def _config_json(dim, masses, positions, path):
    data = {"dim": dim, "particles": [{"mass": float(m), "position": [float(v) for v in p]}
                                      for m, p in zip(masses, positions)]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _read_csv(path):
    """Rows of an oklim CSV file as dicts; empty cells become None."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        row = {"kind": cells[0]}
        for key, cell in zip(header[1:], cells[1:]):
            row[key] = float(cell) if cell else None
        rows.append(row)
    return rows


def _jittered_lattice(rng, dim, side, jitter=0.15):
    base = refs.square_lattice(dim, side)
    return (base + rng.uniform(-jitter, jitter, base.shape) / side + rng.random(dim)) % 1.0


def _separated_pair(rng, dim, min_sep):
    while True:
        x = rng.random((2, dim))
        d = x[0] - x[1]
        if np.linalg.norm(d - np.rint(d)) >= min_sep:
            return x


def _sum_abs_mm(masses):
    return float(np.sum(np.abs(masses))) ** 2


def _rel_gap(value, expect):
    return abs(value - expect) / abs(expect)


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([sum(map(ord, self.name)), seed])

    def path(self, name):
        return os.path.join(self.workdir, name)

    def make_inputs(self):
        """JSON-serialisable inputs; also writes any config file an operation reads."""
        raise NotImplementedError

    def operations(self, oklim, inputs):
        """[(label, callable)] for one pass; each callable returns the output to check."""
        raise NotImplementedError

    def check(self, inputs, passes):
        """Messages for every check that fails.

        passes[p][i] is operation i's output in pass p, or None where it failed.
        """
        raise NotImplementedError


class FiniteScale(Workload):
    """sharp_energy on jittered ball lattices, two expand sweeps, one direct-mode sum."""

    name = "finite-scale"
    SHARP = ((3, 2, 0.02), (3, 3, 0.02), (2, 2, 1e-3), (2, 3, 1e-4))  # dim, side, eta
    EXPAND = ((3, (0.04, 0.02, 0.01), True), (2, (1e-2, 1e-3, 1e-4), False))
    DIRECT_ETA = 0.25
    DIRECT_CUTOFF = 500

    def make_inputs(self):
        rng = self.rng
        sharp = []
        for dim, side, eta in self.SHARP:
            x = _jittered_lattice(rng, dim, side)
            sharp.append({"dim": dim, "eta": eta, "masses": rng.uniform(0.5, 1.5, len(x)).tolist(),
                          "positions": x.tolist()})
        expand = []
        for dim, etas, richardson in self.EXPAND:
            mass = 1.0 if dim == 3 else MASS_2D_PAIR
            x = _separated_pair(rng, dim, 0.3)
            cfg = {"dim": dim, "masses": [mass, mass], "positions": x.tolist(),
                   "etas": list(etas), "richardson": richardson,
                   "file": self.path(f"expand{dim}d.json"), "out": self.path(f"expand{dim}d.csv")}
            _config_json(dim, cfg["masses"], x, cfg["file"])
            expand.append(cfg)
        direct = {"dim": 2, "eta": self.DIRECT_ETA,
                  "masses": rng.uniform(0.5, 1.5, 2).tolist(),
                  "positions": _separated_pair(rng, 2, 0.45).tolist()}
        return {"sharp": sharp, "expand": expand, "direct": direct}

    def operations(self, oklim, inputs):
        objs = build(oklim, self.name, inputs)
        *balls, direct = objs["balls"]

        def sharp(cfg):
            bd = oklim.sharp.sharp_energy(cfg)
            return {"total": bd.total, "parts": bd.parts_sum(), "tail": bd.tail_bound}

        def direct_op():
            bd = oklim.sharp.sharp_energy(direct, fourier_cutoff=self.DIRECT_CUTOFF,
                                          method="direct")
            return {"total": bd.total, "parts": bd.parts_sum(), "tail": bd.tail_bound}

        def expand(cfg):
            argv = ["expand", "--config", cfg["file"], "--etas",
                    ",".join(repr(e) for e in cfg["etas"]), "--out", cfg["out"]]
            if cfg["richardson"]:
                argv.append("--richardson")
            rc = oklim.cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"oklim expand exited with {rc}")
            return _read_csv(cfg["out"])

        ops = [(f"sharp {c['dim']}d n={len(c['masses'])} eta={c['eta']:g}",
                lambda b=b: sharp(b)) for c, b in zip(inputs["sharp"], balls)]
        ops += [(f"expand {c['dim']}d", lambda c=c: expand(c)) for c in inputs["expand"]]
        ops.append((f"direct 2d eta={self.DIRECT_ETA:g}", direct_op))
        return ops

    def check(self, inputs, passes):
        errors = []
        ew = {d: refs.Ewald(d) for d in (2, 3)}
        sharp_ref = [refs.finite_scale_energy(ew[c["dim"]], c["eta"], c["masses"], c["positions"])
                     for c in inputs["sharp"]]
        sweeps = []
        for c in inputs["expand"]:
            e = ew[c["dim"]]
            sweeps.append(([refs.finite_scale_energy(e, eta, c["masses"], c["positions"])
                            for eta in c["etas"]],
                           refs.f0_energy(e, c["masses"], c["positions"]),
                           _sum_abs_mm(c["masses"])))
        d = inputs["direct"]
        direct_ref = refs.finite_scale_energy(ew[2], d["eta"], d["masses"], d["positions"])
        n_sharp = len(sharp_ref)
        for p, outs in enumerate(passes):
            for i, (out, expect) in enumerate(zip(outs[:n_sharp], sharp_ref)):
                if out is None:
                    continue
                if not _rel_gap(out["total"], expect) <= 1e-10:
                    errors.append(f"pass {p} sharp {i}: total {out['total']!r} "
                                  f"vs closed form {expect!r}")
                if not abs(out["total"] - out["parts"]) <= 1e-12 * abs(out["total"]):
                    errors.append(f"pass {p} sharp {i}: total differs from the sum of its parts")
                if not out["tail"] <= 1e-8 * abs(out["total"]):
                    errors.append(f"pass {p} sharp {i}: tail_bound {out['tail']!r} "
                                  f"above 1e-8 of total")
            expand_outs = outs[n_sharp:n_sharp + 2]
            for c, rows, (e_ref, f0_ref, mm) in zip(inputs["expand"], expand_outs, sweeps):
                if rows is None:
                    continue
                sweep = [r for r in rows if r["kind"] == "sweep"]
                if [r["eta"] for r in sweep] != c["etas"]:
                    errors.append(f"pass {p} expand {c['dim']}d: sweep rows {sweep!r}")
                    continue
                for r, expect in zip(sweep, e_ref):
                    if not _rel_gap(r["E_eta"], expect) <= 1e-10:
                        errors.append(f"pass {p} expand {c['dim']}d eta={r['eta']}: E_eta "
                                      f"{r['E_eta']!r} vs closed form {expect!r}")
                if c["richardson"]:
                    value = {r["kind"]: r["value"] for r in rows if r["kind"] != "sweep"}
                    if not abs(value.get("richardson_f0", math.nan) - f0_ref) <= 1e-3:
                        errors.append(f"pass {p} expand: richardson_f0 "
                                      f"{value.get('richardson_f0')!r} not within 1e-3 of F0 "
                                      f"{f0_ref!r}")
                    if not abs(value.get("limit_f0_ordered", math.nan) - f0_ref) <= 1e-11 * mm:
                        errors.append(f"pass {p} expand: limit_f0_ordered "
                                      f"{value.get('limit_f0_ordered')!r} vs F0 {f0_ref!r}")
            out = outs[-1]
            if out is not None and not abs(out["total"] - direct_ref) <= out["tail"]:
                errors.append(f"pass {p} direct: total {out['total']!r} farther than its "
                              f"tail_bound {out['tail']!r} from the closed form {direct_ref!r}")
        return errors


class Limit(Workload):
    """`oklim energy` (E0 and F0 rows) on large uniform point sets, in process."""

    name = "limit"
    N = 250

    def make_inputs(self):
        rng = self.rng
        energy = []
        for dim, equal in ((3, False), (2, True)):
            x = rng.random((self.N, dim))
            m = np.full(self.N, rng.uniform(0.5, 1.5)) if equal else rng.uniform(0.5, 1.5, self.N)
            cfg = {"dim": dim, "masses": m.tolist(), "positions": x.tolist(),
                   "file": self.path(f"limit{dim}d.json"), "out": self.path(f"limit{dim}d.csv")}
            _config_json(dim, m, x, cfg["file"])
            energy.append(cfg)
        return {"energy": energy}

    def operations(self, oklim, inputs):
        def energy(cfg):
            rc = oklim.cli.main(["energy", "--config", cfg["file"], "--out", cfg["out"]])
            if rc != 0:
                raise RuntimeError(f"oklim energy exited with {rc}")
            return {r["kind"]: r["total"] for r in _read_csv(cfg["out"])}

        return [(f"energy {c['dim']}d n={len(c['masses'])}", lambda c=c: energy(c))
                for c in inputs["energy"]]

    def check(self, inputs, passes):
        errors = []
        expected = []
        for c in inputs["energy"]:
            ew = refs.Ewald(c["dim"])
            expected.append((refs.e0(c["dim"], c["masses"]),
                             refs.f0_energy(ew, c["masses"], c["positions"]),
                             _sum_abs_mm(c["masses"])))
        for p, outs in enumerate(passes):
            for c, out, (e0, f0, mm) in zip(inputs["energy"], outs, expected):
                if out is None:
                    continue
                if not _rel_gap(out.get("E0", math.nan), e0) <= 1e-12:
                    errors.append(f"pass {p} {c['dim']}d: E0 {out.get('E0')!r} "
                                  f"vs closed form {e0!r}")
                if not abs(out.get("F0", math.nan) - f0) <= 1e-11 * mm:
                    errors.append(f"pass {p} {c['dim']}d: F0 {out.get('F0')!r} vs pair sum {f0!r}")
        return errors


class Placement(Workload):
    """optimize.place on small point sets: thousands of tiny Green's function batches."""

    name = "placement"
    # dim, n, random restarts, whether the restarts follow the run's seed.  The
    # 9-particle search keeps place seed 0: its one random restart is over half
    # of a pass, and its cost varies by about 8% from seed to seed, which would
    # make pass times differ between seeds by more than the changes measured.
    PLACE = ((2, 8, 2, True), (2, 9, 1, False), (3, 4, 2, True))

    def make_inputs(self):
        return {"place": [{"dim": dim, "masses": [1.0] * n, "restarts": restarts,
                           "seed": 3 * self.seed + i if seeded else 0}
                          for i, (dim, n, restarts, seeded) in enumerate(self.PLACE)]}

    def operations(self, oklim, inputs):
        def place(c, masses):
            res = oklim.optimize.place(c["dim"], masses, restarts=c["restarts"], seed=c["seed"],
                                       tol=PLACE_TOL)
            return {"positions": res.config.positions, "masses": res.config.masses,
                    "energy": res.energy, "converged": res.converged}

        return [(f"place {c['dim']}d n={len(c['masses'])}", lambda c=c, m=m: place(c, m))
                for c, m in zip(inputs["place"], build(oklim, self.name, inputs)["masses"])]

    def check(self, inputs, passes):
        errors = []
        ew = {d: refs.Ewald(d) for d in (2, 3)}
        for i, c in enumerate(inputs["place"]):
            done = [outs[i] for outs in passes if outs[i] is not None]
            if not done:
                continue
            out = done[0]
            e, dim, n = ew[c["dim"]], c["dim"], len(c["masses"])
            if not out["converged"]:
                errors.append(f"place {i}: not converged")
            grad = float(np.linalg.norm(
                refs.interaction_gradient(e, out["masses"], out["positions"])))
            if not grad <= 2 * PLACE_TOL:
                errors.append(f"place {i}: recomputed gradient norm {grad!r} above 2 tol")
            energy = refs.interaction_energy(e, out["masses"], out["positions"])
            if not _rel_gap(out["energy"], energy) <= 1e-10:
                errors.append(f"place {i}: energy {out['energy']!r} vs recomputed {energy!r}")
            side = round(n ** (1.0 / dim))
            if side**dim == n:  # place injects the square lattice as an extra start
                lattice = refs.interaction_energy(e, out["masses"], refs.square_lattice(dim, side))
                if not out["energy"] <= lattice + 1e-12:
                    errors.append(f"place {i}: energy {out['energy']!r} above the square "
                                  f"lattice's {lattice!r}")
            for later in done[1:]:
                if not (np.array_equal(later["positions"], out["positions"])
                        and later["energy"] == out["energy"]):
                    errors.append(f"place {i}: a later pass's result differs from the first")
        return errors


WORKLOADS = {w.name: w for w in (FiniteScale, Limit, Placement)}
