import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oklim import cli, green, limits, optimize
from oklim.errors import OklimError

PI = math.pi


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "oklim.cli", *args],
                          capture_output=True, text=True, env=env)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


TWO_BALLS_3D = {"dim": 3, "particles": [
    {"mass": 1.0, "position": [0.0, 0.0, 0.0]},
    {"mass": 1.0, "position": [0.5, 0.5, 0.5]}]}


def test_green_plain_output_is_one_json_number(params):
    r = run_cli("green", "--dim", "3", "--x", "0.5,0.5,0.5")
    assert r.returncode == 0
    value = json.loads(r.stdout)
    assert isinstance(value, float)
    assert abs(value - green.green_eval(3, (0.5, 0.5, 0.5), params)) < 1e-15
    # plain JSON number with >= 15 significant digits
    text = r.stdout.strip()
    assert re.fullmatch(r"-?\d+\.\d+(e[+-]?\d+)?", text)
    assert len(re.sub(r"[-.e+]", "", text).lstrip("0")) >= 15


def test_green_singular_exit_code():
    r = run_cli("green", "--dim", "2", "--x", "0,0")
    assert r.returncode == 2
    assert "singular" in r.stderr.lower()


def test_green_regular_fields(params):
    r = run_cli("green", "--dim", "3", "--x", "0.25,0,0", "--regular", "--grad")
    payload = json.loads(r.stdout)
    assert set(payload) == {"G", "grad", "g"}
    assert abs(payload["G"] - (1.0 / (4 * PI * 0.25) + payload["g"])) < 1e-12
    assert len(payload["grad"]) == 3


def test_local_partition_fields():
    r = run_cli("local", "--dim", "2", "--mass", "20", "--partition")
    payload = json.loads(r.stdout)
    assert payload["partition"]["n"] == 4
    assert payload["partition"]["per_mass"] == pytest.approx(5.0)


def test_local_partition_fields_3d():
    r = run_cli("local", "--dim", "3", "--mass", "40", "--partition", "--splitting")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["e3d_ball"]["total"] == pytest.approx(128.5788, abs=1e-4)
    assert payload["partition"]["n"] == 3
    assert payload["partition"]["per_mass"] == pytest.approx(40.0 / 3, rel=1e-15)
    assert payload["partition"]["envelope_value"] == pytest.approx(116.1985, abs=1e-4)
    assert list(payload) == ["e3d_ball", "splitting_threshold", "partition"]


def test_local_concavity_near_zero_at_2pi():
    r = run_cli("local", "--dim", "3", "--mass", "6.2831853", "--concavity")
    payload = json.loads(r.stdout)
    assert abs(payload["concavity_coefficient"]) < 1e-6


def test_local_rejects_nonpositive_mass():
    r = run_cli("local", "--dim", "2", "--mass", "-1")
    assert r.returncode == 1
    assert r.stderr == "error: masses must be positive and finite, got -1.0\n"  # the library's rule
    for dim, mass in (("2", "nan"), ("2", "1e400"), ("3", "inf")):  # 1e400 parses as inf
        r = run_cli("local", "--dim", dim, "--mass", mass, "--partition", "--concavity")
        assert r.returncode == 1
        assert "Traceback" not in r.stderr


def test_results_outside_the_float_range_are_usage_errors(tmp_path):
    huge = write_config(tmp_path, "huge.json", {"dim": 3, "particles": [
        {"mass": 1e300, "position": [0.1, 0.2, 0.3]},
        {"mass": 1.0, "position": [0.6, 0.6, 0.6]}]})
    runs = [run_cli("local", "--dim", "3", "--mass", "1e200"),  # r**5 overflows
            run_cli("local", "--dim", "2", "--mass", "1e300"),  # e2d is inf
            run_cli("energy", "--config", huge),
            run_cli("green", "--dim", "3", "--x", "0.1,0.2,0.3",
                    env_extra={"OKLIM_EWALD_ALPHA": "inf"})]
    for r in runs:
        assert r.returncode == 1
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1
        assert "Traceback" not in r.stderr


def test_green_rejects_non_finite_coordinates():
    for dim, x in (("2", "inf,0.1"), ("3", "0.1,nan,0.2")):
        r = run_cli("green", "--dim", dim, "--x", x, "--grad", "--regular")
        assert r.returncode == 1
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1
        assert "finite coordinates" in r.stderr and "Traceback" not in r.stderr


def test_expand_richardson_rejects_repeated_scales(tmp_path):
    cfg = write_config(tmp_path, "two.json", TWO_BALLS_3D)
    r = run_cli("expand", "--config", cfg, "--etas", "0.02,0.02", "--richardson")
    assert r.returncode == 1
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert "distinct" in r.stderr and "Traceback" not in r.stderr


def test_usage_error_exit_code():
    r = run_cli("green", "--dim", "5", "--x", "0,0")
    assert r.returncode == 1


def test_energy_limit_and_sharp_rows(tmp_path, params):
    cfg = write_config(tmp_path, "two.json", TWO_BALLS_3D)
    r = run_cli("energy", "--config", cfg)
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("# manifest:")
    header = lines[1].split(",")
    assert header[:3] == ["kind", "eta", "gamma"]
    kinds = [ln.split(",")[0] for ln in lines[2:]]
    assert kinds == ["E0", "F0"]

    r2 = run_cli("energy", "--config", cfg, "--eta", "0.02")
    rows = r2.stdout.splitlines()[2:]
    assert rows[0].split(",")[0] == "sharp"
    total = float(rows[0].split(",")[7])
    assert abs(total - 9.9682379324373098) < 1e-10


def test_energy_rejects_coincident_points(tmp_path):
    cfg = write_config(tmp_path, "bad.json", {"dim": 3, "particles": [
        {"mass": 1.0, "position": [0.1, 0.1, 0.1]},
        {"mass": 1.0, "position": [0.1, 0.1, 0.1]}]})
    r = run_cli("energy", "--config", cfg)
    assert r.returncode == 3


def test_energy_schema_violations_are_pointered(tmp_path):
    cfg = write_config(tmp_path, "bad.json", {"dim": 4, "particles": [
        {"mass": -1.0, "position": [0.1, 0.1]}]})
    r = run_cli("energy", "--config", cfg)
    assert r.returncode == 1
    assert "/dim" in r.stderr
    assert "/particles/0/mass" in r.stderr
    # JSON integers beyond the float range are no finite numbers, each reported at its pointer
    huge = 10**400
    code, out, err = _run_on_config({"dim": 2, "eta": huge, "particles": [
        {"mass": huge, "position": [0.1, 0.2]}, {"mass": 1, "position": [0.5, -huge]}]},
        ["energy"])
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "schema violation at /particles/0/mass: must be a positive finite number",
        "schema violation at /particles/1/position: must be an array of 2 finite numbers",
        "schema violation at /eta: must be a number in (0, 0.25]"]


def test_energy_unequal_masses_2d_admissibility_exit(tmp_path):
    cfg = write_config(tmp_path, "uneq.json", {"dim": 2, "particles": [
        {"mass": 1.0, "position": [0.1, 0.1]},
        {"mass": 2.0, "position": [0.6, 0.6]}]})
    r = run_cli("energy", "--config", cfg)
    assert r.returncode == 4


def test_expand_sweep_with_richardson(tmp_path):
    cfg = write_config(tmp_path, "two.json", TWO_BALLS_3D)
    r = run_cli("expand", "--config", cfg, "--etas", "0.04,0.02,0.01", "--richardson")
    assert r.returncode == 0
    rows = {ln.split(",")[0]: ln.split(",") for ln in r.stdout.splitlines()[2:]}
    gap = float(rows["relative_gap"][4])
    assert gap < 1e-3


@pytest.mark.parametrize("args, tables", [
    (["energy"], 1),  # the configuration's table serves F0
    (["energy", "--eta", "0.02"], 2),  # and the ball configuration's the sharp energy
    (["expand", "--etas", "0.04,0.02,0.01", "--richardson"], 4),  # one per eta, F0 none
])
def test_each_configuration_builds_its_pair_table_once(tmp_path, monkeypatch, args, tables):
    cfg = write_config(tmp_path, "two.json", TWO_BALLS_3D)
    built = []
    pairs = limits._pairs
    monkeypatch.setattr(limits, "_pairs", lambda positions: built.append(1) or pairs(positions))
    command, *rest = args
    assert cli.main([command, "--config", cfg, *rest, "--out", str(tmp_path / "out.csv")]) == 0
    assert len(built) == tables


@pytest.mark.parametrize("richardson", [[], ["--richardson"]])
def test_expand_makes_one_pair_sum(tmp_path, monkeypatch, richardson):
    # F0's parts serve every eta and the limit_f0_ordered row
    cfg = write_config(tmp_path, "two.json", TWO_BALLS_3D)
    calls = []
    pair_sum = limits._pair_sum
    monkeypatch.setattr(limits, "_pair_sum", lambda *a, **k: calls.append(1) or pair_sum(*a, **k))
    assert cli.main(["expand", "--config", cfg, "--etas", "0.04,0.02,0.01", *richardson,
                     "--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == 1


def test_expand_richardson_in_2d(tmp_path):
    m = 2 ** (2.0 / 3.0) * PI  # an admissible equal pair
    cfg = write_config(tmp_path, "two2d.json", {"dim": 2, "particles": [
        {"mass": m, "position": [0.0, 0.0]}, {"mass": m, "position": [0.5, 0.5]}]})
    r = run_cli("expand", "--config", cfg, "--etas", "1e-2,1e-3,1e-4", "--richardson")
    assert r.returncode == 0
    value = {row[0]: row[4] for row in (ln.split(",") for ln in r.stdout.splitlines()[2:])}
    f0 = float(value["limit_f0_ordered"])
    assert abs(float(value["richardson_f0_eta2"]) - f0) <= 1e-12 * abs(f0)


def test_expand_eta2_fit_rows_follow_the_existing_rows(tmp_path, params):
    cfg = write_config(tmp_path, "two.json", TWO_BALLS_3D)
    r = run_cli("expand", "--config", cfg, "--etas", "0.04,0.02,0.01", "--richardson")
    assert r.returncode == 0
    rows = [ln.split(",") for ln in r.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == ["sweep"] * 3 + [
        "richardson_f0", "richardson_slope", "limit_f0_ordered", "relative_gap",
        "richardson_f0_eta2", "richardson_slope_eta2"]
    # F_eta - F0 is exactly c eta^2 for balls, so the eta^2 fit reproduces F0
    f0 = limits.f0_energy(limits.PointConfiguration(
        3, [(p["mass"], p["position"]) for p in TWO_BALLS_3D["particles"]]),
        params, "ordered").total
    assert abs(float(rows[7][4]) - f0) <= 1e-10 * abs(f0)


def test_expand_empty_etas_usage_error(tmp_path):
    cfg = write_config(tmp_path, "two.json", TWO_BALLS_3D)
    r = run_cli("expand", "--config", cfg, "--etas", "")
    assert r.returncode == 1


def test_expand_inadmissible_2d_exit_4(tmp_path):
    cfg = write_config(tmp_path, "uneq2.json", {"dim": 2, "particles": [
        {"mass": 1.0, "position": [0.1, 0.1]},
        {"mass": 2.0, "position": [0.6, 0.6]}]})
    r = run_cli("expand", "--config", cfg, "--etas", "0.01")
    assert r.returncode == 4
    assert "admissible" in r.stderr


def test_place_deterministic_modulo_wall_time(tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["place", "--dim", "2", "--n", "2", "--mass", "1", "--restarts", "5",
            "--seed", "7"]
    assert run_cli(*args, "--out", out1).returncode == 0
    assert run_cli(*args, "--out", out2).returncode == 0
    p1 = json.loads(open(out1).read())
    p2 = json.loads(open(out2).read())
    del p1["manifest"]["wall_time_s"], p2["manifest"]["wall_time_s"]
    assert p1 == p2
    assert p1["converged"] is True
    assert p1["evaluations"] >= p1["iterations"]
    # the appended key follows the keys it was added after, in their order
    assert list(p1) == ["converged", "energy", "grad_norm", "iterations", "restarts_used",
                        "evaluations", "pairwise_distances", "min_hessian_eigenvalue",
                        "config", "manifest"]
    assert p1["min_hessian_eigenvalue"] > 0.0


def test_place_from_config_needs_a_config():
    r = run_cli("place", "--n", "2", "--mass", "1", "--from-config")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == "error: --from-config needs --config\n"


def test_place_lattice_compare_skips_incommensurate(tmp_path):
    r = run_cli("place", "--dim", "2", "--n", "3", "--mass", "1", "--restarts", "2",
                "--seed", "1", "--lattice-compare")
    payload = json.loads(r.stdout)
    [square] = payload["lattice_candidates"]  # the square lattice is the only candidate
    assert square["lattice"] == "square" and "skipped" in square


def test_place_lattice_compare_skips_unequal_masses(tmp_path):
    # the lattice holds n equal masses; masses[0] alone would report four unit masses
    cfg = write_config(tmp_path, "mixed.json", {"dim": 2, "particles": [
        {"mass": m, "position": [0.1 + 0.5 * (i % 2), 0.2 + 0.5 * (i // 2)]}
        for i, m in enumerate([1.0, 3.0, 1.0, 3.0])]})
    r = run_cli("place", "--config", cfg, "--restarts", "1", "--seed", "1", "--lattice-compare")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert [set(c) for c in payload["lattice_candidates"]] == [{"lattice", "skipped"}]
    assert all("not all equal" in c["skipped"] for c in payload["lattice_candidates"])


def test_ewald_alpha_env_override(params):
    r = run_cli("green", "--dim", "3", "--x", "0.31,0.4,0.27",
                env_extra={"OKLIM_EWALD_ALPHA": "2.5"})
    val = json.loads(r.stdout)
    expect = green.green_eval(3, (0.31, 0.4, 0.27), green.EwaldParameters.for_alpha(2.5))
    assert val == expect
    # and the choice of alpha does not change the value
    assert abs(val - green.green_eval(3, (0.31, 0.4, 0.27), params)) < 1e-12


def test_energy_eta_uses_the_cli_ewald_parameters(tmp_path):
    cfg = write_config(tmp_path, "two.json", TWO_BALLS_3D)
    runs = [run_cli("energy", "--config", cfg, "--eta", "0.02", env_extra=env)
            for env in (None, {"OKLIM_EWALD_ALPHA": "3.0"})]
    manifests = [json.loads(r.stdout.splitlines()[0][len("# manifest:"):]) for r in runs]
    totals = [float(r.stdout.splitlines()[2].split(",")[7]) for r in runs]
    assert manifests[1]["ewald"]["alpha"] == 3.0
    assert manifests[1]["ewald"] != manifests[0]["ewald"]
    assert abs(totals[1] - totals[0]) <= 1e-12 * abs(totals[0])


def test_energy_eta_reports_a_broken_tail_contract_as_usage_error(tmp_path):
    # alpha = 0.05 hits the real_cutoff cap, and its real tail breaks the contract
    # (a 3D config: the 2D theta form uses no Ewald parameters)
    cfg = write_config(tmp_path, "two3d.json", {"dim": 3, "particles": [
        {"mass": 1.0, "position": [0.1, 0.1, 0.1]}, {"mass": 0.7, "position": [0.6, 0.6, 0.6]}]})
    r = run_cli("energy", "--config", cfg, "--eta", "0.05",
                env_extra={"OKLIM_EWALD_ALPHA": "0.05"})
    assert r.returncode == 1
    assert "certified tail" in r.stderr and "Traceback" not in r.stderr


def test_energy_inline_eta(tmp_path):
    payload = dict(TWO_BALLS_3D)
    payload["eta"] = 0.02
    cfg = write_config(tmp_path, "inline.json", payload)
    r = run_cli("energy", "--config", cfg)
    rows = r.stdout.splitlines()[2:]
    assert rows[0].split(",")[0] == "sharp"
    assert float(rows[0].split(",")[1]) == 0.02


@pytest.mark.parametrize("inline", [False, True])
def test_energy_rejects_the_halved_convention_with_an_eta(tmp_path, inline):
    # the finite-scale energy sums ordered pairs: halved would print the ordered row
    payload = dict(TWO_BALLS_3D, **({"eta": 0.02} if inline else {}))
    cfg = write_config(tmp_path, "two.json", payload)
    argv = ["energy", "--config", cfg, "--pair-convention", "halved"]
    code, out, err = _run_main(argv if inline else [*argv, "--eta", "0.02"])
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: --pair-convention halved does not apply with an eta"]
    assert _run_main(argv[:3] if inline else argv)[0] == 0  # either one alone runs


@pytest.mark.parametrize("flag, value", [("--n", "5"), ("--mass", "3"), ("--dim", "3"),
                                         ("--dim", "2")])
def test_place_rejects_the_count_mass_and_dim_with_a_config(tmp_path, flag, value):
    # the file gives the masses and the dimension: these flags were silently ignored
    cfg = write_config(tmp_path, "two.json", {"dim": 2, "particles": [
        {"mass": 1.0, "position": [0.1, 0.1]}, {"mass": 1.0, "position": [0.6, 0.6]}]})
    code, out, err = _run_main(["place", "--config", cfg, flag, value, "--restarts", "1"])
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {flag} does not apply with --config"]


def test_place_masses_from_config(tmp_path):
    cfg = write_config(tmp_path, "pts.json", {"dim": 2, "particles": [
        {"mass": 1.0, "position": [0.1, 0.1]},
        {"mass": 1.0, "position": [0.6, 0.6]}]})
    r = run_cli("place", "--config", cfg, "--from-config", "--restarts", "1",
                "--seed", "0")
    payload = json.loads(r.stdout)
    assert payload["converged"] is True
    assert len(payload["config"]["particles"]) == 2


def test_place_manifest_records_unequal_masses(tmp_path):
    cfg = write_config(tmp_path, "uneq.json", {"dim": 2, "particles": [
        {"mass": 1.0, "position": [0.1, 0.1]},
        {"mass": 0.6, "position": [0.6, 0.6]}]})
    r = run_cli("place", "--config", cfg, "--restarts", "1", "--seed", "0")
    assert r.returncode == 0
    params = json.loads(r.stdout)["manifest"]["parameters"]
    assert params["masses"] == [1.0, 0.6]
    assert params["mass"] is None
    r = run_cli("place", "--dim", "2", "--n", "2", "--mass", "1.5", "--restarts", "1")
    params = json.loads(r.stdout)["manifest"]["parameters"]
    assert params["masses"] == [1.5, 1.5]
    assert params["mass"] == 1.5


def test_place_without_starts_is_a_usage_error():
    for restarts in ("-1", "0"):  # n = 3 is no square, so 0 restarts leaves no start
        r = run_cli("place", "--dim", "2", "--n", "3", "--mass", "1", "--restarts", restarts)
        assert r.returncode == 1
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1
        assert "Traceback" not in r.stderr


def test_place_with_a_negative_seed_is_one_line():
    r = run_cli("place", "--dim", "2", "--n", "3", "--mass", "1", "--seed", "-1")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == "error: seed must be non-negative, got -1\n"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_place_with_fewer_than_two_particles_is_one_line(n):
    r = run_cli("place", "--n", n, "--mass", "1")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == "error: placement needs at least two particles\n"


def test_place_with_a_count_beyond_the_index_range_names_n():
    n = 10**30
    r = run_cli("place", "--n", str(n), "--mass", "1", "--restarts", "1")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == f"error: --n is a particle count of at most {sys.maxsize}, got {n}\n"


@pytest.mark.parametrize("args, message", [
    (["--n", "3", "--mass", "inf"], "error: masses must be positive and finite, got inf\n"),
    # the descent runs on masses of mean about 1, and its energy overflows to -inf only when
    # scaled back by 2^(2k): no RuntimeWarning lines
    (["--dim", "3", "--n", "8", "--mass", "1e200"],
     "error: result -inf is outside the float range\n"),
], ids=["inf-mass", "nan-gradient"])
def test_place_on_non_finite_values_is_one_line(args, message):
    r = run_cli("place", *args, "--restarts", "1")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == message


@pytest.mark.parametrize("particle", [
    {"mass": 1.0, "position": [float("nan"), 0.5]},
    {"mass": 1.0, "position": [0.5, float("-inf")]},
    {"mass": float("inf"), "position": [0.5, 0.5]},
    {"mass": 10**400, "position": [0.5, 0.5]},  # json.load reads integers of any size
    {"mass": 1.0, "position": [0.5, -10**400]},
])
def test_energy_rejects_non_finite_config_values(tmp_path, particle):
    # json.dumps writes NaN/Infinity literals, which json.load reads back as floats
    cfg = write_config(tmp_path, "nonfinite.json", {"dim": 2, "particles": [
        {"mass": 1.0, "position": [0.1, 0.1]}, particle]})
    r = run_cli("energy", "--config", cfg)
    assert r.returncode == 1
    assert r.stdout == ""
    assert "/particles/1/" in r.stderr
    assert "nan" not in r.stdout.lower()


def test_csv_numbers_carry_full_precision(tmp_path):
    cfg = write_config(tmp_path, "two.json", TWO_BALLS_3D)
    r = run_cli("energy", "--config", cfg)
    f0_row = [ln for ln in r.stdout.splitlines() if ln.startswith("F0")][0]
    total = f0_row.split(",")[7]
    digits = re.sub(r"[-.e+]", "", total)
    assert len(digits) >= 15


def test_local_partition_of_a_huge_mass():
    # the envelope compares two counts: no array of ~M entries is built
    r = run_cli("local", "--dim", "2", "--mass", "1e12", "--partition")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    part = payload["partition"]
    assert part["n"] > 1e11
    assert all(math.isfinite(v) for v in (payload["e2d"], part["per_mass"],
                                          part["envelope_value"]))


def test_manifest_names_the_green_method(tmp_path):
    cfg3 = write_config(tmp_path, "two3d.json", TWO_BALLS_3D)
    cfg2 = write_config(tmp_path, "two2d.json", {"dim": 2, "particles": [
        {"mass": 1.0, "position": [0.1, 0.1]}, {"mass": 1.0, "position": [0.6, 0.6]}]})
    m3, m2 = (json.loads(run_cli("energy", "--config", c).stdout.splitlines()[0]
                         [len("# manifest:"):]) for c in (cfg3, cfg2))
    assert m3["green_method"] == "ewald" and m3["ewald"]["alpha"] > 0
    assert m2["green_method"] == "theta" and m2["ewald"] is None
    assert list(m2)[-1] == "green_method"  # appended after the existing keys
    r = run_cli("place", "--dim", "2", "--n", "2", "--mass", "1", "--restarts", "1")
    assert json.loads(r.stdout)["manifest"]["green_method"] == "theta"


def _reject_non_finite(name):
    raise ValueError(f"non-finite JSON number {name}")


@st.composite
def energy_inputs(draw):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4))
    masses = draw(st.lists(st.floats(math.log(1e-3), math.log(1e3)).map(math.exp),
                           min_size=n, max_size=n))
    coords = draw(st.lists(st.floats(0.0, 1.0), min_size=n * dim, max_size=n * dim))
    eta = math.exp(draw(st.floats(math.log(1e-300), math.log(0.25))))
    particles = [{"mass": m, "position": coords[i * dim:(i + 1) * dim]}
                 for i, m in enumerate(masses)]
    return {"dim": dim, "particles": particles}, eta


_TWO_DISCS = {"dim": 2, "particles": [{"mass": 1.0, "position": [0.1, 0.1]},
                                      {"mass": 0.7, "position": [0.6, 0.6]}]}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(energy_inputs())
@example((_TWO_DISCS, 1e-120))  # eta**3 underflows: gamma_for divided by zero
def test_energy_exits_cleanly_on_generated_configs(case):
    payload, eta = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["energy", "--config", path, "--eta", repr(eta)])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    lines = out.getvalue().splitlines()
    if code != 0:
        assert lines == []
        return
    assert lines[0].startswith("# manifest:")
    json.loads(lines[0][len("# manifest:"):], parse_constant=_reject_non_finite)
    for line in lines[2:]:
        for cell in line.split(",")[1:]:
            assert cell == "" or math.isfinite(float(cell))


def _run_main(argv, alpha=None):
    """cli.main in-process with OKLIM_EWALD_ALPHA set to ``alpha`` (None: unset)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("OKLIM_EWALD_ALPHA", None)
        if alpha is not None:
            os.environ["OKLIM_EWALD_ALPHA"] = alpha
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_clean_json_exit(code, out, err):
    """Exit code 0-4, no traceback, and stdout empty or JSON with only finite numbers."""
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
        assert len(err.splitlines()) == 1
        return
    stack = [json.loads(out, parse_constant=_reject_non_finite)]
    while stack:
        v = stack.pop()
        if isinstance(v, dict):
            stack.extend(v.values())
        elif isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, float):
            assert math.isfinite(v)


@pytest.mark.parametrize("alpha", ["0.05", "50"])
def test_green_rejects_an_ewald_alpha_out_of_bounds(alpha):
    # 0.05 hits the real_cutoff cap; 50 lies above the range: an octant of 88^3 k entries
    builds = green._structure_weights.cache_info().misses
    code, out, err = _run_main(["green", "--dim", "3", "--x", "0.1,0.2,0.3"], alpha)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert ("certified tail" in err) == (alpha == "0.05")
    assert green._structure_weights.cache_info().misses == builds  # rejected before any table


def _coordinate():
    # anywhere on a few cells, or on or 1e-12 off a lattice coordinate
    near_lattice = st.integers(-2, 2).flatmap(
        lambda k: st.sampled_from([float(k), k + 1e-12, k - 1e-12]))
    return st.one_of(st.floats(-2.0, 2.0), near_lattice)


_ALPHA_ENV = st.one_of(
    st.none(),
    st.floats(math.log(0.05), math.log(20.0)).map(lambda t: repr(math.exp(t))),
    st.sampled_from(["nan", "-1", "inf", "abc"]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]).flatmap(lambda d: st.lists(_coordinate(), min_size=d, max_size=d)),
       st.sets(st.sampled_from(["--grad", "--regular"])), _ALPHA_ENV)
def test_green_exits_cleanly_on_generated_inputs(x, flags, alpha):
    argv = ["green", "--dim", str(len(x)), "--x=" + ",".join(map(repr, x)), *sorted(flags)]
    _assert_clean_json_exit(*_run_main(argv, alpha))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["2", "3"]),
       st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),
       st.sets(st.sampled_from(["--partition", "--concavity", "--splitting"])))
def test_local_exits_cleanly_on_generated_inputs(dim, mass, flags):
    argv = ["local", "--dim", dim, "--mass=" + repr(mass), *sorted(flags)]
    _assert_clean_json_exit(*_run_main(argv))


def test_unmapped_library_errors_exit_1():
    class FutureError(OklimError):
        pass

    with mock.patch.object(cli, "cmd_green", side_effect=FutureError("a new failure")):
        code, out, err = _run_main(["green", "--dim", "2", "--x", "0.1,0.2"])
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: a new failure"]


# --threshold, once an alias of --splitting, is no flag at all now: argparse rejects it
@pytest.mark.parametrize("dim, flag", [("2", "--concavity"), ("2", "--splitting"),
                                       ("2", "--threshold"), ("3", "--threshold")])
def test_local_rejects_flags_of_the_other_dimension(dim, flag):
    code, out, err = _run_main(["local", "--dim", dim, "--mass", "1", flag])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and flag in err


@pytest.mark.parametrize("alpha", ["-1", "1e-300", "abc"])
def test_ewald_alpha_is_checked_before_the_cutoff_search(alpha):
    with mock.patch.object(green.EwaldParameters, "for_alpha",
                           side_effect=AssertionError("cutoff search ran")):
        code, out, err = _run_main(["green", "--dim", "3", "--x", "0.1,0.2,0.3"], alpha)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "OKLIM_EWALD_ALPHA" in err


def test_for_alpha_rejects_a_bad_alpha_before_the_cutoff_search():
    with mock.patch.object(green, "_real_tail_bound", side_effect=AssertionError("searched")):
        for alpha in (-1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                green.EwaldParameters.for_alpha(alpha)


def test_energy_manifest_names_the_parameters_that_ran(tmp_path):
    rng = np.random.default_rng(5)
    masses = rng.uniform(0.5, 1.5, 30)
    cfg = write_config(tmp_path, "thirty.json", {"dim": 3, "particles": [
        {"mass": float(m), "position": [float(v) for v in rng.random(3)]} for m in masses]})
    for env, alpha in ((None, 5.5), ({"OKLIM_EWALD_ALPHA": "2.0"}, 2.0)):
        r = run_cli("energy", "--config", cfg, env_extra=env)
        manifest = json.loads(r.stdout.splitlines()[0][len("# manifest:"):])
        params = green.EwaldParameters.for_alpha(alpha)
        assert manifest["ewald"] == {"alpha": alpha, "real_cutoff": params.real_cutoff,
                                     "fourier_cutoff": params.fourier_cutoff}
        f0_row = r.stdout.splitlines()[3].split(",")
        assert f0_row[0] == "F0"
        tail = green.truncation_bound(3, params) * float(np.sum(masses)) ** 2
        assert float(f0_row[8]) == pytest.approx(tail, rel=1e-15)


def _assert_clean_csv_exit(code, out, err):
    """Exit code 0-4, no traceback, and stdout empty or a manifest and CSV of finite numbers."""
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
    lines = out.splitlines()
    if code != 0:
        assert lines == [] and len(err.splitlines()) == 1
        return
    assert lines[0].startswith("# manifest:")
    json.loads(lines[0][len("# manifest:"):], parse_constant=_reject_non_finite)
    for line in lines[2:]:
        for cell in line.split(",")[1:]:
            assert cell == "" or math.isfinite(float(cell))


@st.composite
def point_configs(draw, max_n):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, max_n))
    equal = draw(st.booleans())
    masses = draw(st.lists(st.floats(math.log(1e-2), math.log(1e2)).map(math.exp),
                           min_size=1 if equal else n, max_size=1 if equal else n))
    coords = draw(st.lists(st.floats(0.0, 1.0), min_size=n * dim, max_size=n * dim))
    return {"dim": dim, "particles": [
        {"mass": masses[0 if equal else i], "position": coords[i * dim:(i + 1) * dim]}
        for i in range(n)]}


def _run_on_config(payload, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return _run_main([argv[0], "--config", path, *argv[1:]])


_ETA = st.floats(math.log(1e-6), math.log(0.3)).map(math.exp)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(point_configs(4), st.lists(_ETA, min_size=1, max_size=3), st.booleans())
def test_expand_exits_cleanly_on_generated_configs(payload, etas, richardson):
    argv = ["expand", "--etas", ",".join(map(repr, etas))]
    if richardson:
        argv.append("--richardson")
    _assert_clean_csv_exit(*_run_on_config(payload, argv))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(point_configs(4), st.integers(-1, 2), st.integers(0, 3),
       st.sets(st.sampled_from(["--from-config", "--lattice-compare"])))
def test_place_exits_cleanly_on_generated_inputs(payload, restarts, seed, flags):
    argv = ["place", "--restarts", str(restarts), "--seed", str(seed), "--tol", "1e-6",
            *sorted(flags)]
    _assert_clean_json_exit(*_run_on_config(payload, argv))


def test_position_without_a_valid_dim_names_no_coordinate_count():
    code, out, err = _run_on_config(
        {"particles": [{"mass": 1, "position": [0.1, "a"]}]}, ["energy"])
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "schema violation at /dim: must be 2 or 3",
        "schema violation at /particles/0/position: must be an array of finite numbers"]
    code, _, err = _run_on_config(
        {"dim": 2, "particles": [{"mass": 1, "position": [0.1, "a"]}]}, ["energy"])
    assert code == 1
    assert err.splitlines() == [
        "schema violation at /particles/0/position: must be an array of 2 finite numbers"]


@pytest.mark.parametrize("argv", [["place", "--restarts", "1"], ["energy"]])
@pytest.mark.parametrize("dim", [2.0, 3.0, True])
def test_dim_must_be_an_integer(dim, argv):
    # 2.0 == 2 and true == 1 in Python, but neither is a dimension
    width = 3 if dim == 3 else 2
    payload = {"dim": dim, "particles": [{"mass": 1.0, "position": [0.1 * (i + 1)] * width}
                                         for i in range(2)]}
    code, out, err = _run_on_config(payload, argv)
    assert code == 1 and out == ""
    assert err.splitlines() == ["schema violation at /dim: must be 2 or 3"]


def _without_wall_time(text):
    return re.sub(r'"wall_time_s": [^,}\s]+', "", text)


def test_3d_energy_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at 250 points the structure factor's matrix products are large enough for BLAS
    # to split them between threads, if one product were run whole
    x = np.random.default_rng(5).random((250, 3))
    path = write_config(tmp_path, "points.json", {"dim": 3, "particles": [
        {"mass": 1.0, "position": p.tolist()} for p in x]})
    runs = [run_cli("energy", "--config", path, env_extra={"OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")]
    assert [r.returncode for r in runs] == [0, 0]
    assert _without_wall_time(runs[0].stdout) == _without_wall_time(runs[1].stdout)


EQUAL_2D = {"dim": 2, "particles": [{"mass": 1.0, "position": [0.1, 0.2]},
                                    {"mass": 1.0, "position": [0.6, 0.5]},
                                    {"mass": 1.0, "position": [0.3, 0.8]}]}


@pytest.mark.parametrize("sequence, codes", [
    ([["energy", "{2d}", "--eta", "0.01"], ["energy", "{2d}"]], [0, 0]),
    ([["green", "--dim", "4", "--x", "0.1"], ["green", "--dim", "2", "--x", "0.3,0.4", "--grad"]],
     [1, 0]),
    ([["place", "--n", "4", "--mass", "1", "--restarts", "1", "--lattice-compare"],
      ["energy", "{3d}"]], [0, 0]),
])
def test_calls_in_one_process_match_fresh_processes(tmp_path, sequence, codes):
    # nothing one call leaves in the process reaches the next
    paths = {"{2d}": write_config(tmp_path, "two_d.json", EQUAL_2D),
             "{3d}": write_config(tmp_path, "three_d.json", TWO_BALLS_3D)}
    for argv, expect in zip(sequence, codes):
        argv = [paths.get(a, a) for a in argv]
        if argv[0] == "energy":
            argv[1:1] = ["--config"]
        assert _in_process_as_fresh(argv)[0] == expect


def _in_process_as_fresh(argv, out=None):
    """cli.main on ``argv`` in this process, checked against a fresh process on it.

    The exit codes, stderr and text (stdout, or the file written to ``out`` through
    --out) must agree apart from the wall time; returns the in-process code and text.
    """
    if out:
        argv = [*argv, "--out", out]
    fresh = run_cli(*argv)
    fresh_text = fresh.stdout + (_pop_text(out) if out and fresh.returncode == 0 else "")
    code, text, err = _run_main(argv)
    text += _pop_text(out) if out and code == 0 else ""
    assert (code, err) == (fresh.returncode, fresh.stderr)
    assert _without_wall_time(text) == _without_wall_time(fresh_text)
    return code, text


def _pop_text(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    os.remove(path)
    return text


def test_one_parser_serves_every_call_in_a_process(tmp_path):
    # main builds its parser on the first call only, and what one call parsed
    # (a flag, an --out, a usage error) does not reach the next
    cfg = write_config(tmp_path, "two.json", TWO_BALLS_3D)
    place = ["place", "--n", "4", "--mass", "1", "--restarts", "1", "--seed", "1"]
    energy = ["energy", "--config", cfg]
    code, text = _in_process_as_fresh([*place, "--lattice-compare"])
    assert code == 0 and "lattice_candidates" in json.loads(text)
    code, text = _in_process_as_fresh(place)
    assert code == 0 and "lattice_candidates" not in json.loads(text)
    assert _in_process_as_fresh(["local", "--dim", "2", "--mass", "1", "--splitting"])[0] == 1
    code, text = _in_process_as_fresh([*energy, "--eta", "0.02"], out=str(tmp_path / "out.csv"))
    assert code == 0 and [ln.split(",")[0] for ln in text.splitlines()[2:]] == ["sharp"]
    code, text = _in_process_as_fresh(energy)
    assert code == 0 and [ln.split(",")[0] for ln in text.splitlines()[2:]] == ["E0", "F0"]
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ["energy", "{3d}"],
    ["energy", "{3d}", "--eta", "0.02"],
    ["expand", "{3d}", "--etas", "0.04,0.02,0.01", "--richardson"],
    ["place", "--n", "4", "--mass", "1", "--restarts", "2", "--seed", "1", "--lattice-compare"],
])
def test_out_file_holds_the_bytes_of_stdout(tmp_path, argv):
    # main is the one writer: --out only redirects the text a command returns
    cfg = write_config(tmp_path, "two.json", TWO_BALLS_3D)
    argv = [a for v in argv for a in (["--config", cfg] if v == "{3d}" else [v])]
    code, out, err = _run_main(argv)
    assert code == 0 and err == ""
    target = tmp_path / "out.txt"
    code, empty, err = _run_main([*argv, "--out", str(target)])
    assert code == 0 and empty == "" and err == ""
    written = target.read_bytes().decode("utf-8")
    assert _without_wall_time(written) == _without_wall_time(out)


def test_an_out_path_that_is_a_directory_exits_1(tmp_path):
    cfg = write_config(tmp_path, "two.json", TWO_BALLS_3D)
    code, out, err = _run_main(["energy", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [["place", "--n", "4", "--mass", "1", "--restarts", "1"],
                                  ["energy", "--config", "{3d}"]])
def test_running_out_of_memory_exits_1_with_one_line(tmp_path, argv):
    # numpy raises a MemoryError for an allocation the address space cannot hold,
    # such as the (n, n) mask of np.triu_indices at n = 100,000 under a 2 GB cap
    cfg = write_config(tmp_path, "two.json", TWO_BALLS_3D)
    argv = [cfg if a == "{3d}" else a for a in argv]
    with mock.patch.object(limits, "_pair_index",
                           side_effect=MemoryError("Unable to allocate 9.31 GiB")):
        code, out, err = _run_main(argv)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: out of memory: Unable to allocate 9.31 GiB"]


def test_masses_equal_to_the_rounding_get_the_lattice_start(tmp_path):
    # one equal-mass rule (limits.equal_masses) for 2D F0 and for place's lattice comparison
    cfg = write_config(tmp_path, "near.json", {"dim": 2, "particles": [
        {"mass": m, "position": [0.5 * (i // 2), 0.5 * (i % 2)]}
        for i, m in enumerate([1.0, 1.0, 1.0, 1.0 + 1e-15])]})
    assert _run_main(["energy", "--config", cfg])[0] == 0  # a 2D F0: equal masses
    code, out, err = _run_main(["place", "--config", cfg, "--restarts", "2", "--seed", "0",
                                "--lattice-compare"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["restarts_used"] == 2
    [square] = payload["lattice_candidates"]
    assert set(square) == {"lattice", "energy"}
    assert square["energy"] == optimize.lattice_candidate_energy(2, 4, 1.0)
