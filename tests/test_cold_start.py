"""What a fresh interpreter loads: numpy only, until a 3D or direct sum needs scipy.special.

Each check runs in its own interpreter, because pytest's warning filter for
scipy.integrate.IntegrationWarning imports scipy during test collection.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"


def _fresh_scipy_modules(code, cwd):
    """The scipy modules loaded after ``code`` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    r = subprocess.run([sys.executable, "-c", "import json, sys\n" + code + _LOADED],
                       capture_output=True, text=True, env=env, cwd=cwd, check=True)
    return json.loads(r.stdout.splitlines()[-1])


def test_import_and_configurations_load_no_scipy(tmp_path):
    code = ("import oklim\n"
            "oklim.PointConfiguration(2, [(1.0, (0.1, 0.2)), (1.0, (0.6, 0.7))])\n"
            "oklim.PointConfiguration(3, [(1.0, (0.1, 0.2, 0.3)), (1.0, (0.6, 0.7, 0.9))])\n"
            "oklim.BallConfiguration(2, 0.02, [(1.0, (0.1, 0.2)), (1.0, (0.6, 0.7))])\n")
    assert _fresh_scipy_modules(code, tmp_path) == []


def test_2d_commands_load_no_scipy(tmp_path):
    # mass 5: two equal 2D particles stay admissible, so expand has a limit to compare
    (tmp_path / "two.json").write_text(json.dumps({"dim": 2, "particles": [
        {"mass": 5.0, "position": [0.1, 0.2]}, {"mass": 5.0, "position": [0.6, 0.7]}]}))
    commands = [
        ["energy", "--config", "two.json"],
        ["energy", "--config", "two.json", "--eta", "0.02"],
        ["expand", "--config", "two.json", "--etas", "0.02,0.01"],
        ["place", "--n", "3", "--mass", "1", "--restarts", "1"],
        ["local", "--dim", "2", "--mass", "2", "--partition"],
        ["green", "--dim", "2", "--x", "0.3,0.4", "--grad", "--regular"],
    ]
    code = ("import contextlib, io\n"
            "from oklim import cli\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n")
    assert _fresh_scipy_modules(code, tmp_path) == []


def test_3d_green_and_2d_direct_sum_load_scipy_special(tmp_path):
    green_3d = "import oklim\noklim.green_eval(3, (0.1, 0.2, 0.3))\n"
    direct_2d = ("import oklim\n"
                 "cfg = oklim.BallConfiguration(2, 0.25, [(1.0, (0.1, 0.2)), (0.7, (0.6, 0.7))])\n"
                 "oklim.sharp_energy(cfg, fourier_cutoff=300, method='direct')\n")
    for code in (green_3d, direct_2d):
        assert "scipy.special" in _fresh_scipy_modules(code, tmp_path)
