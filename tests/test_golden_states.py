"""Golden final-state digests: six short runs must reproduce their stored bits.

Each digest is the sha256 of the final state's seven component arrays
(rho, u_x, u_y, eta, T_xx, T_xy, T_yy) as contiguous float64 bytes, the
order the benchmark's output digest uses.  A change that claims to keep
the floating-point operation order must leave every digest unchanged; a
change that moves one must say so and regenerate the file:

    PYTHONPATH=src python tests/test_golden_states.py > tests/golden/state-digests.txt

The digests pin the bits of one numpy build on one CPU family: its log,
power and FFT kernels are free to round differently elsewhere.  No run
here calls scipy.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from oldroyd2d import cli, integrate

GOLDEN = Path(__file__).resolve().parent / "golden" / "state-digests.txt"

CONFIGS = {
    "rk2-alpha-16": (
        "nx = 16\nny = 16\nmuS = 0.05\neps = 0.05\nalpha = 0.1\n"
        "initial = perturbed-equilibrium\namp = 0.05\nt_end = 1.0\n"),
    "imex-sigma2-alpha-16": (
        "nx = 16\nny = 16\nmuS = 0.01\neps = 0.05\nalpha = 0.1\nsigma2 = 0.01\n"
        "scheme = imex\ninitial = shear-layer\namp = 0.05\nt_end = 1.0\n"),
    # IMEX with no density diffusion: rho takes no implicit solve
    "imex-alpha-16": (
        "nx = 16\nny = 16\nmuS = 0.05\neps = 0.05\nalpha = 0.1\nscheme = imex\n"
        "initial = perturbed-equilibrium\namp = 0.05\nt_end = 1.0\n"),
    "sigma1-sigma3-muB-delta-16": (
        "nx = 16\nny = 16\nmuS = 0.1\nmuB = 0.05\neps = 0.1\nalpha = 0.1\n"
        "sigma1 = 0.01\nsigma3 = 0.05\ndelta = 0.5\n"
        "initial = perturbed-equilibrium\namp = 0.05\nt_end = 0.5\n"),
    "equilibrium-fixed-dt-8": "nx = 8\nny = 8\ndt = 0.001\nt_end = 0.05\n",
    # mollified on a non-square grid: a 7 x 5 kernel (rx != ry), 29 steps
    "nonsquare-mollified-12x20": (
        "nx = 12\nny = 20\nlx = 1.0\nly = 3.0\ntheta = 0.2\nmuS = 0.1\neps = 0.1\n"
        "alpha = 0.1\ninitial = perturbed-equilibrium\namp = 0.05\nt_end = 0.2\n"),
}


def state_digest(state) -> str:
    h = hashlib.sha256()
    for arr in state.components():
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def final_digest(text: str) -> str:
    cfg = cli.parse_config(text)
    result = integrate.run(cli.build_initial(cfg), cfg.phys, cfg.reg, cfg.step)
    return state_digest(result.final)


def _golden() -> dict:
    return dict(line.split() for line in GOLDEN.read_text().splitlines())


def test_golden_file_names_every_config():
    assert list(_golden()) == list(CONFIGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_final_state_bits_match_golden(name):
    assert final_digest(CONFIGS[name]) == _golden()[name]


if __name__ == "__main__":
    for name, text in CONFIGS.items():
        print(name, final_digest(text))
