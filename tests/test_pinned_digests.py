"""Pinned trajectories: sha256 digests of exact output, as
``tests/bitwise_digest.py`` computes them (``sha256_of``: every trace row by
``oracles.row_bits``, every final block, and every file a run writes with the
wall-clock columns dropped), over a fast subset of its runs.

A change that moves a pinned trajectory on purpose re-pins the digests it
moved, with old -> new and the reason in CHANGES.md; a change that claims
bitwise re-pins none.  The bits depend on the numpy build and its BLAS, so the
pins hold only in the environment recorded beside them, and the test skips
under any other.
"""

import platform

import numpy as np
import pytest
from bitwise_digest import criterion_9, sha256_of
from workloads import WORKLOADS, Context

PINNED_IN = {"python": "3.11.7", "numpy": "2.4.6", "machine": "x86_64"}
ENVIRONMENT = {"python": platform.python_version(), "numpy": np.__version__,
               "machine": platform.machine()}

# name -> (number of solves, sha256)
PINS = {
    "nmf-desk 1000": (2, "ccd4c5b26758e4f5e683f15b07ef10fb9c296ea2f5ba29564ca34f5138214bf8"),
    "convlasso-bt 60": (2, "1c06122aa485accb9ae6f47f2527a75267945d7b64a948728e7db13959d60b5b"),
    "bid-bt 60": (1, "9515085c7724e3d04640bc12aee4a67f066ab1daf7b7d6400330334fc4f55768"),
    "bid-cli-exact 100": (1, "00baae179e33eba42f436560ca6c441790ab36ae8663c170b0284f9868f83b59"),
    "criterion-9 100 sweeps": (
        1, "09b2d7f92d4db7ed6be4b8c304c7703b703b49a159c7a33605bc6a7ead3c0913"),
}


def _first_instance(name):
    """The solves of the first instance of ``name``'s seed-1 bank."""
    w = WORKLOADS[name]

    def runs(workdir):
        for job in w.setup(w, Context(1, workdir), w.instance_seeds(1)[0]):
            job.solve()

    return runs


RUNS = {
    **{f"{name} {WORKLOADS[name].instance_seeds(1)[0]}": _first_instance(name)
       for name in WORKLOADS},
    "criterion-9 100 sweeps": lambda workdir: criterion_9(None, workdir, sweeps=100),
}


@pytest.mark.skipif(ENVIRONMENT != PINNED_IN,
                    reason=f"digests pinned under {PINNED_IN}, running under {ENVIRONMENT}")
@pytest.mark.parametrize("name", list(RUNS))
def test_output_is_bitwise_the_pinned_one(name):
    assert sha256_of(RUNS[name]) == PINS[name], f"the {name} digest moved"
