"""Pinned trajectories: sha256 digests of exact output, as
``tests/bitwise_digest.py`` computes them (``sha256_of``: every trace row by
``oracles.row_bits``, every final block, and every file a run writes with the
wall-clock columns dropped), over a fast subset of its runs.  Beside them, the
kernels' own bits: BID's edge penalty and ``edge_grad(value=True)`` on the
small shapes that leave some direction's window empty or one pixel wide, and
the image spectrum on even, odd and stacked inputs, so a kernel rewrite that
keeps the trajectories' 64x64 bits but not a corner shape's fails by name.

A change that moves a pinned trajectory on purpose re-pins the digests it
moved, with old -> new and the reason in CHANGES.md; a change that claims
bitwise re-pins none.  The bits depend on the numpy build and its BLAS, so the
pins hold only in the environment recorded beside them, and the test skips
under any other.
"""

import hashlib
import platform

import numpy as np
import pytest
from bitwise_digest import criterion_9, sha256_of
from workloads import WORKLOADS, Context

from ipalm import bid, imageops

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


# image shape -> sha256 of edge_penalty(u), then edge_grad(u, value=True)'s
# gradient and value, on the uniform image of ``edge_image``
EDGE_PINS = {
    (1, 1): "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
    (1, 5): "cd916ed5e27b799ea68ac0ec5ea6e6ea1cb8dfd3cd4f68f02f1141b24394d6e4",
    (5, 1): "add9780f21de40ccf3f532582ff94b7e5de96e87adf81868d16762be73309e11",
    (2, 3): "3c44b50c6c5985f3a8f88012ce0995c074037b7ad9a4b2c04a55e8b3999d82f1",
    (3, 2): "cae11c3f257306f50c53e85a0c1154d1d40914952f9f7bc9ae31a6bf325e1bd2",
    (7, 7): "14b5332ba53e53b5df5e3eb3f9504697ca38bd7b5e77abcd2bc6bb30e297a365",
    (8, 8): "cd2646d891f4cc159b8fc9f370fab2f41d0c2e9319a1c2a1c797a109decffe71",
    (9, 12): "84382ed670afe5056ce3e3471d06712b88255e6129d23e5e6b1cae735a2944dd",
    (13, 6): "97baab37d83260b19faabe45fc568eacd86d2c40b9aeba2af10985d284e4df67",
}

# input shape -> sha256 of image_spectrum on the uniform input of that shape
SPECTRUM_PINS = {
    (64, 64): "71f8c2bfa4ab8c5b5ce291c715452a2313716a82edb99c4ff385b6d3478e7680",
    (63, 65): "925bf153f94a92da1512d4a5c8a3b3818f945958a1e73091f2f89717d8e12708",
    (7, 32, 32): "f4aa7a1ca69665c4602157b88a89c4c49e0b2634e39162f2c2e82a1bfc423ee2",
}

pinned_environment = pytest.mark.skipif(
    ENVIRONMENT != PINNED_IN,
    reason=f"digests pinned under {PINNED_IN}, running under {ENVIRONMENT}")


def _sha256(*values):
    h = hashlib.sha256()
    for v in values:
        h.update(np.asarray(v).tobytes())
    return h.hexdigest()


def edge_image(shape):
    # seeded as test_bid.py's valid-window test seeds its images
    return np.random.default_rng(shape[0] * 31 + shape[1]).uniform(0, 1, shape)


@pinned_environment
@pytest.mark.parametrize("name", list(RUNS))
def test_output_is_bitwise_the_pinned_one(name):
    assert sha256_of(RUNS[name]) == PINS[name], f"the {name} digest moved"


@pinned_environment
@pytest.mark.parametrize("shape", list(EDGE_PINS), ids=str)
def test_edge_term_is_bitwise_the_pinned_one(shape):
    u = edge_image(shape)
    digest = _sha256(bid.edge_penalty(u, 1e4), *bid.edge_grad(u, 1e4, value=True))
    assert digest == EDGE_PINS[shape], f"the {shape} edge term moved"


@pinned_environment
@pytest.mark.parametrize("shape", list(SPECTRUM_PINS), ids=str)
def test_image_spectrum_is_bitwise_the_pinned_one(shape):
    a = np.random.default_rng(sum(shape)).uniform(0, 1, shape)
    assert _sha256(imageops.image_spectrum(a)) == SPECTRUM_PINS[shape], \
        f"the {shape} image spectrum moved"
