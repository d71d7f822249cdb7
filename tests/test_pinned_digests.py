"""Pinned trajectories: sha256 digests of exact output, as
``tests/bitwise_digest.py`` computes them (``sha256_of``: every trace row by
``oracles.row_bits``, every final block, and every file a run writes with the
wall-clock columns dropped), over a fast subset of its runs.  Beside them, the
kernels' own bits: BID's edge penalty and ``edge_grad(value=True)`` on the
small shapes that leave some direction's window empty or one pixel wide, the
image spectrum on even, odd and stacked inputs, convlasso's oracles and
proxes on an odd-by-odd image with one free filter of size 1 or 7, and NMF's
oracles at feasible, infeasible and degenerate points with the column
projection on its corner shapes, so a kernel rewrite that keeps the
trajectories' bits but not a corner shape's fails by name.

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
from bitwise_digest import criterion_8, criterion_9, sha256_of
from workloads import WORKLOADS, Context

from ipalm import bid, imageops
from ipalm.blockmodel import BlockVector
from ipalm.convlasso import make_convlasso_problem
from ipalm.nmf import make_nmf_problem
from ipalm.prox import prox_filter_constraint, prox_l0_nonneg_cols

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
    "criterion-8 100 sweeps": (
        20, "e48d7c95ac219af93fffeeb8375c80414bf8ae394ddb0e9a994909795c9d59c2"),
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
    "criterion-8 100 sweeps": lambda workdir: criterion_8(None, workdir, sweeps=100),
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

# (free filter size, oracle) -> sha256 of that oracle's output at the point
# of ``convlasso_oracles``; a 1x1 filter has no zero-mean unit-ball projection
CONVLASSO_PINS = {
    (1, "eval_H"): "f151abcc71411702f0cbe2dd538bd9b79852c0a88ef6bfb40426525741b7ca66",
    (1, "eval_F"): "26d4c7c4acec465c06b3755c53f89233dab68027955bd16246bd2ff0a7354098",
    (1, "grad 0"): "791b6784e97426645fb7e16e7ec9f8e4a0419d1143d6cbb119a5f6f1fd3a5365",
    (1, "grad 1"): "c286f36419995b5bf3d6edd65076b747911ebf6b8d1dbdf201dd3897fa5f37d2",
    (1, "prox 1"): "ca2806d44c7461d4f2161b6446e17b000d25e3938c0bfbbaaa02a994bdc0e8d2",
    (7, "eval_H"): "e3e6138902ddd8d19eb9ee00456db2b0241f62e236eebcf994a6cc74472bae16",
    (7, "eval_F"): "b04261fb15e212fd7b8e15e3f0ab02f6e0d45581a66b5ecc85d279a4cfe144a6",
    (7, "grad 0"): "f0e61a22ccde133b21c713ebd259ec1885e3331e89544ef190e793e43c4ce374",
    (7, "grad 1"): "9451320c751604d932d5b1d6c1d70ae270204dc041513b9e2c6fa2d1defeafd6",
    (7, "prox 0"): "59eff55d7815e90985d72b1d9dfc270b58bfb3919b1ce1097e44895069d4e943",
    (7, "prox 1"): "3f66aedab3fe4c674937d034756824250ececcd4bcb93258840645714e985161",
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


def convlasso_oracles(l):
    """Name -> call of each convlasso oracle on a 31x33 image with ``p=2``
    and an ``l``-by-``l`` free filter: the smooth part, the objective (at the
    point and with the filter zeroed, which is feasible for every ``l``),
    both blocks' gradients with their values, and both blocks' proxes."""
    rng = np.random.default_rng(l)
    f = rng.uniform(0, 1, (31, 33))
    problem = make_convlasso_problem(f, p=2, l=l, lam=0.05)
    d = rng.normal(size=(1, l, l))
    if l > 1:
        d = prox_filter_constraint(d)
    x = BlockVector([d, rng.normal(size=(1, 31, 33)) * 0.1])
    q0, q1 = rng.normal(size=(1, l, l)), rng.normal(size=(1, 31, 33)) * 0.1
    return {
        "eval_H": lambda: [problem.eval_H(x)],
        "eval_F": lambda: [problem.eval_F(x), problem.eval_F(x.with_block(0, np.zeros_like(d)))],
        "grad 0": lambda: problem.partial_grad(0, x, value=True),
        "grad 1": lambda: problem.partial_grad(1, x, value=True),
        "prox 0": lambda: [problem.prox(0, 3.0, q0)],
        "prox 1": lambda: [problem.prox(1, 3.0, q1)],
    }


@pinned_environment
@pytest.mark.parametrize("l, oracle", list(CONVLASSO_PINS), ids=lambda v: str(v))
def test_convlasso_oracle_is_bitwise_the_pinned_one(l, oracle):
    digest = _sha256(*convlasso_oracles(l)[oracle]())
    assert digest == CONVLASSO_PINS[l, oracle], f"convlasso's {oracle} at l={l} moved"


# oracle -> sha256 of that oracle's outputs at the points of ``nmf_oracles``
NMF_PINS = {
    "grad 0": "6bdea59e360126c72bfb8769e8f48a6524ae5abab9502c1086e094ac089a79b9",
    "grad 0 value": "ecb77791454598f6130e85ad3e409ae2e8a0f42910eeb48f365d2b00d0fecfd7",
    "grad 1": "5819ec679ef0b9d50f273825fb3094a5d41562f47cb943601ef6fa33edf2f40b",
    "grad 1 value": "8f77a6e49b6ae9a90a26994539f32dbb0ae79c79036e30c5371e88344ed25252",
    "eval_H": "c0dc17e95567fed88d63138d1228c4f6ffea31824e275bfc65eaf2836ec9c922",
    "eval_F feasible": "32377f7f8409881459eec1b9a313dd4d4e9ff75b81b79fb55e21222d5215ed34",
    "eval_F negative": "9402bb655bc3b7331a00f1219ef647565bbe517c74aa0e41026885785867d1cd",
    "eval_F nan": "74999fd28ab18ccca2bee199f260d19764603a3c78353d773d16d215eebe8e19",
    "eval_F column over s": "9402bb655bc3b7331a00f1219ef647565bbe517c74aa0e41026885785867d1cd",
    "lipschitz 0": "42e8d4ba5ce3daf4622c767a8ee991cbbcb661cca361076db24c1a6dc162e80c",
    "lipschitz 1": "2e1e9f7c0eccf6817c0c1429863c90c39e4d019f4c3f859bfded22ed25020c96",
}

# case -> sha256 of prox_l0_nonneg_cols on the inputs of ``l0_projection_cases``
L0_PINS = {
    "one column": "6ac1acb103773d0b932231e34eff65bac9d3d7b8307bf191169d480605deb558",
    "one row": "337c50c6b239794df0f4a5d6ffe36d779a220cee063b3ae0b24ae6165d082cba",
    "s = 0": "5d89f056865052bcb89c910d2d62872e029fb273c3db03f8968a52a41593c1b5",
    "s = m": "bf8f710cf7a4cb0320f17d3c80e5f153a1dea7df66e48be945ac6ce78cf35a36",
    "ties at the cutoff": "fddc9e875b1536cbb6ef755877ba6546b4c8c804265b6d63c11dba4437f4e33c",
    "signed zeros": "cd1f211a91dbd3b6a4e270e6ceaa3e2e02b3d7ae4d2a3e5910f0db9db52dd66c",
}


def nmf_oracles():
    """Name -> call of each NMF oracle on a 20x30 problem with ``r=3, s=2``:
    both blocks' gradients without and with their values, the smooth part,
    the objective at the point and with its zeros negated (both feasible),
    with a negative entry in C, with a NaN in place of a nonzero of B and
    with a column of B over ``s``, and both moduli at the point and with the
    other factor zero."""
    rng = np.random.default_rng(35)
    A = rng.uniform(0, 1, (20, 30))
    problem = make_nmf_problem(A, r=3, s=2)
    B = prox_l0_nonneg_cols(rng.uniform(0, 1, (20, 3)), 2)
    C = rng.uniform(0, 1, (3, 30))
    x = BlockVector([B, C])
    signed = np.where(B == 0, -0.0, B)
    negative = C.copy()
    negative[1, 2] = -0.5
    nan = B.copy()
    nan[np.flatnonzero(B[:, 0])[0], 0] = np.nan
    dense = B.copy()
    dense[:, 1] = 0.25
    return {
        "grad 0": lambda: [problem.partial_grad(0, x)],
        "grad 0 value": lambda: problem.partial_grad(0, x, value=True),
        "grad 1": lambda: [problem.partial_grad(1, x)],
        "grad 1 value": lambda: problem.partial_grad(1, x, value=True),
        "eval_H": lambda: [problem.eval_H(x)],
        "eval_F feasible": lambda: [problem.eval_F(x), problem.eval_F(x.with_block(0, signed))],
        "eval_F negative": lambda: [problem.eval_F(x.with_block(1, negative))],
        "eval_F nan": lambda: [problem.eval_F(x.with_block(0, nan))],
        "eval_F column over s": lambda: [problem.eval_F(x.with_block(0, dense))],
        "lipschitz 0": lambda: [problem.lipschitz(0, x),
                                problem.lipschitz(0, x.with_block(1, np.zeros_like(C)))],
        "lipschitz 1": lambda: [problem.lipschitz(1, x),
                                problem.lipschitz(1, x.with_block(0, np.zeros_like(B)))],
    }


def l0_projection_cases():
    """Case -> (input, sparsity levels) of the column projection: one column,
    one row, ``s = 0`` and ``s = m`` on a mixed-sign matrix, ties at the
    cutoff, and exact zeros of both signs."""
    rng = np.random.default_rng(36)
    mixed = rng.normal(size=(6, 4))
    # columns longer than 16 rows, where numpy's unstable sorts stop using
    # an insertion sort, so ties would come out in another order
    ties = rng.integers(-1, 3, size=(40, 3)).astype(np.float64)
    zeros = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0],
                      [-0.0, 1.0, -1.0], [-1.0, -0.0, 0.0]])
    return {
        "one column": (rng.normal(size=(6, 1)), range(7)),
        "one row": (rng.normal(size=(1, 5)), range(2)),
        "s = 0": (mixed, [0]),
        "s = m": (mixed, [6]),
        "ties at the cutoff": (ties, range(41)),
        "signed zeros": (zeros, range(6)),
    }


@pinned_environment
@pytest.mark.parametrize("oracle", list(NMF_PINS))
def test_nmf_oracle_is_bitwise_the_pinned_one(oracle):
    assert _sha256(*nmf_oracles()[oracle]()) == NMF_PINS[oracle], f"NMF's {oracle} moved"


@pinned_environment
@pytest.mark.parametrize("case", list(L0_PINS))
def test_l0_projection_is_bitwise_the_pinned_one(case):
    P, levels = l0_projection_cases()[case]
    digest = _sha256(*(prox_l0_nonneg_cols(P, s) for s in levels))
    assert digest == L0_PINS[case], f"the column projection on {case} moved"
