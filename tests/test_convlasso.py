import numpy as np
import pytest
from oracles import (
    ContractError,
    convlasso_grads,
    convlasso_objective,
    convlasso_residual,
    filter_projection_ref,
    fourier_energy,
    trace_column,
)

from ipalm import DataError
from ipalm.blockmodel import BlockVector
from ipalm.config import RunConfig, block_kinds
from ipalm.imageops import write_pgm
from ipalm.convlasso import (
    assemble_stacks,
    dump_dictionary_pgm,
    dump_outputs,
    gaussian_filter,
    init_convlasso,
    make_convlasso_problem,
)
from ipalm.prox import prox_filter_constraint
from ipalm.solver import make_state, run, run_state
from ipalm.synthetic import synth_convlasso


def loop_objective(d, v, f, lam):
    """Direct per-pixel summation oracle (centered kernels, explicit loops)."""
    p, l, _ = d.shape
    m, n = f.shape
    c = l // 2
    resid = -f.astype(float).copy()
    for j in range(p):
        for i in range(m):
            for jj in range(n):
                acc = 0.0
                for k in range(l):
                    for t in range(l):
                        acc += d[j, k, t] * v[j, (i - (k - c)) % m, (jj - (t - c)) % n]
                resid[i, jj] += acc
    val = 0.0
    for j in range(p):
        val += lam * np.abs(v[j]).sum()
    return val + 0.5 * float((resid**2).sum())


def test_gaussian_filter_normalized():
    g = gaussian_filter(5)
    assert g.shape == (5, 5)
    assert g.sum() == pytest.approx(1.0)
    assert g[2, 2] == g.max()  # peak at the center
    with pytest.raises(ValueError):
        gaussian_filter(4)


def test_gaussian_filter_width_is_a_quarter_of_its_size():
    # the closed-form sampled Gaussian exp(-(i^2 + j^2) / (2 sigma^2)) with
    # sigma = l/4 and offsets from the centre, normalized to sum one
    for l in (1, 3, 5, 11):
        i, j = np.mgrid[:l, :l] - (l - 1) / 2
        ref = np.exp(-(i**2 + j**2) / (2 * (l / 4) ** 2))
        assert np.allclose(gaussian_filter(l), ref / ref.sum(), rtol=1e-14, atol=0)


def test_objective_single_fixed_pair_is_constant():
    rng = np.random.default_rng(91)
    f = rng.uniform(0, 1, (8, 8))
    g = gaussian_filter(3)
    d = g[None]
    v = f[None]
    val = convlasso_objective(d, v, f, lam=0.3, g=g)
    r = convlasso_residual(d, v, f)
    expect = 0.3 * float(np.abs(f).sum()) + 0.5 * float((r**2).sum())
    assert val == pytest.approx(expect, rel=1e-12)


def test_objective_all_free_coefficients_zero():
    rng = np.random.default_rng(92)
    f = rng.uniform(0, 1, (8, 8))
    g = gaussian_filter(3)
    d = np.stack([g, rng.standard_normal((3, 3))])
    v = np.stack([f, np.zeros_like(f)])
    from ipalm.imageops import centered_conv

    r = centered_conv(f, g) - f
    expect = 0.3 * float(np.abs(f).sum()) + 0.5 * float((r**2).sum())
    assert convlasso_objective(d, v, f, lam=0.3) == pytest.approx(expect, rel=1e-12)


def test_objective_matches_loop_oracle():
    rng = np.random.default_rng(93)
    f = rng.uniform(0, 1, (6, 6))
    g = gaussian_filter(3)
    d = np.stack([g, rng.standard_normal((3, 3)), rng.standard_normal((3, 3))])
    v = np.stack([f, rng.standard_normal((6, 6)), rng.standard_normal((6, 6))])
    fast = convlasso_objective(d, v, f, lam=0.2)
    slow = loop_objective(d, v, f, lam=0.2)
    assert abs(fast - slow) <= 1e-10 * (1.0 + abs(slow))


def test_objective_contract_error_on_mutated_fixed_slots():
    rng = np.random.default_rng(94)
    f = rng.uniform(0, 1, (6, 6))
    g = gaussian_filter(3)
    d = np.stack([g * 1.001, rng.standard_normal((3, 3))])
    v = np.stack([f, np.zeros_like(f)])
    with pytest.raises(ContractError):
        convlasso_objective(d, v, f, lam=0.2, g=g)
    d = np.stack([g, rng.standard_normal((3, 3))])
    v = np.stack([f + 1e-9, np.zeros_like(f)])
    with pytest.raises(ContractError):
        convlasso_objective(d, v, f, lam=0.2, g=g)


def test_grads_zero_at_zero_residual():
    # constant image: the fixed low-pass reproduces it exactly, free slots zero
    f = np.full((8, 8), 0.37)
    g = gaussian_filter(3)
    d = np.stack([g, np.zeros((3, 3))])
    v = np.stack([f, np.zeros_like(f)])
    assert np.abs(convlasso_residual(d, v, f)).max() <= 1e-14
    gd, gv = convlasso_grads(d, v, f)
    assert np.abs(gd).max() <= 1e-13 and np.abs(gv).max() <= 1e-13


def test_grads_delta_filter_passes_residual_through():
    rng = np.random.default_rng(95)
    f = rng.uniform(0, 1, (8, 8))
    g = gaussian_filter(3)
    delta = np.zeros((3, 3))
    delta[1, 1] = 1.0
    d = np.stack([g, delta])
    v = np.stack([f, rng.standard_normal((8, 8))])
    r = convlasso_residual(d, v, f)
    _, gv = convlasso_grads(d, v, f)
    assert np.allclose(gv[1], r, atol=1e-12)
    assert np.abs(gv[0]).max() == 0.0  # pinned slot gets no gradient


def test_problem_gradients_match_finite_differences():
    rng = np.random.default_rng(96)
    inst = synth_convlasso(seed=96)
    problem = make_convlasso_problem(inst["f"], p=4, l=3, lam=0.05)
    x0 = init_convlasso(inst["f"], p=4, l=3, seed=96)
    x = BlockVector([x0[0], 0.1 * rng.standard_normal(x0[1].shape)])
    h = 1e-6
    for i in range(2):
        grad = problem.partial_grad(i, x)
        for _ in range(20):
            e = rng.standard_normal(x[i].shape)
            e /= np.sqrt(np.vdot(e, e).real)
            plus = problem.eval_H(x.with_block(i, x[i] + h * e))
            minus = problem.eval_H(x.with_block(i, x[i] - h * e))
            fd = (plus - minus) / (2 * h)
            dot = float(np.vdot(grad, e).real)
            assert abs(fd - dot) <= max(1e-5 * abs(dot), 1e-7)


def _random_feasible_point(rng, shape, p, l):
    d = prox_filter_constraint(rng.standard_normal((p - 1, l, l)))
    return BlockVector([d, rng.standard_normal((p - 1,) + shape)])


def test_filter_block_prox_and_init_match_the_per_filter_loop():
    # one call on the whole filter stack, bit for bit the loop over filters
    rng = np.random.default_rng(105)
    f = rng.uniform(0, 1, (9, 8))
    for p, l in ((2, 3), (8, 5), (12, 7)):
        problem = make_convlasso_problem(f, p=p, l=l, lam=0.1)
        q = rng.standard_normal((p - 1, l, l)) * rng.uniform(0.01, 10.0, (p - 1, 1, 1))
        q[-1] += 3.0
        assert np.array_equal(problem.prox(0, 2.0, q), filter_projection_ref(q))
        d = np.random.default_rng(p).normal(size=(p - 1, l, l))
        scaled = np.stack([dj / max(np.abs(dj).max(), 1.0) for dj in d])
        assert np.array_equal(init_convlasso(f, p, l, seed=p)[0], filter_projection_ref(scaled))


@pytest.mark.parametrize("shape", [(10, 7), (9, 12)])
def test_problem_oracles_match_loop_references(shape):
    # the Fourier-domain oracles against the per-filter reference functions;
    # odd and even widths exercise the Parseval weights of the half spectrum
    rng = np.random.default_rng(102)
    f = rng.uniform(0, 1, shape)
    p, l, lam = 5, 3, 0.2
    problem = make_convlasso_problem(f, p=p, l=l, lam=lam)
    x = _random_feasible_point(rng, shape, p, l)
    d, v = assemble_stacks(x, f, gaussian_filter(l))
    ref = convlasso_objective(d, v, f, lam=lam)
    assert abs(problem.eval_F(x) - ref) <= 1e-12 * abs(ref)
    gd, gv = convlasso_grads(d, v, f)
    for got, want in ((problem.partial_grad(0, x), gd[1:]), (problem.partial_grad(1, x), gv[1:])):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("shape", [(10, 7), (9, 12)])
def test_moduli_match_corner_padded_fourier_energy(shape):
    # the moduli read the oracles' centred spectra; centring changes only
    # the phase, so the energy equals that of a corner-padded transform
    rng = np.random.default_rng(104)
    f = rng.uniform(0, 1, shape)
    p, l = 5, 3
    problem = make_convlasso_problem(f, p=p, l=l, lam=0.2)
    for _ in range(3):
        x = _random_feasible_point(rng, shape, p, l)
        assert problem.lipschitz(0, x) == fourier_energy(x[1], shape)
        ref = fourier_energy(x[0], shape)
        assert abs(problem.lipschitz(1, x) - ref) <= 1e-12 * ref


def test_make_problem_rejects_one_filter_and_an_even_filter_size():
    f = np.full((8, 8), 0.5)
    with pytest.raises(ValueError, match="need at least 2 filters .* got 1"):
        make_convlasso_problem(f, p=1, l=3, lam=0.2)
    for l in (0, 4):
        with pytest.raises(ValueError, match=f"filter size must be odd, got {l}"):
            make_convlasso_problem(f, p=3, l=l, lam=0.2)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_make_problem_rejects_non_finite_image(bad):
    f = np.full((8, 8), 0.5)
    f[4, 1] = bad
    with pytest.raises(DataError, match="image has non-finite entries"):
        make_convlasso_problem(f, p=3, l=3, lam=0.2)


def test_exact_moduli_satisfy_descent_lemma():
    rng = np.random.default_rng(103)
    f = rng.uniform(0, 1, (10, 7))
    p, l = 4, 3
    problem = make_convlasso_problem(f, p=p, l=l, lam=0.2)
    for i in range(2):
        for _ in range(25):
            x1 = _random_feasible_point(rng, f.shape, p, l)
            x2 = x1.with_block(i, _random_feasible_point(rng, f.shape, p, l)[i])
            L = problem.lipschitz(i, x1)  # depends only on the other block
            h1, h2 = problem.eval_H(x1), problem.eval_H(x2)
            g1 = problem.partial_grad(i, x1)
            step = x2[i] - x1[i]
            bound = h1 + float(np.vdot(g1, step)) + 0.5 * L * float(np.vdot(step, step))
            assert h2 <= bound + 1e-10 * (1.0 + abs(bound))


def test_exact_lipschitz_mode_descends_with_zero_inertia():
    inst = synth_convlasso(seed=104)
    problem = make_convlasso_problem(inst["f"], p=5, l=3, lam=0.05)
    x0 = init_convlasso(inst["f"], p=5, l=3, seed=104)
    state = make_state(problem, x0, block_kinds(problem, RunConfig(schedule="static-c")))
    run_state(state, problem, iters=30, tol=0.0)
    F = trace_column(state.trace, "F")
    assert (F[1:] <= F[:-1] + 1e-10 * (1.0 + np.abs(F[:-1]))).all()
    assert F[-1] < F[0]


def test_huge_l1_weight_collapses_free_coefficients():
    inst = synth_convlasso(seed=97)
    problem = make_convlasso_problem(inst["f"], p=4, l=3, lam=1e9)
    x0 = init_convlasso(inst["f"], p=4, l=3, seed=97)
    state = make_state(problem, x0, block_kinds(problem, RunConfig(schedule="static-c")),
                       backtracking=True)
    run_state(state, problem, iters=1, tol=0.0)
    assert np.abs(state.x_cur[1]).max() == 0.0


def test_iterates_keep_filter_constraints_and_fixed_slots():
    inst = synth_convlasso(seed=98)
    f = inst["f"]
    problem = make_convlasso_problem(f, p=5, l=3, lam=0.05)
    x0 = init_convlasso(f, p=5, l=3, seed=98)
    g = gaussian_filter(3)
    cfg = RunConfig(schedule="static-c", alpha_bar=0.4, beta_bar=0.4)
    state = make_state(problem, x0, block_kinds(problem, cfg), backtracking=True)
    from ipalm.solver import ipalm_iterate

    for _ in range(25):
        ipalm_iterate(state, problem)
        d_free = state.x_cur[0]
        means = d_free.reshape(4, -1).mean(axis=1)
        norms = np.sqrt((d_free.reshape(4, -1) ** 2).sum(axis=1))
        assert np.abs(means).max() <= 1e-10
        assert norms.max() <= 1.0 + 1e-10
        d_full, v_full = assemble_stacks(state.x_cur, f, g)
        assert np.array_equal(d_full[0], g)
        assert np.array_equal(v_full[0], f)


def test_objective_decomposition_recomputed_independently():
    inst = synth_convlasso(seed=99)
    f = inst["f"]
    lam = 0.05
    problem = make_convlasso_problem(f, p=4, l=3, lam=lam)
    x0 = init_convlasso(f, p=4, l=3, seed=99)
    state = run(problem, x0, RunConfig(schedule="static-c", alpha_bar=0.2,
                                       beta_bar=0.2, iters=15, tol=0.0))
    g = gaussian_filter(3)
    d, v = assemble_stacks(state.x_cur, f, g)
    direct = convlasso_objective(d, v, f, lam=lam, g=g)
    assert abs(state.trace.rows[-1].F - direct) <= 1e-10 * (1.0 + abs(direct))


def test_objective_strictly_decreases_without_inertia():
    inst = synth_convlasso(seed=100)
    problem = make_convlasso_problem(inst["f"], p=8, l=5, lam=0.05)
    x0 = init_convlasso(inst["f"], p=8, l=5, seed=100)
    trace = run(problem, x0, RunConfig(schedule="static-c", iters=60, tol=0.0)).trace
    F = trace_column(trace, "F")
    assert (F[1:] <= F[:-1] + 1e-10 * (1.0 + np.abs(F[:-1]))).all()
    assert F[-1] < F[0]


def test_dump_outputs(tmp_path):
    inst = synth_convlasso(seed=101)
    f = inst["f"]
    x0 = init_convlasso(f, p=4, l=3, seed=101)
    g = gaussian_filter(3)
    dump_outputs(x0, f, g, tmp_path)
    assert (tmp_path / "dictionary.pgm").exists()
    report = (tmp_path / "sparsity.csv").read_text().strip().split("\n")
    assert report[0] == "slot,nonzero_fraction"
    assert len(report) == 5  # header + fixed slot + 3 free slots


@pytest.mark.parametrize("p", [1, 4, 5])
def test_dictionary_mosaic_puts_each_stretched_tile_in_its_cell(tmp_path, p):
    # tile j, stretched to [0, 1], starts at row 1 + (j // cols)*(l + 1) and
    # column 1 + (j % cols)*(l + 1); a constant tile and empty cells stay black
    rng = np.random.default_rng(106 + p)
    l = 3
    d = rng.standard_normal((p, l, l))
    d[-1] = 0.4
    cols = int(np.ceil(np.sqrt(p)))
    rows = int(np.ceil(p / cols))
    want = np.zeros((rows * (l + 1) + 1, cols * (l + 1) + 1))
    for j, tile in enumerate(d):
        r0, c0 = (1 + k * (l + 1) for k in divmod(j, cols))
        if tile.max() > tile.min():
            want[r0 : r0 + l, c0 : c0 + l] = (tile - tile.min()) / (tile.max() - tile.min())
    dump_dictionary_pgm(d, tmp_path / "got.pgm")
    write_pgm(tmp_path / "want.pgm", want)
    assert (tmp_path / "got.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()
