import numpy as np
import pytest
from oracles import nmf_lipschitz, nmf_objective, trace_column

from ipalm.blockmodel import BlockVector
from ipalm.config import RunConfig, block_kinds
from ipalm.nmf import (
    DataError,
    dump_basis_pgm,
    init_nmf,
    load_matrix_csv,
    load_pgm_dir,
    make_nmf_problem,
    save_matrix_csv,
)
from ipalm.imageops import write_pgm
from ipalm.solver import make_state, run, run_state
from ipalm.synthetic import synth_nmf


def nmf_grad_B(A, B, C):
    """The problem's partial gradient in B, ``(B C - A) C^T``."""
    return make_nmf_problem(A, r=B.shape[1], s=B.shape[0]).partial_grad(0, BlockVector([B, C]))


def nmf_grad_C(A, B, C):
    """The problem's partial gradient in C, ``B^T (B C - A)``."""
    return make_nmf_problem(A, r=B.shape[1], s=B.shape[0]).partial_grad(1, BlockVector([B, C]))


def test_grads_zero_cases():
    A = np.ones((3, 4))
    B = np.zeros((3, 2))
    C = np.zeros((2, 4))
    assert np.array_equal(nmf_grad_B(A, B, C), np.zeros((3, 2)))
    assert np.array_equal(nmf_grad_C(A, B, C), np.zeros((2, 4)))


def test_grads_zero_residual():
    rng = np.random.default_rng(61)
    B = rng.uniform(0, 1, (4, 2))
    C = rng.uniform(0, 1, (2, 5))
    A = B @ C
    assert np.abs(nmf_grad_B(A, B, C)).max() <= 1e-14
    assert np.abs(nmf_grad_C(A, B, C)).max() <= 1e-14


def test_grads_match_finite_differences():
    rng = np.random.default_rng(62)
    A = rng.uniform(0, 1, (4, 3))
    B = rng.uniform(0, 1, (4, 2))
    C = rng.uniform(0, 1, (2, 3))
    gB = nmf_grad_B(A, B, C)
    gC = nmf_grad_C(A, B, C)
    h = 1e-6
    for arr, grad, which in ((B, gB, "B"), (C, gC, "C")):
        for idx in np.ndindex(arr.shape):
            e = np.zeros_like(arr)
            e[idx] = h
            if which == "B":
                fd = (nmf_objective(A, B + e, C) - nmf_objective(A, B - e, C)) / (2 * h)
            else:
                fd = (nmf_objective(A, B, C + e) - nmf_objective(A, B, C - e)) / (2 * h)
            assert abs(fd - grad[idx]) <= 1e-5 * (1.0 + abs(grad[idx]))


def test_lipschitz_orthonormal_rows_give_unit_modulus():
    C = np.eye(3)[:2]  # orthonormal rows -> C C^T = I
    assert nmf_lipschitz(0, np.zeros((5, 2)), C) == pytest.approx(1.0, rel=1e-7)


def test_lipschitz_matches_dense_eigensolver():
    rng = np.random.default_rng(63)
    B = rng.standard_normal((6, 4))
    C = rng.standard_normal((4, 7))
    assert nmf_lipschitz(0, B, C) == pytest.approx(
        float(np.linalg.eigvalsh(C @ C.T)[-1]), rel=1e-6
    )
    assert nmf_lipschitz(1, B, C) == pytest.approx(
        float(np.linalg.eigvalsh(B.T @ B)[-1]), rel=1e-6
    )


def test_make_problem_rejects_negative_data():
    with pytest.raises(DataError):
        make_nmf_problem(np.array([[1.0, -0.1]]), r=1, s=1)
    with pytest.raises(DataError):
        make_nmf_problem(np.ones((3, 3)), r=0, s=1)
    with pytest.raises(DataError):
        make_nmf_problem(np.ones((3, 3)), r=1, s=4)
    for empty in (np.zeros((1, 0)), np.zeros((0, 3))):
        with pytest.raises(DataError, match="no entries"):
            make_nmf_problem(empty, r=1, s=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_make_problem_rejects_non_finite_data(bad):
    A = np.ones((4, 3))
    A[1, 2] = bad
    with pytest.raises(DataError, match="non-finite"):
        make_nmf_problem(A, r=1, s=1)


def test_objective_is_smooth_part_plus_indicators_on_feasible_points():
    inst = synth_nmf(seed=64)
    problem = make_nmf_problem(inst["A"], r=3, s=2)
    x = init_nmf(inst["A"], r=3, s=2, seed=64)
    assert problem.eval_F(x) == pytest.approx(problem.eval_H(x))
    # infeasible: too many nonzeros in a column of B
    dense = x.with_block(0, np.abs(x[0]) + 1.0)
    assert problem.eval_F(dense) == np.inf


def test_rank_one_instance_solved_to_machine_precision():
    # an exact factorization exists by construction; the inertial schedule
    # escapes the slow scale-ambiguity valley that stalls the plain sweep
    rng = np.random.default_rng(65)
    b = rng.uniform(0.5, 1.5, (6, 1))
    c = rng.uniform(0.5, 1.5, (1, 8))
    A = b @ c
    problem = make_nmf_problem(A, r=1, s=6)
    x0 = init_nmf(A, r=1, s=6, seed=65)
    trace = run(problem, x0, RunConfig(schedule="dynamic", iters=3000, tol=0.0,
                                       backtrack=False)).trace
    assert trace.rows[-1].F < 1e-10


def test_s_zero_pins_left_factor_at_zero():
    inst = synth_nmf(seed=66)
    A = inst["A"]
    problem = make_nmf_problem(A, r=3, s=0)
    x0 = init_nmf(A, r=3, s=0, seed=66)
    assert np.array_equal(x0[0], np.zeros_like(x0[0]))
    state = make_state(problem, x0, block_kinds(problem, RunConfig(schedule="static-c")))
    run_state(state, problem, iters=20, tol=0.0)
    assert np.array_equal(state.x_cur[0], np.zeros_like(x0[0]))
    # with B = 0 the objective is stuck at 0.5*||A||^2 once C stops mattering
    assert state.trace.rows[-1].F == pytest.approx(0.5 * float(np.sum(A * A)))


def test_palm_descent_objective_nonincreasing():
    rng = np.random.default_rng(67)
    A = rng.uniform(0.0, 1.0, (20, 30))
    problem = make_nmf_problem(A, r=3, s=10)
    x0 = init_nmf(A, r=3, s=10, seed=67)
    trace = run(problem, x0, RunConfig(schedule="static-c", iters=200, tol=0.0,
                                       backtrack=False)).trace
    F = trace_column(trace, "F")
    assert (F[1:] <= F[:-1] + 1e-10 * (1.0 + np.abs(F[:-1]))).all()


def test_objective_identity_along_trace():
    inst = synth_nmf(seed=68)
    problem = make_nmf_problem(inst["A"], r=3, s=2)
    x0 = init_nmf(inst["A"], r=3, s=2, seed=68)
    state = make_state(problem, x0, block_kinds(problem, RunConfig(
        schedule="static-c", alpha_bar=0.2, beta_bar=0.2)))
    from ipalm.solver import ipalm_iterate

    for _ in range(25):
        ipalm_iterate(state, problem)
        direct = 0.5 * float(np.sum((inst["A"] - state.x_cur[0] @ state.x_cur[1]) ** 2))
        recorded = state.trace.rows[-1].F
        assert abs(recorded - direct) <= 1e-10 * (1.0 + abs(direct))


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(69)
    M = rng.uniform(0, 1, (4, 6))
    path = tmp_path / "m.csv"
    save_matrix_csv(path, M)
    back = load_matrix_csv(path)
    assert np.array_equal(back, M)  # 17 significant digits survive the trip


@pytest.mark.parametrize("shape", [(4, 1), (1, 6), (4, 6)])
def test_matrix_csv_round_trip_keeps_a_single_row_or_column(tmp_path, shape):
    # a one-column file holds one value per line, as a one-row file's line does
    M = np.random.default_rng(71).uniform(0, 1, shape)
    path = tmp_path / "m.csv"
    save_matrix_csv(path, M)
    back = load_matrix_csv(path)
    assert back.shape == shape
    assert np.array_equal(back, M)


def test_pgm_dir_loader_and_basis_dump(tmp_path):
    rng = np.random.default_rng(70)
    imgs = rng.uniform(0, 1, (3, 4, 5))
    for i in range(3):
        write_pgm(tmp_path / f"face_{i}.pgm", imgs[i] / imgs[i].max())
    A, shape = load_pgm_dir(tmp_path)
    assert A.shape == (20, 3) and shape == (4, 5)
    assert A.min() >= 0.0 and A.max() <= 1.0
    out = tmp_path / "basis"
    paths = dump_basis_pgm(A[:, :2], shape, out)
    assert len(paths) == 2 and all((out / f"basis_{i:03d}.pgm").exists() for i in range(2))


def test_pgm_dir_loader_rejects_a_directory_without_pgm_images(tmp_path):
    (tmp_path / "notes.txt").write_text("not an image\n")
    with pytest.raises(DataError, match="no .pgm files found"):
        load_pgm_dir(tmp_path)


def test_pgm_dir_loader_rejects_mixed_shapes(tmp_path):
    write_pgm(tmp_path / "a.pgm", np.ones((3, 3)))
    write_pgm(tmp_path / "b.pgm", np.ones((2, 2)))
    with pytest.raises(DataError):
        load_pgm_dir(tmp_path)
