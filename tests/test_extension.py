import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fracheat.kernels import FracParams
from fracheat.grids import ParabolicGrid, sample_thin
from fracheat.dtn import cosine_extension_data
from fracheat.generators import coefficient_generator
from fracheat import extension
from fracheat.extension import (
    _RTOL,
    _as_vector_array,
    _assemble,
    _eigenbasis,
    _lattice_points,
    _pcg,
    _separable_solver,
    _step_operator,
    _step_rhs,
    CoefficientField,
    solve_extension,
    steklov_average,
    energy_report,
    trace_poincare_check,
    solve_constant_coeff_dirichlet,
    closeness_experiment,
    regularity_estimates_check,
)

from fields import sample_scalar

P = FracParams(s=0.75)


def small_grid(nt=12, nx=14, ny=12, s=0.75):
    return ParabolicGrid(FracParams(s=s), nt=nt, nx=nx, ny=ny)


def smooth_random_data(seed, modes=3, scale=1.0):
    """Fixed smooth random fields (refinement-stable, unlike per-cell noise)."""
    rng = np.random.default_rng(seed)
    amp = rng.normal(scale=scale, size=modes)
    om = rng.integers(1, 4, size=modes)
    nu = rng.integers(1, 4, size=modes)
    ph = rng.uniform(0, 2 * np.pi, size=(2, modes))

    def f(t, x):
        out = 0.0
        for k in range(modes):
            out = out + amp[k] * np.cos(om[k] * np.pi * x + ph[0, k]) \
                * np.cos(nu[k] * t + ph[1, k])
        return out
    return f


def _reference_assemble(grid, coeff):
    """The assembled stiffness matrix, face by face, as the solver built it
    before the separable path: returns (L, mass, dirichlet)."""
    n = grid.n
    idx = np.arange(int(np.prod(grid.spatial_shape))).reshape(grid.spatial_shape)
    nfull = idx.size
    mass = grid.weighted_cell_measures().ravel()
    dx = grid.dx
    nx, ny = grid.nx, grid.ny

    rows, cols, vals = [], [], []
    diag = np.zeros(nfull)

    def add_pair(c1, c2, T):
        c1, c2, T = c1.ravel(), c2.ravel(), T.ravel()
        rows.extend([c1, c2])
        cols.extend([c2, c1])
        vals.extend([-T, -T])
        np.add.at(diag, c1, T)
        np.add.at(diag, c2, T)

    dirichlet = []

    def add_dirichlet(cells, T, pts):
        cells, T = cells.ravel(), T.ravel()
        np.add.at(diag, cells, T)
        dirichlet.append((cells, T, pts))

    xc = _lattice_points(grid.x_centers)                # (nx^n, n)
    x_area = grid.x_cell_measures()                     # (nx,)*n

    if n == 1:
        a_cell = coeff.axis_values(xc, 0)               # (nx,)
        harm = 2.0 * a_cell[:-1] * a_cell[1:] / (a_cell[:-1] + a_cell[1:])
        T = np.multiply.outer(harm / dx, grid.w_y)      # (nx-1, ny)
        add_pair(idx[:-1, :], idx[1:, :], T)
        for side, fpos in ((0, grid.x_faces[0][0]), (-1, grid.x_faces[0][-1])):
            aface = coeff.axis_values(np.array([[fpos]]), 0)[0]
            Tb = np.broadcast_to(aface / (dx / 2.0) * grid.w_y, (grid.ny,))
            pts = _lattice_points([np.array([fpos]), grid.y_centers])
            add_dirichlet(idx[side, :], Tb.copy(), pts)
    else:
        for axis in range(2):
            a_cell = coeff.axis_values(xc, axis).reshape(nx, nx)
            am = np.moveaxis(a_cell, axis, 0)
            harm = 2.0 * am[:-1] * am[1:] / (am[:-1] + am[1:])   # (nx-1, nx)
            # cross-section dx * w_y over distance dx: the dx cancels
            T = harm[..., None] * grid.w_y
            c1 = np.moveaxis(idx, axis, 0)[:-1]
            c2 = np.moveaxis(idx, axis, 0)[1:]
            add_pair(c1, c2, T)
            for side, fpos in ((0, grid.x_faces[axis][0]),
                               (-1, grid.x_faces[axis][-1])):
                other = grid.x_centers[1 - axis]
                fpts = np.zeros((nx, 2))
                fpts[:, axis] = fpos
                fpts[:, 1 - axis] = other
                aface = coeff.axis_values(fpts, axis)            # (nx,)
                Tb = aface[:, None] * dx / (dx / 2.0) * grid.w_y  # (nx, ny)
                cells = np.moveaxis(idx, axis, 0)[side]          # (nx, ny)
                if axis == 0:
                    pts = _lattice_points([np.array([fpos]), other,
                                           grid.y_centers])
                else:
                    pts = _lattice_points([grid.x_centers[0],
                                           np.array([fpos]),
                                           grid.y_centers])
                add_dirichlet(cells, Tb, pts)

    # y-direction interior faces: coefficient 1, exact resistances
    Ty = np.multiply.outer(x_area, 1.0 / grid.res_y)
    add_pair(idx[..., :-1], idx[..., 1:], Ty)

    # top face (y = rho) Dirichlet
    Ttop = x_area / grid.res_top
    add_dirichlet(idx[..., -1],
                  np.broadcast_to(Ttop, x_area.shape).copy(),
                  _lattice_points(list(grid.x_centers)
                                  + [np.array([grid.rho])]))

    rows.append(np.arange(nfull))
    cols.append(np.arange(nfull))
    vals.append(diag)
    rows = np.concatenate([np.asarray(r).ravel() for r in rows])
    cols = np.concatenate([np.asarray(c).ravel() for c in cols])
    vals = np.concatenate([np.asarray(v).ravel() for v in vals])
    L = sp.csr_matrix((vals, (rows, cols)), shape=(nfull, nfull))
    return L, mass, dirichlet


def _forcing_rhs(grid, f_slice, F_slice):
    """Per-cell contributions of the bottom flux and the divergence forcing
    at one time level, as the solver built them step by step before it
    evaluated the data once for all levels: reference for _step_rhs."""
    n = grid.n
    rhs = np.zeros(grid.spatial_shape)
    x_area = grid.x_cell_measures()
    # bottom Neumann flux: + int_face f
    rhs[..., 0] += f_slice * x_area
    # divergence forcing: - sum over x faces of [y^a-weighted face F]
    for axis in range(n):
        Fd = F_slice[..., axis]
        Fm = np.moveaxis(Fd, axis, 0)
        faces = np.empty((grid.nx + 1,) + Fm.shape[1:])
        faces[1:-1] = 0.5 * (Fm[1:] + Fm[:-1])
        faces[0] = Fm[0]
        faces[-1] = Fm[-1]
        cross = np.moveaxis(x_area, axis, 0) / \
            (grid.x_faces[axis][1] - grid.x_faces[axis][0])
        div = (faces[1:] - faces[:-1]) * cross
        rhs -= np.moveaxis(div[..., None] * grid.w_y, 0, axis) \
            if n > 1 else div[..., None] * grid.w_y
    return rhs


def _dirichlet_rhs(grid, dirichlet, g, t):
    """The Dirichlet datum at one time level, patch by patch."""
    rhs = np.zeros(int(np.prod(grid.spatial_shape)))
    for cells, T, pts in dirichlet:
        vals = g(t, pts)
        np.add.at(rhs, cells, T * vals)
    return rhs


def _wrap_boundary(lateral):
    """Normalize Dirichlet data to g(t, pts) with pts rows (x..., y)."""
    if lateral is None:
        return lambda t, pts: np.zeros(pts.shape[0])

    def g(t, pts):
        cols = [np.full(pts.shape[0], t)] + [pts[:, d] for d in range(pts.shape[1])]
        return np.asarray(lateral(*cols), dtype=float) * np.ones(pts.shape[0])
    return g


def _reference_march(grid, coeff, f=None, F=None, lateral_dirichlet=None,
                     initial=None):
    """The implicit Euler SuperLU march on the assembled step matrix: one
    sparse LU, one solve per step.  Reference for the separable solver."""
    L, mass, dirichlet = _reference_assemble(grid, coeff)
    dt = grid.dt
    lu = spla.splu(sp.csc_matrix(sp.diags(mass / dt) + L))
    f_arr = sample_thin(grid, f)
    F_arr = _as_vector_array(grid, F)
    g = _wrap_boundary(lateral_dirichlet)

    def rhs_at(level):
        return (_forcing_rhs(grid, f_arr[level], F_arr[level]).ravel()
                + _dirichlet_rhs(grid, dirichlet, g, grid.t_nodes[level]))

    if initial is None:
        u = np.zeros(mass.size)
    else:
        mesh = np.meshgrid(*(list(grid.x_centers) + [grid.y_centers]),
                           indexing="ij")
        u = (initial(*mesh) * np.ones(grid.spatial_shape)).ravel()
    out = [u]
    for m in range(grid.nt):
        u = lu.solve(mass / dt * u + rhs_at(m + 1))
        out.append(u)
    return np.reshape(out, grid.shape)


class TestSolveExtension:
    def test_zero_data_zero_solution(self):
        g = small_grid()
        U = solve_extension(g, CoefficientField.identity(1))
        assert np.max(np.abs(U.values)) == 0.0

    def test_x_linear_steady_state_exact(self):
        g = small_grid()
        lin = lambda t, x, y: 2.0 + 3.0 * x + 0.0 * y
        U = solve_extension(g, CoefficientField.identity(1),
                            lateral_dirichlet=lin,
                            initial=lambda x, y: 2.0 + 3.0 * x + 0.0 * y)
        exact = 2.0 + 3.0 * g.x_centers[0][None, :, None]
        assert np.max(np.abs(U.values - exact)) < 1e-10

    def test_x_linear_with_variable_coefficient(self):
        # b.x is steady for any A(x) when n = 1 only if A is constant;
        # use a piecewise test with A = 2 I instead
        g = small_grid()
        two = CoefficientField(
            fn=lambda x: 2.0 * np.ones((np.atleast_2d(x).shape[0], 1)),
            n=1, lam_ell=2.0, Lam_ell=2.0)
        lin = lambda t, x, y: 1.0 - 0.5 * x + 0.0 * y
        U = solve_extension(g, two, lateral_dirichlet=lin,
                            initial=lambda x, y: 1.0 - 0.5 * x + 0.0 * y)
        exact = 1.0 - 0.5 * g.x_centers[0][None, :, None]
        assert np.max(np.abs(U.values - exact)) < 1e-10

    def test_n2_linear_steady_state(self):
        g = ParabolicGrid(FracParams(s=0.6, n=2), nt=6, nx=8, ny=8)
        lin = lambda t, x1, x2, y: 0.5 + x1 - 2.0 * x2 + 0.0 * y
        U = solve_extension(g, CoefficientField.identity(2),
                            lateral_dirichlet=lin,
                            initial=lambda x1, x2, y: 0.5 + x1 - 2.0 * x2 + 0.0 * y)
        X1, X2 = np.meshgrid(*g.x_centers, indexing="ij")
        exact = (0.5 + X1 - 2.0 * X2)[None, :, :, None]
        assert np.max(np.abs(U.values - exact)) < 1e-9

    def test_symmetry_under_x_reflection(self):
        g = small_grid()
        even = lambda t, x, y: np.cos(2.0 * x) * (1.0 + 0.1 * np.sin(t)) + 0.0 * y
        U = solve_extension(g, CoefficientField.identity(1),
                            f=lambda t, x: np.cos(x) + 0.0 * t,
                            lateral_dirichlet=even,
                            initial=lambda x, y: np.cos(2.0 * x) + 0.0 * y)
        assert np.max(np.abs(U.values - U.values[:, ::-1, :])) < 1e-9

    def test_stability_uniform_in_step_count(self):
        # implicit stepping: the weighted norm at the final time stays
        # bounded by the data scale however many steps are taken
        data = smooth_random_data(5)
        norms = []
        for nt in (8, 32):
            g = small_grid(nt=nt)
            U = solve_extension(g, CoefficientField.identity(1), f=data,
                                initial=lambda x, y: 0.0 * x)
            norms.append(math.sqrt(
                float(np.sum(g.weighted_cell_measures() * U.values[-1] ** 2))))
        assert norms[1] <= 2.0 * norms[0] + 1.0

    def test_mass_balance_constant_state(self):
        g = small_grid()
        U = solve_extension(g, CoefficientField.identity(1),
                            lateral_dirichlet=lambda t, x, y: 1.0 + 0.0 * x,
                            initial=lambda x, y: 1.0 + 0.0 * x)
        drift = np.ptp(U.meta["mass_history"])
        assert drift < 1e-10

    def test_residual_reported(self):
        g = small_grid()
        U = solve_extension(g, CoefficientField.identity(1),
                            f=lambda t, x: np.cos(x) + 0.0 * t)
        assert U.meta["residual"] < 1e-12

    def test_time_stepping_orders(self):
        # implicit Euler converges at first order
        data = smooth_random_data(3)
        g_ref = small_grid(nt=768)
        ref = solve_extension(g_ref, CoefficientField.identity(1),
                              f=data).values[-1]
        e = []
        for nt in (24, 96):
            g = small_grid(nt=nt)
            sol = solve_extension(g, CoefficientField.identity(1),
                                  f=data).values[-1]
            wm = g.weighted_cell_measures()
            e.append(math.sqrt(float(np.sum(wm * (sol - ref) ** 2))))
        assert math.log(e[0] / e[1]) / math.log(4.0) > 0.8

    def test_coefficient_dimension_guard(self):
        g = small_grid()
        with pytest.raises(ValueError):
            solve_extension(g, CoefficientField.identity(2))


def _dini_bump():
    return coefficient_generator("dini_bump", n=1, eps=0.2,
                                 modulus="inv_log_sq")


def _separable_2d():
    """A = diag(a1(x1), a2(x2)): axis-separable but not the identity."""
    def fn(x):
        x = np.atleast_2d(x)
        a = np.stack([1.0 + 0.3 * np.sin(2.0 * x[:, 0]),
                      1.5 + 0.4 * np.cos(3.0 * x[:, 1])], axis=1)
        return a
    return CoefficientField(fn=fn, n=2, lam_ell=0.7, Lam_ell=1.9)


def _checkerboard_2d():
    return coefficient_generator("checkerboard", n=2, eps=0.4)


_N2_DATA = dict(
    f=lambda t, x1, x2: np.cos(x1) * np.sin(x2 + t),
    F=lambda t, x1, x2: (np.sin(x1 + t) * x2, np.cos(x2 - t) * x1),
    lateral_dirichlet=lambda t, x1, x2, y: np.cos(x1 - x2 + t) * (1.0 + y),
    initial=lambda x1, x2, y: np.cos(x1 - x2) * (1.0 + y))


def python_stdout(code, timeout):
    """Standard output of code run by a fresh interpreter on this src."""
    env = dict(os.environ, PYTHONPATH=str(
        Path(extension.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=timeout).stdout


@pytest.fixture(scope="module")
def non_finite_errors():
    """'<datum> <value>' -> the RuntimeError of a solve whose datum is the
    value on x > 0, for NaN and +-inf in f, initial and lateral_dirichlet.
    One subprocess runs all nine: matmul warns on these data, and pytest
    turns warnings into errors."""
    out = python_stdout("""
        import numpy as np
        from fracheat.extension import CoefficientField, solve_extension
        from fracheat.grids import ParabolicGrid
        from fracheat.kernels import FracParams
        for value in ("nan", "inf", "-inf"):
            bad = lambda t, x, *y: np.where(x > 0, float(value), 1.0)
            data = dict(f=bad, initial=lambda x, y: bad(0.0, x),
                        lateral_dirichlet=bad)
            for datum, fn in data.items():
                try:
                    solve_extension(ParabolicGrid(FracParams(0.75), nt=4,
                                                  nx=8, ny=8),
                                    CoefficientField.identity(1),
                                    **{datum: fn})
                    print(datum, value, ": no error")
                except RuntimeError as exc:
                    print(datum, value, ":", exc)
        """, timeout=60)
    return dict(line.split(" : ") for line in out.splitlines())


class TestSeparableSolve:
    """The separable solve against the SuperLU march it replaced."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_step_rhs_matches_per_level_reference(self, n):
        # the data evaluated once for all levels against the per-level
        # face-by-face and patch-by-patch right-hand side
        if n == 1:
            g = small_grid(nt=6, nx=10, ny=8)
            data = dict(f=smooth_random_data(4),
                        F=lambda t, x: (0.3 * np.sin(2.0 * x) * np.cos(t),),
                        lateral=lambda t, x, y: np.cos(x + t) * (1.0 + y))
        else:
            g = ParabolicGrid(FracParams(s=0.6, n=2), nt=4, nx=6, ny=5)
            data = dict(f=lambda t, x1, x2: np.cos(x1) * np.sin(x2 + t),
                        F=lambda t, x1, x2: (np.sin(x1 + t) * x2,
                                             np.cos(x2 - t) * x1),
                        lateral=lambda t, x1, x2, y:
                            np.cos(x1 - x2 + t) * (1.0 + y))
        coeff = _dini_bump() if n == 1 else CoefficientField.identity(2)
        *_, x_area, _, bc = _assemble(g, coeff)
        rhs_at = _step_rhs(g, x_area, bc, data["f"], data["F"],
                           data["lateral"])
        _, _, dirichlet = _reference_assemble(g, coeff)
        f_arr = sample_thin(g, data["f"])
        F_arr = _as_vector_array(g, data["F"])
        bc = _wrap_boundary(data["lateral"])
        for level in range(g.nt + 1):
            ref = (_forcing_rhs(g, f_arr[level], F_arr[level]).ravel()
                   + _dirichlet_rhs(g, dirichlet, bc, g.t_nodes[level]))
            np.testing.assert_allclose(rhs_at(level), ref, rtol=0,
                                       atol=1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("coeff", [
        CoefficientField.identity(1), _dini_bump(),
    ], ids=["identity-euler", "dini_bump-euler"])
    def test_matches_superlu_march_n1(self, coeff):
        g = small_grid(nt=10, nx=14, ny=12)
        data = dict(f=smooth_random_data(2),
                    F=lambda t, x: (0.3 * np.sin(2.0 * x) * np.cos(t),),
                    lateral_dirichlet=lambda t, x, y: np.cos(x + t) * (1.0 + y),
                    initial=lambda x, y: np.cos(x - 1.0) * (1.0 + y))
        U = solve_extension(g, coeff, **data)
        ref = _reference_march(g, coeff, **data)
        assert U.meta["cg_iterations"] == 0
        assert np.max(np.abs(U.values - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_matches_superlu_march_n2(self):
        g = ParabolicGrid(FracParams(s=0.6, n=2), nt=6, nx=8, ny=8)
        coeff = CoefficientField.identity(2)
        data = dict(f=lambda t, x1, x2: np.cos(x1) * np.sin(x2 + t),
                    lateral_dirichlet=lambda t, x1, x2, y:
                        np.cos(x1 - x2 + t) * (1.0 + y),
                    initial=lambda x1, x2, y: np.cos(x1 - x2) * (1.0 + y))
        U = solve_extension(g, coeff, **data)
        ref = _reference_march(g, coeff, **data)
        assert np.max(np.abs(U.values - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_route_follows_face_transmissibilities(self):
        # an axis-separable A is its own reference, so the separable start
        # is the answer; a checkerboard's a_11 varies along x2, so CG works
        g = ParabolicGrid(FracParams(s=0.6, n=2), nt=2, nx=9, ny=4)
        for coeff, splits in ((_separable_2d(), True),
                              (_checkerboard_2d(), False)):
            _, _, factors, x_area, *_ = _assemble(g, coeff)
            assert ([[v.shape for v in factor] for factor in factors]
                    == [[(9,), (8,), (9,)]] * 2)
            np.testing.assert_array_equal(
                np.multiply.outer(factors[0][2], factors[1][2]), x_area)
            U = solve_extension(g, coeff, **_N2_DATA)
            assert (U.meta["cg_iterations"] == 0) == splits
        U = solve_extension(small_grid(nt=2, nx=9, ny=4), _dini_bump(),
                            f=smooth_random_data(2))
        assert U.meta["cg_iterations"] == 0             # always split at n = 1

    def test_start_meeting_target_returned_unchanged(self):
        # where the separable start already meets _RTOL, _pcg hands it
        # back untouched: this keeps separable steps bit for bit
        g = ParabolicGrid(FracParams(s=0.6, n=2), nt=2, nx=7, ny=5)
        weights, diag, factors, _, ky, _ = _assemble(g, _separable_2d())
        mass = g.weighted_cell_measures().ravel()
        A_step, A_abs = _step_operator(mass / g.dt + diag, weights)
        precond = _separable_solver(factors, ky, g.w_y, g.dt)
        b = np.random.default_rng(3).normal(size=mass.size)
        start = precond(b)
        kept = start.copy()
        u, res, its = _pcg(A_step, A_abs, b, start, precond)
        assert u is start and its == 0 and res <= _RTOL
        np.testing.assert_array_equal(u, kept)

    def test_pass_without_progress_ends_solve(self):
        # b = 1e-300 gives a backward error of 1 but a residual 2-norm that
        # underflows to 0, so no CG iteration can start; without the
        # no-progress exit every pass would repeat this one forever, hence
        # the subprocess and its timeout
        out = python_stdout("""
            import numpy as np
            from fracheat.extension import _pcg
            same = lambda v: v
            u, res, its = _pcg(same, same, np.full(6, 1e-300), np.zeros(6),
                               same)
            print(float(np.max(np.abs(u))), res, its)
            """, timeout=30)
        assert out.split() == ["0.0", "1.0", "0"]

    @pytest.mark.parametrize("n, coeff", [
        (1, CoefficientField.identity(1)), (1, _dini_bump()),
        (2, CoefficientField.identity(2)), (2, _separable_2d()),
        (2, _checkerboard_2d()),
        (2, coefficient_generator("dini_bump", n=2, eps=0.2,
                                  modulus="inv_log_sq")),
    ], ids=["identity-1", "dini_bump-1", "identity-2", "diag_a1_a2-2",
            "checkerboard-2", "dini_bump-2"])
    def test_stencil_matches_assembled_operator(self, n, coeff):
        # A u and |A| |u| from the stencil against the face-by-face sparse
        # step matrix, componentwise to 1e-14 of |A| |u|
        g = ParabolicGrid(FracParams(s=0.75, n=n), nt=4, nx=11, ny=9)
        weights, diag, *_ = _assemble(g, coeff)
        L, mass, _ = _reference_assemble(g, coeff)
        A = sp.diags(mass / g.dt) + L
        A_step, A_abs = _step_operator(mass / g.dt + diag, weights)
        rng = np.random.default_rng(7)
        for u in (rng.normal(size=mass.size), np.ones(mass.size)):
            want = abs(A) @ np.abs(u)
            np.testing.assert_array_less(np.abs(A_step(u) - A @ u),
                                         1e-14 * want)
            np.testing.assert_array_less(np.abs(A_abs(np.abs(u)) - want),
                                         1e-14 * want)

    @pytest.mark.parametrize("coeff", [CoefficientField.identity(2),
                                       _separable_2d()],
                             ids=["identity-euler", "diag_a1_a2-euler"])
    def test_matches_superlu_march_n2_separable(self, coeff):
        g = ParabolicGrid(FracParams(s=0.6, n=2), nt=6, nx=10, ny=9)
        U = solve_extension(g, coeff, **_N2_DATA)
        ref = _reference_march(g, coeff, **_N2_DATA)
        assert U.meta["cg_iterations"] == 0
        assert np.max(np.abs(U.values - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("coeff", [
        _checkerboard_2d(),
        coefficient_generator("dini_bump", n=2, eps=0.2, modulus="inv_log_sq"),
    ], ids=["checkerboard-euler", "dini_bump-euler"])
    def test_matches_superlu_march_n2_pcg(self, coeff):
        # CG on the true operator, started from and preconditioned by the
        # separable solve: 12 iterations a step for the checkerboard and 8
        # for dini_bump here
        g = ParabolicGrid(FracParams(s=0.75, n=2), nt=6, nx=10, ny=12)
        U = solve_extension(g, coeff, **_N2_DATA)
        ref = _reference_march(g, coeff, **_N2_DATA)
        assert 0 < U.meta["cg_iterations"] <= 20 * g.nt
        assert U.meta["residual"] <= 1e-12
        assert np.max(np.abs(U.values - ref)) <= 1e-9 * np.max(np.abs(ref))

    @staticmethod
    def _graded_case():
        # a case of the n = 1 dual route on the graded y-mesh of 128^3.
        # Marching on the separable starts alone, they sit at a median
        # backward error of 6.0e-12 and up to 3.4e-9, over the 1e-9 budget;
        # with CG refining each step, at 5.2e-12 and up to 3.2e-10
        p = FracParams(s=0.7907290881462282)
        g = ParabolicGrid(p, nt=128, nx=128, ny=128)
        data = cosine_extension_data(p, 1.9520419397177606)
        return g, dict(f=data["f"], lateral_dirichlet=data["lateral"],
                       initial=data["initial"])

    def test_refines_a_step_above_target(self):
        # CG from the separable start converges on every step, in one
        # iteration where the start misses _RTOL
        g, data = self._graded_case()
        U = solve_extension(g, CoefficientField.identity(1), **data)
        assert 0 < U.meta["cg_iterations"] <= g.nt
        assert U.meta["residual"] <= 1e-12

    def test_start_alone_exceeds_budget(self, monkeypatch):
        # with no CG iteration allowed the worst start stays over budget
        monkeypatch.setattr(extension, "_CG_MAXITER", 0)
        g, data = self._graded_case()
        with pytest.raises(RuntimeError, match="exceeds budget"):
            solve_extension(g, CoefficientField.identity(1), **data)

    @pytest.mark.parametrize("coeff", [CoefficientField.identity(1),
                                       _dini_bump()],
                             ids=["identity", "dini_bump"])
    @pytest.mark.parametrize("nx", [24, 128])
    def test_x_eigenbasis_orthonormal(self, coeff, nx):
        # V^T Mx V = I to rounding: a dense dsyevr eigenbasis of the scaled
        # factor measured 8.6e-15 to 1.9e-13 on these cases (the worst:
        # identity at nx = 128); dini_bump's top eigenvalues at nx = 128
        # come in near-equal pairs
        g = small_grid(nt=2, nx=nx, ny=4)
        (main, off, w), = _assemble(g, coeff)[2]
        _, V = _eigenbasis(main, off, w)
        np.testing.assert_array_less(
            np.abs(V.T @ (w[:, None] * V) - np.eye(nx)), 5e-15)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("datum", ["f", "initial", "lateral_dirichlet"])
    def test_non_finite_data_raise(self, non_finite_errors, datum, value):
        # non-finite data give a NaN backward error, which no CG pass can
        # lower: the solve must stop and raise, not loop
        assert (non_finite_errors[f"{datum} {value}"]
                == "linear solve produced non-finite values")

    def test_graded_y_mesh_backward_error(self):
        # At s = 3/4 the y resistances of ny = 100 span 9 decades.  A solve
        # diagonalized in y instead of x measured a backward error of 3.5e-9
        # here (6.4e-10 at ny = 96), over the 1e-9 budget.
        g = ParabolicGrid(FracParams(s=0.75), nt=8, nx=16, ny=100)
        data = cosine_extension_data(g.params, 2.0)
        U = solve_extension(g, CoefficientField.identity(1), f=data["f"],
                            lateral_dirichlet=data["lateral"],
                            initial=data["initial"])
        assert U.meta["residual"] <= 1e-12


class TestCoefficientField:
    def test_ellipticity_verified(self):
        g = small_grid()
        c = CoefficientField.identity(1)
        xc = g.x_centers[0][:, None]
        assert c.verify_ellipticity(xc)

    def test_full_matrix_shape_rejected(self):
        # fn returns the diagonal, (m, n); an (m, n, n) matrix is refused
        c = CoefficientField(
            fn=lambda x: np.broadcast_to(np.array([[1.0, 0.3], [0.3, 1.0]]),
                                         (np.atleast_2d(x).shape[0], 2, 2)).copy(),
            n=2, lam_ell=0.7, Lam_ell=1.3)
        with pytest.raises(ValueError, match="shape"):
            c.axis_values(np.zeros((3, 2)), 0)

    def test_oscillation_check_against_declared_modulus(self):
        from fracheat.moduli import ModulusOfContinuity
        eps = 0.05
        c = CoefficientField(
            fn=lambda x: (1.0 + eps * np.sin(np.atleast_2d(x)[:, 0]))[:, None],
            n=1, lam_ell=1 - eps, Lam_ell=1 + eps,
            modulus=ModulusOfContinuity(lambda r: eps * np.minimum(r, 2.0)))
        pts = np.linspace(-1, 1, 41)[:, None]
        assert c.oscillation_check(pts, [0.1, 0.5, 1.0])


class TestSteklov:
    def test_time_constant_field_fixed(self):
        g = small_grid()
        U = sample_scalar(g, lambda t, x, y: np.cos(x) * (1.0 + y) + 0.0 * t)
        V = steklov_average(U, 0.3)
        pts_vals = V.values
        assert np.allclose(pts_vals, pts_vals[0][None], atol=1e-12)

    def test_linear_in_time_shifts_by_half_window(self):
        g = small_grid()
        U = sample_scalar(g, lambda t, x, y: t + 0.0 * x)
        h = 0.25
        V = steklov_average(U, h)
        expect = V.grid.t_nodes + h / 2.0
        assert np.allclose(V.values[:, 0, 0], expect, atol=1e-12)

    def test_converges_to_field_as_h_shrinks(self):
        g = small_grid(nt=32)
        U = sample_scalar(g, lambda t, x, y: np.sin(2 * t) + 0.0 * x)
        errs = []
        for h in (0.2, 0.1):
            V = steklov_average(U, h)
            W = sample_scalar(V.grid, lambda t, x, y: np.sin(2 * t) + 0.0 * x)
            errs.append(np.max(np.abs(V.values - W.values)))
        assert errs[1] < errs[0]

    def test_window_overflow_rejected(self):
        g = small_grid()
        U = sample_scalar(g, lambda t, x, y: 0.0 * t)
        with pytest.raises(ValueError):
            steklov_average(U, 5.0)


class TestEnergyReport:
    def cutoff(self):
        return lambda t, x, y: np.maximum(1.0 - np.maximum(np.abs(x), y), 0.0) ** 2

    def test_zero_solution_vacuous(self):
        g = small_grid()
        U = sample_scalar(g, lambda t, x, y: 0.0 * t)
        rep = energy_report(U, cutoff=self.cutoff())
        assert rep.C_emp == 0.0 and rep.vacuous

    def test_manufactured_linear_solution(self):
        g = small_grid(nt=16, nx=16, ny=16)
        lin = lambda t, x, y: 2.0 + 3.0 * x + 0.0 * y
        U = solve_extension(g, CoefficientField.identity(1),
                            lateral_dirichlet=lin,
                            initial=lambda x, y: 2.0 + 3.0 * x + 0.0 * y)
        rep = energy_report(U, cutoff=self.cutoff(), window=(-0.5, 0.5))
        assert not rep.vacuous
        assert rep.C_emp <= 10.0

    def test_time_linear_field_closed_form(self):
        # U = t x, f = t, F = (t, 0) on [-1, 1] x [-1, 1] x [0, 1], phi = 1,
        # s = 3/4 (int_0^1 y^a dy = 2): |grad U|^2 = t^2, |U| |f| = t^2 |x|
        g = small_grid(nt=16, nx=16, ny=16)
        U = sample_scalar(g, lambda t, x, y: t * x + 0.0 * y)
        rep = energy_report(U, f=lambda t, x: t + 0.0 * x,
                            F=lambda t, x: (t + 0.0 * x,))
        assert rep.lhs_grad == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert rep.rhs_data == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert rep.rhs_trace == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_random_instances_bounded_and_stable(self):
        consts = []
        for nx in (12, 18):
            g = small_grid(nt=nx, nx=nx, ny=nx)
            data = smooth_random_data(11)
            U = solve_extension(g, CoefficientField.identity(1), f=data,
                                initial=lambda x, y: 0.0 * x)
            rep = energy_report(U, f=data, cutoff=self.cutoff(),
                                window=(-0.5, 0.5))
            consts.append(rep.C_emp)
        assert all(np.isfinite(c) for c in consts)
        assert abs(consts[1] - consts[0]) <= 0.35 * max(consts)


class TestTracePoincare:
    def bubble(self, g):
        return sample_scalar(
            g, lambda t, x, y: np.maximum(1.0 - np.abs(x), 0.0) * (1.0 - y))

    def test_zero_field(self):
        g = small_grid()
        v = sample_scalar(g, lambda t, x, y: 0.0 * t)
        ok_t, ok_p, C_T, C_P = trace_poincare_check(v)
        assert C_T == 0.0

    def test_bubble_closed_form_ratio(self):
        # v = (1-|x|)_+ (1-y): all three integrals have closed forms
        g = small_grid(nt=8, nx=64, ny=64)
        a = g.params.a
        v = self.bubble(g)
        Ix = 2.0 / 3.0                       # int (1-|x|)^2
        Iy = (1 / (1 + a) - 2 / (2 + a) + 1 / (3 + a))  # int y^a (1-y)^2
        Iya = 1.0 / (1.0 + a)                # int y^a
        T = 2.0                              # time measure
        thick = T * Ix * Iy
        grad = T * (2.0 * Iy + Ix * Iya)     # v_x^2 + v_y^2 parts
        thin = T * Ix
        ok_t, ok_p, C_T, C_P = trace_poincare_check(v)
        assert ok_t and ok_p
        assert C_T == pytest.approx(thin / (thick + grad), rel=2e-2)
        assert C_P == pytest.approx(thick / grad, rel=2e-2)

    def test_matches_exact_time_reference(self):
        # every integrand is the square of a field piecewise linear in t:
        # per step, int (v_k (1 - u) + v_k+1 u)^2 = h (v_k^2 + v_k v_k+1
        # + v_k+1^2) / 3
        g = small_grid(nt=6, nx=16, ny=16)
        v = sample_scalar(g, lambda t, x, y: (t * (1.0 - np.abs(x))
                                              + np.cos(3.0 * t) * x) * (1.0 - y))

        def exact_sq(vals):
            lo, hi = vals[:-1], vals[1:]
            return g.dt * np.sum(lo * lo + lo * hi + hi * hi, axis=0) / 3.0

        wm = g.weighted_cell_measures()
        thick_v = np.sum(wm * exact_sq(v.values))
        thick_g = sum(np.sum(wm * exact_sq(d)) for d in g.gradient(v.values))
        thin_v = np.sum(g.x_cell_measures() * exact_sq(g.trace_at_zero(v.values)))
        _, _, C_T, C_P = trace_poincare_check(v)
        assert C_T == pytest.approx(thin_v / (thick_v + thick_g), rel=1e-12)
        assert C_P == pytest.approx(thick_v / thick_g, rel=1e-12)

    def test_random_fields_stable_constants(self):
        vals = []
        for nx in (16, 24):
            g = small_grid(nt=10, nx=nx, ny=nx)
            rng = np.random.default_rng(7)
            amp = rng.normal(size=3)
            v = sample_scalar(g, lambda t, x, y: sum(
                amp[k] * np.sin((k + 1) * np.pi * x) * (1.0 - y) ** (k + 1)
                * np.cos(k * t) for k in range(3)))
            _, _, C_T, C_P = trace_poincare_check(v)
            vals.append((C_T, C_P))
        for i in range(2):
            assert vals[1][i] == pytest.approx(vals[0][i], rel=0.12)


class TestComparisonSolve:
    def test_constant_boundary_data(self):
        g = small_grid()
        U = sample_scalar(g, lambda t, x, y: 4.0 + 0.0 * t)
        V = solve_constant_coeff_dirichlet(U, shape=(10, 10, 10))
        assert np.max(np.abs(V.values - 4.0)) < 1e-9

    def test_linear_boundary_data_exact(self):
        g = small_grid()
        U = sample_scalar(g, lambda t, x, y: 1.0 + 2.0 * x + 0.0 * t)
        V = solve_constant_coeff_dirichlet(U, shape=(10, 12, 12))
        X = V.grid.x_centers[0]
        assert np.max(np.abs(V.values - (1.0 + 2.0 * X[None, :, None]))) < 1e-9

    def test_discrete_maximum_principle(self):
        g = small_grid(nt=10, nx=12, ny=10)
        rng = np.random.default_rng(3)
        amp = rng.normal(size=4)
        U = sample_scalar(g, lambda t, x, y: sum(
            amp[k] * np.cos((k + 1) * x + k) * np.cos(k * t + y)
            for k in range(4)))
        V = solve_constant_coeff_dirichlet(U, shape=(8, 10, 10))
        lo, hi = np.min(U.values), np.max(U.values)
        assert np.min(V.values) >= lo - 1e-9
        assert np.max(V.values) <= hi + 1e-9


class TestComparisonCylinder:
    """The comparison cylinder sits at U's center and inside U's grid."""

    @staticmethod
    def closeness(t0):
        g = ParabolicGrid(P, nt=16, nx=16, ny=16, center=(t0,))
        data = lambda t, x: 0.1 * np.cos(2 * x) * (1.0 + t - t0)
        U = solve_extension(g, CoefficientField.identity(1), f=data,
                            initial=lambda x, y: 0.0 * x)
        return closeness_experiment(U, shape=(12, 12, 12))

    def test_shifted_center_gives_the_same_eps(self):
        ref, shifted = self.closeness(0.0), self.closeness(5.0)
        assert ref["eps_weighted"] > 1e-3 and ref["eps_trace"] > 1e-3
        for key in ("eps_weighted", "eps_trace"):
            assert shifted[key] == pytest.approx(ref[key], rel=1e-9)

    @pytest.mark.parametrize("rho, t_range", [(0.4, None), (1.0, (-1.0, 0.5))])
    def test_cylinder_outside_the_grid_raises(self, rho, t_range):
        g = ParabolicGrid(P, rho=rho, nt=8, nx=8, ny=8, t_range=t_range)
        U = sample_scalar(g, lambda t, x, y: 1.0 + 0.0 * t)
        with pytest.raises(ValueError, match="comparison cylinder"):
            solve_constant_coeff_dirichlet(U, shape=(6, 6, 6))


class TestCloseness:
    def test_zero_perturbation_linear_exact(self):
        # x-linear fields solve both problems exactly, so the comparison
        # distance collapses to solver tolerance
        g = small_grid(nt=16, nx=16, ny=16)
        lin = lambda t, x, y: 1.0 + 0.7 * x + 0.0 * y
        U = solve_extension(g, CoefficientField.identity(1),
                            lateral_dirichlet=lin,
                            initial=lambda x, y: 1.0 + 0.7 * x + 0.0 * y)
        rep = closeness_experiment(U, shape=(12, 12, 12))
        assert rep["eps_weighted"] < 1e-8
        assert rep["eps_trace"] < 1e-8

    def test_delta_sweep_monotone(self):
        g = small_grid(nt=16, nx=16, ny=16)
        eps_values = []
        for delta in (0.1, 0.05, 0.025):
            data = lambda t, x: delta * np.cos(2 * x) + 0.0 * t
            U = solve_extension(g, CoefficientField.identity(1), f=data,
                                initial=lambda x, y: 0.0 * x)
            rep = closeness_experiment(U, f=data, delta=delta,
                                       shape=(12, 12, 12))
            assert rep["smallness"]["satisfied"] in (True, False)
            eps_values.append(rep["eps_weighted"])
        assert eps_values[0] >= eps_values[1] >= eps_values[2] - 1e-12

    def test_smallness_time_linear_data_closed_form(self):
        # f = F_1 = t over (-1, 1) x (-1, 1): int f^2 = 4/3, and the
        # weighted int y^a F_1^2 = 4/3 * 1/(1 + a)
        g = small_grid(nt=16, nx=16, ny=16)
        f = lambda t, x: t + 0.0 * x
        U = solve_extension(g, CoefficientField.identity(1), f=f)
        rep = closeness_experiment(U, f=f, F=lambda t, x: (t + 0.0 * x,),
                                   delta=0.5, shape=(12, 12, 12))
        assert rep["smallness"]["f_sq"] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert rep["smallness"]["F_sq"] == pytest.approx(
            4.0 / 3.0 / (1.0 + g.params.a), rel=1e-12)

    def test_smallness_flags(self):
        g = small_grid()
        big = lambda t, x: 10.0 + 0.0 * x
        U = solve_extension(g, CoefficientField.identity(1), f=big,
                            initial=lambda x, y: 0.0 * x)
        rep = closeness_experiment(U, f=big, delta=0.01, shape=(8, 8, 8))
        assert not rep["smallness"]["satisfied"]


class TestRegularityEstimates:
    def zero_flux_solution(self, g, seed=4):
        rng = np.random.default_rng(seed)
        amp = rng.normal(size=3)
        bdata = lambda t, x, y: sum(amp[k] * np.cos((k + 1) * x) *
                                    np.exp(-(k + 1) * t) for k in range(3))
        return solve_extension(g, CoefficientField.identity(1),
                               lateral_dirichlet=bdata,
                               initial=lambda x, y: bdata(-1.0, x, y))

    def test_constant_solution(self):
        g = small_grid()
        W = sample_scalar(g, lambda t, x, y: 3.0 + 0.0 * t)
        rep = regularity_estimates_check(W)
        assert all(v == 0.0 for v in rep.C_derivative.values())

    @pytest.mark.parametrize("c", [3.0, -0.5])
    def test_max_vs_l2_constant_closed_form(self, c):
        # |W| = |c| everywhere, and the weighted L^2 norm over Q*_(1/2) is
        # |c| sqrt(0.5 * 1 * int_0^(1/2) y^a dy), exact on the grid
        g = small_grid()
        a = g.params.a
        W = sample_scalar(g, lambda t, x, y: c + 0.0 * t)
        rep = regularity_estimates_check(W)
        expect = 1.0 / math.sqrt(0.5 * 1.0 * 0.5 ** (1.0 + a) / (1.0 + a))
        assert rep.C_max_vs_l2 == pytest.approx(expect, rel=1e-12)

    def test_linear_solution_has_zero_normal_derivative(self):
        g = small_grid()
        W = sample_scalar(g, lambda t, x, y: 2.0 * x + 0.0 * t)
        rep = regularity_estimates_check(W)
        assert rep.C_y_derivative < 1e-9

    @pytest.mark.parametrize("nx, ny", [(12, 8), (8, 12)])
    def test_n2_raises(self, nx, ny):
        g = ParabolicGrid(FracParams(s=0.75, n=2), nt=6, nx=nx, ny=ny)
        W = sample_scalar(g, lambda t, x1, x2, y: 10.0 * x2 + y + 0.0 * t)
        with pytest.raises(NotImplementedError):
            regularity_estimates_check(W)

    def test_refinement_stability_of_y_derivative_ratio(self):
        ratios = []
        for nx in (16, 24):
            g = small_grid(nt=nx, nx=nx, ny=nx)
            W = self.zero_flux_solution(g)
            rep = regularity_estimates_check(W)
            ratios.append(rep.C_y_derivative)
        assert all(np.isfinite(r) for r in ratios)
        assert ratios[1] <= 2.0 * ratios[0] + 0.1


class TestUniqueness:
    """Two independent solvers of the same discrete problem agree: the
    separable solve and the SuperLU march on the assembled operator.
    Discretization uniqueness shows as a near-zero weighted space-time L^2
    distance."""

    @staticmethod
    def distance(g, **data):
        U = solve_extension(g, CoefficientField.identity(1), **data)
        ref = _reference_march(g, CoefficientField.identity(1), **data)
        return math.sqrt(g.weighted_norm_sq(U.values - ref))

    def test_zero_data(self):
        assert self.distance(small_grid(nt=6, nx=8, ny=8)) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_instances(self, seed):
        d = self.distance(small_grid(nt=6, nx=10, ny=10),
                          f=smooth_random_data(seed),
                          lateral_dirichlet=lambda t, x, y: 0.1 * x + 0.0 * t,
                          initial=lambda x, y: 0.1 * x + 0.0 * y)
        assert d <= 1e-9
