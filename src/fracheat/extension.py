"""Finite-volume solver for the degenerate weighted problem

    y^a dU/dt - div(y^a B(x) grad U) = -div(y^a F)   in Q*_rho
    -y^a dU/dy |_(y=0) = f                           on the bottom face

with Dirichlet data on the lateral and top boundary and an initial slice,
plus the weak-form verification suite (energy estimate, trace/Poincare
constants, Steklov averaging, comparison solve).

Discretization: cell-centered finite volumes with harmonic-mean face
coefficients; the weight enters through exact cell measures int y^a dy and
exact inter-center resistances int y^-a dy, so y^a is never evaluated at
y = 0 and x-linear steady states are reproduced exactly.  Time stepping is
implicit Euler.

The step operator is a sum of Kronecker products,
Kx (x) Wy + Mx (x) Ky + (Mx (x) Wy) / dt, for any diagonal A(x).
In the axis-separable reference of A, each a_dd is averaged over the other
axes; it is A itself at n = 1 and whenever a_dd depends on x_d only.  The
reference is solved by fast diagonalization: one nx x nx eigenbasis per
x-axis decouples each step into one tridiagonal y-problem per x-eigenmode
(see `_separable_solver`); every 1-D two-point operator comes from
`_two_point`.  Every step runs conjugate gradients on the true step
operator, started from and preconditioned by that solve.  Memory is linear
in the unknowns.  The step operator is applied as a stencil, never
assembled; every step's backward error is checked on it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy

from .grids import ParabolicGrid, ScalarField, sample_thin

__all__ = [
    "CoefficientField",
    "EnergyReport",
    "RegularityReport",
    "solve_extension",
    "steklov_average",
    "energy_report",
    "trace_poincare_check",
    "solve_constant_coeff_dirichlet",
    "closeness_experiment",
    "regularity_estimates_check",
]


@dataclass
class CoefficientField:
    """Diagonal uniformly elliptic x -> A(x) with declared ellipticity
    bounds and (optionally) a declared oscillation modulus.

    fn maps stacked points (m, n) to the diagonal of A, shape (m, n): the
    two-point flux assembly reads nothing else, so n = 2 runs are restricted
    to diagonal anisotropy at desk scale.  The extension problem's block
    coefficient diag(A, 1) is implicit: the y direction always carries
    coefficient 1.
    """

    fn: object
    n: int = 1
    lam_ell: float = 1.0
    Lam_ell: float = 1.0
    modulus: object | None = None
    name: str = "coefficient"

    @classmethod
    def identity(cls, n: int = 1) -> "CoefficientField":
        def fn(x):
            return np.ones(np.atleast_2d(x).shape)
        return cls(fn=fn, n=n, lam_ell=1.0, Lam_ell=1.0, name="identity")

    def _diagonal(self, x_points: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x_points, dtype=float)).reshape(-1, self.n)
        A = np.asarray(self.fn(x), dtype=float)
        if A.shape != x.shape:
            raise ValueError(f"coefficient fn returned shape {A.shape}")
        return A

    def axis_values(self, x_points: np.ndarray, axis: int) -> np.ndarray:
        return self._diagonal(x_points)[:, axis]

    def verify_ellipticity(self, x_points: np.ndarray) -> bool:
        """lam_ell <= eig(A) <= Lam_ell at the points, to 1e-10."""
        eig = self._diagonal(x_points)
        return bool(np.all(eig >= self.lam_ell - 1e-10)
                    and np.all(eig <= self.Lam_ell + 1e-10))

    def oscillation_check(self, x_points: np.ndarray, radii) -> bool:
        """Measured sup_(|x-x'| <= r) |A(x) - A(x')| <= modulus(r) on pairs,
        |.| the Frobenius norm."""
        if self.modulus is None:
            return True
        x = np.atleast_2d(np.asarray(x_points, dtype=float))
        A = self._diagonal(x)
        d = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
        osc = np.linalg.norm(A[:, None] - A[None, :], axis=-1)
        ok = True
        for r in np.atleast_1d(radii):
            mask = d <= r
            if np.any(mask):
                ok &= bool(np.max(osc[mask]) <= float(self.modulus(r)) + 1e-12)
        return ok


def _load_flapack():
    """scipy's compiled LAPACK wrappers, the module `scipy.linalg.lapack`
    re-exports, loaded by file path under a private name.  Importing
    `scipy.linalg` runs its package init first, whose array-API support
    imports numpy.f2py, numpy.testing, numpy.random and numpy.ma: over half
    of a benchmark run's set-up CPU and about 19 MB of its peak memory,
    none of which a solve uses.  The top-level scipy import, which is
    cheap, makes scipy's bundled libraries loadable."""
    path = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.exists(path + suffix):
            spec = importlib.util.spec_from_file_location(
                __name__.rpartition(".")[0] + "._flapack", path + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's LAPACK wrappers not found: no {path} with "
                      f"a suffix in {importlib.machinery.EXTENSION_SUFFIXES}")


_flapack = _load_flapack()


def _lattice_points(axis_arrays):
    mesh = np.meshgrid(*axis_arrays, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _harmonic(a):
    return 2.0 * a[:-1] * a[1:] / (a[:-1] + a[1:])


def _two_point(c):
    """The tridiagonal (main, off) of the 1-D two-point operator whose m + 1
    face conductances c run along axis 0, both boundary faces included:
    cell i couples to its neighbours through faces i and i + 1."""
    return c[:-1] + c[1:], -c[1:-1]


def _assemble(grid: ParabolicGrid, coeff: CoefficientField):
    """Stencil of the stiffness operator L = Kx (x) Wy + Mx (x) Ky, its
    axis-separable reference, and where the Dirichlet datum enters.

    Returns (weights, diag, factors, x_area, ky, dirichlet):
    weights[k] (spatial shape, x-major, y fastest) couples each cell to its
    successor along axis k (0 at the last cell), an x face's transmissibility
    times w_y or x_area / res_y, x_area the x-cell measures; diag is L's
    flat diagonal; factors[d] = (main, off, w_d), the reference's
    tridiagonal 1-D stiffness along axis d and its cell widths; ky = (main,
    off), the tridiagonal y-stiffness per unit x-area; dirichlet = (cells,
    T, face_points) for each Dirichlet face point, lateral patches first.
    """
    n, nx, ny, dx = grid.n, grid.nx, grid.ny, grid.dx
    xidx = np.arange(nx ** n).reshape((nx,) * n)
    xc = _lattice_points(grid.x_centers)                # (nx^n, n)
    x_area = grid.x_cell_measures()                     # (nx,)*n
    face = dx ** (n - 1)                                # x-face area

    weights, factors, dirichlet = [], [], []
    kx_diag = np.zeros(x_area.shape)
    for axis in range(n):
        a_cell = np.moveaxis(coeff.axis_values(xc, axis).reshape((nx,) * n),
                             axis, 0)
        c = np.moveaxis(xidx, axis, 0)
        Tb, tb = [], []                 # lateral faces of A, of the reference
        for side in (0, -1):
            axes = list(grid.x_centers)
            axes[axis] = np.array([grid.x_faces[axis][side]])
            a_face = coeff.axis_values(_lattice_points(axes), axis)
            Tb.append(a_face.reshape(c[:1].shape) * face / (dx / 2.0))
            tb.append([a_face.mean() / (dx / 2.0)])
            dirichlet.append(((c[side].ravel()[:, None] * ny
                               + np.arange(ny)).ravel(),
                              np.multiply.outer(Tb[-1], grid.w_y).ravel(),
                              _lattice_points(axes + [grid.y_centers])))
        # the nx + 1 faces of axis d, along the first axis
        T = np.concatenate([Tb[0], _harmonic(a_cell) * face / dx, Tb[1]])
        t_in = _harmonic(a_cell.reshape(nx, -1).mean(axis=1)) / dx
        t = np.concatenate([tb[0], t_in, tb[1]])
        kx_main, kx_off = _two_point(T)
        kx_diag += np.moveaxis(kx_main, 0, axis)
        succ = np.concatenate([-kx_off, np.zeros_like(T[:1])])  # last: none
        weights.append(np.multiply.outer(np.moveaxis(succ, 0, axis), grid.w_y))
        factors.append((*_two_point(t), np.diff(grid.x_faces[axis])))

    # y faces: coefficient 1, exact resistances, none at y = 0 (the Neumann
    # datum enters the right-hand side); top face (y = rho) Dirichlet
    ky = _two_point(np.concatenate([[0.0], 1.0 / grid.res_y,
                                    [1.0 / grid.res_top]]))
    weights.append(np.multiply.outer(x_area, np.append(-ky[1], 0.0)))
    diag = (np.multiply.outer(kx_diag, grid.w_y)
            + np.multiply.outer(x_area, ky[0])).ravel()
    dirichlet.append((xidx.ravel() * ny + ny - 1,
                      x_area.ravel() / grid.res_top,
                      _lattice_points(list(grid.x_centers)
                                      + [np.array([grid.rho])])))
    dirichlet = tuple(np.concatenate(part) for part in zip(*dirichlet))
    return weights, diag, factors, x_area, ky, dirichlet


def _step_operator(D, weights):
    """The maps u -> A u and u -> |A| u of the step operator A = diag(D) - N
    on the flat unknowns, N >= 0 the neighbour sum of `_assemble`'s weights,
    so |A| = diag(D) + N.  A cell's successor on axis k is a stride on."""
    shape = weights[0].shape
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]

    def stencil(sign):
        offsets = [(k, sign * w.ravel()[:-k])
                   for k, w in zip(strides, weights)]
        def apply(u):
            out = D * u
            for k, w in offsets:
                out[:-k] += w * u[k:]
                out[k:] += w * u[:-k]
            return out
        return apply
    return stencil(-1.0), stencil(1.0)


def _eigenbasis(main, off, w):
    """(mu, V) with K V = diag(w) V diag(mu) and V^T diag(w) V = I, for the
    tridiagonal K = (main, off): LAPACK's divide and conquer (dstevd; Gu
    and Eisenstat 1995) on diag(w)^-1/2 K diag(w)^-1/2."""
    mu, Q, info = _flapack.dstevd(main / w, off / np.sqrt(w[:-1] * w[1:]))
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed (info={info})")
    return mu, Q / np.sqrt(w)[:, None]


def _separable_solver(factors, ky, w_y, dt):
    """Solve (Mx (x) Wy / dt + L) u = b by fast diagonalization in x
    (Lynch, Rice and Thomas 1964), L the separable reference.

    V_d from `_eigenbasis` takes M_d to I and K_d to diag(mu_d).  So
    V = V_0 (x) ... (x) V_(n-1), applied as n mode products, decouples each
    x-eigenmode into the tridiagonal y-problem Ky + (mu_i + 1/dt) Wy, mu the
    outer sum of the mu_d.  Each is symmetric positive definite
    (Ky a weakly dominant M-matrix, mu_i >= 0, Wy > 0), so the stacked
    y-problems are factored once as LDL^T without pivoting (LAPACK dpttrf)
    and applied per step (dpttrs).

    x is the direction diagonalized because its mesh is uniform.  On the
    graded y-mesh (resistances spanning about 10 decades at s = 3/4 and
    ny = 128) a y-eigenbasis solve measured a componentwise backward error
    of 3.5e-9 at ny = 100 and 1.5e-4 at 128^3.  This one's starts measured
    at most 8.4e-14 on the benchmark's n = 1 dual route (128^3, seed 101,
    first pass); the graded case in `solve_extension` is the worst known.
    """
    V, mu = [], 0.0
    for factor in factors:
        mu_d, V_d = _eigenbasis(*factor)
        V.append(V_d)
        mu = np.add.outer(mu, mu_d)
    nx, nmodes = V[0].shape[0], mu.size
    main = (ky[0] + np.multiply.outer(mu.ravel() + 1.0 / dt, w_y)).ravel()
    off = np.tile(np.append(ky[1], 0.0), nmodes)[:-1]
    d, e, info = _flapack.dpttrf(main, off)
    if info != 0:
        raise RuntimeError(f"tridiagonal factorization failed (info={info})")

    VT = [v.T for v in V]

    def modes(b, mats):
        for axis, W in enumerate(mats):     # of the (nx,)*n x ny array
            b = W @ b.reshape(nx ** axis, nx, -1)
        return b.ravel()

    def solve(b):
        uh, _ = _flapack.dpttrs(d, e, modes(b, VT))
        return modes(uh, V)
    return solve


# The preconditioned condition number is at most (Lam/lam)^2, so the two
# restart cycles of a step take at most about 15 Lam/lam iterations: a
# bound of 35 for the checkerboard at eps = 0.4, which measured 12 to 18
_CG_MAXITER = 200
# each step's componentwise backward-error target, and the budget whose
# excess raises
_RTOL = 1e-12
_BUDGET = 1e-9


def _pcg(A, A_abs, b, u, precond):
    """Preconditioned CG on A u = b from u until the componentwise backward
    error max |b - A u| / (|A| |u| + |b|) is at most `_RTOL`, or
    `_CG_MAXITER` iterations; A and A_abs apply A and |A|.  Returns (u,
    backward error, iterations); a start that already meets `_RTOL` comes
    back as it is, after 0 iterations.  A backward error that is not
    finite raises; NaN or +-inf in u or b make it NaN.  Each pass of CG
    starts from the true residual b - A u and ends once its recurrence
    residual r meets `_RTOL` / 2 against the pass's starting |A| |u| + |b|,
    or has shrunk by 1e-6 in the 2-norm; the true residual is then measured
    again.  The two drift apart by rounding, and on the graded y-mesh the
    true one stalled near 1e-11 while the recurrence went on (recomputing
    it every iteration instead diverged).  A pass that makes no iteration
    ends the solve."""
    its = 0
    while True:
        r = b - A(u)
        den = np.maximum(A_abs(np.abs(u)) + np.abs(b), 1e-300)
        res = float(np.max(np.abs(r) / den))
        if not math.isfinite(res):
            raise RuntimeError("linear solve produced non-finite values")
        if res <= _RTOL or its >= _CG_MAXITER:
            return u, res, its
        stop, p, rz, start = 1e-6 * np.linalg.norm(r), 0.0, 1.0, its
        while (its < _CG_MAXITER and np.linalg.norm(r) > stop
               and np.max(np.abs(r) / den) > 0.5 * _RTOL):
            z = precond(r)
            rz, rz_old = float(r @ z), rz
            p = z + (rz / rz_old) * p
            Ap = A(p)
            alpha = rz / float(p @ Ap)
            u = u + alpha * p
            r = r - alpha * Ap
            its += 1
        if its == start:
            return u, res, its


def _as_vector_array(grid, data):
    """F-like data (callable (t, x...) returning n components, or None) to
    (nt+1, nx..., n+1) with vanishing last component."""
    arr = np.zeros((grid.nt + 1,) + (grid.nx,) * grid.n + (grid.n + 1,))
    if data is not None:
        comps = data(*np.meshgrid(grid.t_nodes, *grid.x_centers, indexing="ij"))
        for d in range(grid.n):
            arr[..., d] = comps[d]
    return arr


def _face_divergence(grid, F_arr, x_area):
    """Flux of the divergence forcing F through the x faces of each x-cell
    per unit y-weight, at every time level: (nt+1, nx^n).  Face values
    average the two neighbouring cells and copy the boundary cell."""
    div = np.zeros((grid.nt + 1,) + x_area.shape)
    for axis in range(grid.n):
        Fm = np.moveaxis(F_arr[..., axis], axis + 1, 1)
        faces = np.concatenate([Fm[:, :1], 0.5 * (Fm[:, 1:] + Fm[:, :-1]),
                                Fm[:, -1:]], axis=1)
        cross = np.moveaxis(x_area, axis, 0) / \
            (grid.x_faces[axis][1] - grid.x_faces[axis][0])
        div += np.moveaxis((faces[:, 1:] - faces[:, :-1]) * cross, 1, axis + 1)
    return div.reshape(grid.nt + 1, -1)


def _step_rhs(grid, x_area, dirichlet, f, F, lateral):
    """level -> the right-hand side of the step equations at that time level.

    The bottom Neumann flux + int_face f (y = 0 cells) and, unless F is
    None, the divergence forcing - (x-face flux of F) w_y (every cell) are
    evaluated once for all levels and kept as thin arrays.  The Dirichlet
    datum g is evaluated per level, at every face point in one call; a cell
    sums its terms T g in patch order.  One call for all levels would make
    temporaries of (nt+1) x (face points); at 128^3 they raised the solve's
    peak RSS by about 1.8 MB.
    """
    bottom = sample_thin(grid, f).reshape(grid.nt + 1, -1) * x_area.ravel()
    div = None if F is None else _face_divergence(
        grid, _as_vector_array(grid, F), x_area)
    cells, T, face_points = dirichlet
    cols = [face_points[:, d] for d in range(face_points.shape[1])]

    def rhs_at(level):
        rhs = (np.zeros((x_area.size, grid.ny)) if div is None
               else np.multiply.outer(-div[level], grid.w_y))
        rhs[:, 0] += bottom[level]
        rhs = rhs.ravel()
        if lateral is not None:
            t = np.full(T.size, grid.t_nodes[level])
            g = np.asarray(lateral(t, *cols), dtype=float) * np.ones(T.size)
            rhs += np.bincount(cells, weights=T * g, minlength=rhs.size)
        return rhs
    return rhs_at


def solve_extension(grid: ParabolicGrid, coeff: CoefficientField, f=None,
                    F=None, lateral_dirichlet=None, initial=None) -> ScalarField:
    """March the degenerate problem over the grid's time window by implicit
    Euler.

    The data are callables or None (zero): f the bottom Neumann flux datum
    f(t, x...), F the divergence forcing F(t, x...) returning its n
    tangential components, lateral_dirichlet the Dirichlet datum
    g(t, x..., y) on the lateral and top boundary, initial(x..., y) the
    slice at the first time node.

    Each step is one `_pcg` solve: conjugate gradients on the true step
    operator, started from and preconditioned by the separable solve of A's
    reference (Concus and Golub 1973), to a componentwise backward error of
    `_RTOL`.  Where A is its own reference (always at n = 1) the start
    meets it and CG takes no iteration, except on strongly graded y-meshes:
    at 128^3, s = 0.79 and xi = 1.95, the starts measured a median 5.2e-12
    and at most 3.2e-10 with CG refining each step, and 6.0e-12 and 3.4e-9
    when every step keeps its start.

    The returned field's meta records the worst backward error, the
    per-step mass balance and the CG iterations; a backward error above
    `_BUDGET` raises.
    """
    if coeff.n != grid.n:
        raise ValueError("coefficient dimension mismatch")
    weights, diag, factors, x_area, ky, bc = _assemble(grid, coeff)
    mass = grid.weighted_cell_measures().ravel()
    nfull = mass.size
    dt = grid.dt
    A_step, A_abs = _step_operator(mass / dt + diag, weights)
    precond = _separable_solver(factors, ky, grid.w_y, dt)
    rhs_at = _step_rhs(grid, x_area, bc, f, F, lateral_dirichlet)

    if initial is None:
        u = np.zeros(nfull)
    else:
        mesh = np.meshgrid(*grid.x_centers, grid.y_centers, indexing="ij")
        u = (np.asarray(initial(*mesh), dtype=float)
             * np.ones(grid.spatial_shape)).ravel()

    out = np.empty((grid.nt + 1, nfull))
    out[0] = u
    worst_res = 0.0
    iterations = 0
    mass_hist = [float(np.dot(mass, u))]
    for m in range(grid.nt):
        b = mass / dt * u + rhs_at(m + 1)
        u, res, its = _pcg(A_step, A_abs, b, precond(b), precond)
        worst_res = max(worst_res, res)
        iterations += its
        out[m + 1] = u
        mass_hist.append(float(np.dot(mass, u)))
    if worst_res > _BUDGET:
        raise RuntimeError(f"linear solve residual {worst_res:.2e} exceeds budget")
    values = out.reshape((grid.nt + 1,) + grid.spatial_shape)
    return ScalarField(grid, values, meta={
        "residual": worst_res, "cg_iterations": iterations,
        "mass_history": np.asarray(mass_hist),
    })


def steklov_average(fld: ScalarField, h: float) -> ScalarField:
    """Forward time mollification (1/h) int_t^(t+h) U; exact on the
    piecewise-linear-in-time interpolant.  The result lives on the clipped
    time window where [t, t+h] stays inside the field."""
    grid = fld.grid
    if h <= 0.0:
        raise ValueError("h must be positive")
    t_lo, t_hi = grid.t_range
    if h >= t_hi - t_lo:
        raise ValueError("averaging window exceeds the time interval")
    nt_new = max(1, int(round((t_hi - t_lo - h) / grid.dt)))
    new_grid = ParabolicGrid(grid.params, rho=grid.rho, nt=nt_new, nx=grid.nx,
                             ny=grid.ny, q=grid.q, center=grid.center,
                             t_range=(t_lo, t_hi - h))
    flat = fld.values.reshape(grid.nt + 1, -1)
    out = np.empty((nt_new + 1, flat.shape[1]))
    for m, t in enumerate(new_grid.t_nodes):
        w = grid.time_weights(t, t + h)
        out[m] = (w @ flat) / h
    return ScalarField(new_grid, out.reshape((nt_new + 1,) + grid.spatial_shape),
                       meta={"steklov_h": h})


@dataclass
class EnergyReport:
    lhs_sup: float
    lhs_grad: float
    rhs_data: float
    rhs_trace: float
    rhs_initial: float
    C_emp: float
    vacuous: bool


def energy_report(U: ScalarField, f=None, F=None, cutoff=None,
                  window: tuple | None = None) -> EnergyReport:
    """Evaluate every term of the Caccioppoli-type energy inequality on the
    discrete solution and report the smallest constant making it hold:

        sup_t int y^a U^2 phi^2 + int int y^a phi^2 |grad U|^2
          <= C [ int int y^a ((|d_t(phi^2)| + |grad phi|^2) U^2 + |F|^2 phi^2)
                 + int int_(y=0) phi^2 |U| |f| ]  + int y^a U^2 phi^2 (t_1).
    """
    grid = U.grid
    t1, t2 = window if window is not None else grid.t_range
    if cutoff is None:
        cutoff = lambda t, *xy: np.ones_like(t)
    mesh = grid.meshgrid()
    phi = np.asarray(cutoff(*mesh), dtype=float) * np.ones(grid.shape)
    wmeas = grid.weighted_cell_measures()
    # exact in time on the piecewise-linear interpolants of both factors
    prod = lambda u, v, w: float(np.sum(
        w * grid.time_integral_product(u, v, t1, t2)))

    grads_phi = grid.gradient(phi)
    grad_phi_sq = sum(gp ** 2 for gp in grads_phi)
    dphi2_dt = np.abs(grid.time_derivative(phi ** 2))

    f_arr = sample_thin(grid, f)
    F_arr = _as_vector_array(grid, F)

    # einsum, not a threaded BLAS gemv (see time_integral_product)
    spatial = lambda vals: np.einsum("ti,i->t", vals.reshape(len(vals), -1),
                                     wmeas.ravel())
    in_window = (grid.t_nodes >= t1 - 1e-14) & (grid.t_nodes <= t2 + 1e-14)
    lhs_sup = float(np.max(spatial(U.values ** 2 * phi ** 2)[in_window]))
    lhs_grad = 0.0
    for gu in grid.gradient(U.values):
        pg = phi * gu
        lhs_grad += prod(pg, pg, wmeas)
    rhs_data = prod((dphi2_dt + grad_phi_sq) * U.values, U.values, wmeas)
    for d in range(grid.n):   # the normal component of F vanishes
        phiF = phi * F_arr[..., d][..., None]
        rhs_data += prod(phiF, phiF, wmeas)
    # thin trace term
    tr_u = np.abs(grid.trace_at_zero(U.values))
    phi0 = grid.trace_at_zero(phi)
    rhs_trace = prod(phi0 ** 2 * tr_u, np.abs(f_arr), grid.x_cell_measures())
    k1 = int(np.argmax(in_window))
    rhs_initial = float(spatial(U.values ** 2 * phi ** 2)[k1])

    denom = rhs_data + rhs_trace
    num = max(lhs_sup + lhs_grad - rhs_initial, 0.0)
    vacuous = denom < 1e-14 * max(num, 1.0)
    C_emp = 0.0 if vacuous and num <= 1e-14 else (math.inf if vacuous else num / denom)
    return EnergyReport(lhs_sup, lhs_grad, rhs_data, rhs_trace, rhs_initial,
                       C_emp, vacuous)


def trace_poincare_check(v: ScalarField):
    """Empirical trace and weighted Poincare constants for a field vanishing
    on the lateral/top boundary:

        int_thin v(.,0)^2 <= C_T (int y^a v^2 + int y^a |grad v|^2)
        int y^a v^2       <= C_P  int y^a |grad v|^2
    """
    grid = v.grid
    thick_v = grid.weighted_norm_sq(v.values)
    thick_g = sum(grid.weighted_norm_sq(g) for g in grid.gradient(v.values))
    thin_v = float(np.sum(grid.x_cell_measures()
                          * grid.time_integral_sq(grid.trace_at_zero(v.values))))
    C_T = thin_v / max(thick_v + thick_g, 1e-300)
    C_P = thick_v / max(thick_g, 1e-300)
    return (math.isfinite(C_T), math.isfinite(C_P), C_T, C_P)


def solve_constant_coeff_dirichlet(U: ScalarField,
                                   shape: tuple | None = None) -> ScalarField:
    """Comparison solve: zero-flux constant-coefficient problem on the
    subcylinder (t0 - 1/2, t0 + 3/4) x B_(1/2)(x0) x (0, 1/2) around U's
    center (t0, x0), with Dirichlet data taken from U on the initial slice,
    lateral sides, and top.  Raises ValueError when the subcylinder does
    not fit inside U's grid."""
    g = U.grid
    t0 = g.center[0]
    if g.rho < 0.5 or t0 - 0.5 < g.t_range[0] or t0 + 0.75 > g.t_range[1]:
        raise ValueError("the comparison cylinder does not fit inside U's grid")
    if shape is None:
        shape = (g.nt, g.nx, g.ny)
    nt2, nx2, ny2 = shape
    sub = ParabolicGrid(g.params, rho=0.5, nt=nt2, nx=nx2, ny=ny2, q=g.q,
                        center=g.center, t_range=(t0 - 0.5, t0 + 0.75))

    def from_U(t, *coords):
        # lateral data arrive as flat columns, initial data as the slice mesh
        cols = np.broadcast_arrays(t, *coords)
        pts = np.column_stack([np.asarray(c, dtype=float).ravel() for c in cols])
        return g.interp(U.values, pts).reshape(cols[0].shape)

    return solve_extension(sub, CoefficientField.identity(g.n), f=None, F=None,
                           lateral_dirichlet=from_U,
                           initial=lambda *c: from_U(sub.t_nodes[0], *c))


def closeness_experiment(U: ScalarField, f=None, F=None,
                         coeff: CoefficientField | None = None,
                         delta: float | None = None,
                         shape: tuple | None = None) -> dict:
    """Distance of U to the zero-flux constant-coefficient comparison
    solution V on the half cylinder: the thick weighted squared distance
    over Q*_(1/2) and the thin squared trace distance over Q_(1/2), both
    around U's center.

    When delta is given the smallness of the data (squared L^2 of f, the
    weighted squared L^2 of F, and the declared coefficient oscillation at
    scale 1) is checked against delta^2 and flagged."""
    g = U.grid
    V = solve_constant_coeff_dirichlet(U, shape=shape)
    sub = V.grid
    pts_mesh = sub.meshgrid()
    pts = np.stack([m.ravel() for m in np.broadcast_arrays(*pts_mesh)], axis=-1)
    U_on_sub = g.interp(U.values, pts).reshape(sub.shape)
    diff = U_on_sub - V.values
    eps_thick_sq = sub.weighted_norm_sq(diff, center=g.center, radius=0.5)
    eps_thin_sq = float(np.sum(sub.x_cell_measures() * sub.time_integral_sq(
        sub.trace_at_zero(diff), g.center[0] - 0.25, g.center[0] + 0.25)))

    report = {"eps_weighted_sq": eps_thick_sq, "eps_trace_sq": eps_thin_sq,
              "eps_weighted": math.sqrt(max(eps_thick_sq, 0.0)),
              "eps_trace": math.sqrt(max(eps_thin_sq, 0.0))}
    if delta is not None:
        f_arr = sample_thin(g, f)
        F_arr = _as_vector_array(g, F)
        f_sq = float(np.sum(g.x_cell_measures() * g.time_integral_sq(f_arr)))
        F_sq = sum(g.weighted_norm_sq(F_arr[..., d, None] * np.ones(g.shape))
                   for d in range(g.n))
        osc = float(coeff.modulus(1.0)) if (coeff is not None
                                            and coeff.modulus is not None) else 0.0
        report["smallness"] = {
            "f_sq": f_sq, "F_sq": F_sq, "coeff_osc_at_1": osc,
            "delta_sq": delta ** 2,
            "satisfied": bool(f_sq <= delta ** 2 and F_sq <= delta ** 2
                              and osc <= delta ** 2),
        }
    return report


@dataclass
class RegularityReport:
    C_derivative: dict
    C_max_vs_l2: float
    C_y_derivative: float
    r: float


def regularity_estimates_check(W: ScalarField) -> RegularityReport:
    """Interior estimates for a zero-flux constant-coefficient solution on
    the cylinder of radius r = 0.5: scaled sup bounds of (d_t, D_x, D_x^2)
    by the oscillation on the double cylinder, the max by the weighted L^2
    norm, and |W_y| <= C ||W|| y over the cylinder's y-layers above the
    first.  Runs at n = 1."""
    grid = W.grid
    if grid.n != 1:
        raise NotImplementedError("the regularity estimates run at n = 1")
    r = 0.5

    def cells_in(rad):
        t, x, y = grid.in_cylinder(rad, grid.t_nodes, *grid.x_centers,
                                   grid.y_centers)
        return t[:, None, None] & x[:, None] & y

    inner, outer = cells_in(r / 2.0), cells_in(r)
    osc = float(np.max(W.values[outer]) - np.min(W.values[outer]))
    scale = float(np.max(np.abs(W.values))) + 1.0
    dt_w = grid.time_derivative(W.values)
    grads = grid.gradient(W.values)
    dxx = np.gradient(grads[0], grid.x_centers[0], axis=1, edge_order=2)
    C_derivative = {}
    for name, arr, order in (("dt", dt_w, 2), ("dx", grads[0], 1), ("dxx", dxx, 2)):
        sup = float(np.max(np.abs(arr[inner])))
        if sup <= 1e-11 * scale:   # derivative at roundoff level: vacuous
            C_derivative[name] = 0.0
        else:
            C_derivative[name] = sup * r ** order / max(osc, 1e-300)

    norm = math.sqrt(grid.weighted_norm_sq(W.values, center=grid.center, radius=r))
    C_max = float(np.max(np.abs(W.values[inner]))) / max(norm, 1e-300)

    full_norm = math.sqrt(grid.weighted_norm_sq(W.values))
    ratio = np.abs(grads[-1][..., 1:]) / (max(full_norm, 1e-300)
                                          * grid.y_centers[1:])
    C_y = float(np.max(ratio[outer[..., 1:]], initial=0.0))
    return RegularityReport(C_derivative, C_max, C_y, r)

