"""Finite-volume solver for the degenerate weighted problem

    y^a dU/dt - div(y^a B(x) grad U) = -div(y^a F)   in Q*_rho
    -y^a dU/dy |_(y=0) = f                           on the bottom face

with Dirichlet data on the lateral and top boundary and an initial slice,
plus the weak-form verification suite (energy estimate, trace/Poincare
constants, Steklov averaging, comparison solve, uniqueness).

Discretization: cell-centered finite volumes with harmonic-mean face
coefficients; the weight enters through exact cell measures int y^a dy and
exact inter-center resistances int y^-a dy, so y^a is never evaluated at
y = 0 and x-linear steady states are reproduced exactly.  Time stepping is
the theta-method (implicit Euler by default, Crank-Nicolson optional).

The step operator is a sum of Kronecker products,
theta (Kx (x) Wy + Mx (x) Ky) + (Mx (x) Wy) / dt, for any diagonal A(x).  It
is solved by fast diagonalization: the x-stiffness Kx is diagonalized once
against the x-cell measures Mx, which decouples each step into one
tridiagonal y-problem per x-eigenmode; the stacked y-problems are factored
once with a pivoted banded LU and applied each step.  The x-direction is
the one diagonalized because its mesh is uniform, so its eigenbasis is well
conditioned; the graded y-mesh's resistances span up to 16 decades, and a
y-eigenbasis loses the componentwise backward-error budget there (see
`_separable_solver`).  Every step's componentwise backward error on the
assembled operator is checked against the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .kernels import FracParams
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
    "uniqueness_check",
]


@dataclass
class CoefficientField:
    """Symmetric uniformly elliptic x -> A(x) with declared ellipticity
    bounds and (optionally) a declared oscillation modulus.

    fn maps stacked points (m, n) to (m, n, n).  The extension problem's
    block coefficient diag(A, 1) is implicit: the y direction always carries
    coefficient 1.  The two-point flux assembly uses the diagonal of A;
    off-diagonal entries are rejected (n = 2 runs are restricted to diagonal
    anisotropy at desk scale).
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
            x = np.atleast_2d(np.asarray(x, dtype=float))
            return np.broadcast_to(np.eye(n), (x.shape[0], n, n)).copy()
        return cls(fn=fn, n=n, lam_ell=1.0, Lam_ell=1.0, name="identity")

    def matrices(self, x_points: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x_points, dtype=float))
        if x.shape[1] != self.n:
            x = x.reshape(-1, self.n)
        A = np.asarray(self.fn(x), dtype=float)
        if A.shape != (x.shape[0], self.n, self.n):
            raise ValueError(f"coefficient fn returned shape {A.shape}")
        return A

    def axis_values(self, x_points: np.ndarray, axis: int) -> np.ndarray:
        A = self.matrices(x_points)
        off = A - A * np.eye(self.n)[None, :, :]
        if np.max(np.abs(off)) > 1e-12:
            raise ValueError("two-point flux assembly needs diagonal A")
        return A[:, axis, axis]

    def verify_ellipticity(self, x_points: np.ndarray, tol: float = 1e-10) -> bool:
        A = self.matrices(x_points)
        eig = np.linalg.eigvalsh(0.5 * (A + np.transpose(A, (0, 2, 1))))
        return bool(np.all(eig >= self.lam_ell - tol)
                    and np.all(eig <= self.Lam_ell + tol))

    def oscillation_check(self, x_points: np.ndarray, radii) -> bool:
        """Measured sup_(|x-x'| <= r) |A(x) - A(x')| <= modulus(r) on pairs."""
        if self.modulus is None:
            return True
        x = np.atleast_2d(np.asarray(x_points, dtype=float))
        A = self.matrices(x)
        ok = True
        for r in np.atleast_1d(radii):
            d = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
            osc = np.linalg.norm(A[:, None] - A[None, :], axis=(-2, -1))
            mask = d <= r
            if np.any(mask):
                ok &= bool(np.max(osc[mask]) <= float(self.modulus(r)) + 1e-12)
        return ok


def _lattice_points(grid, axis_arrays):
    mesh = np.meshgrid(*axis_arrays, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _assemble(grid: ParabolicGrid, coeff: CoefficientField):
    """Tensor factors of the stiffness operator L = Kx (x) Wy + Mx (x) Ky,
    and the Dirichlet coupling list.

    Returns (Kx, x_area, ky, dirichlet): Kx the sparse x-stiffness per unit
    y-weight (x faces and lateral Dirichlet terms), x_area the x-cell
    measures (Mx's diagonal), ky = (main, off) the diagonals of the
    tridiagonal y-stiffness per unit x-area (y faces and the top Dirichlet
    term), Wy = diag(grid.w_y); dirichlet is a list of (cell_index_array,
    transmissibility_array, face_point_array) triples, one per Dirichlet
    boundary patch (lateral faces, then the top face).
    """
    n, nx, ny, dx = grid.n, grid.nx, grid.ny, grid.dx
    xidx = np.arange(nx ** n).reshape((nx,) * n)
    xc = _lattice_points(grid, grid.x_centers)          # (nx^n, n)
    x_area = grid.x_cell_measures()                     # (nx,)*n
    face = dx ** (n - 1)                                # x-face area

    rows, cols, vals = [], [], []
    dirichlet = []
    for axis in range(n):
        a_cell = np.moveaxis(coeff.axis_values(xc, axis).reshape((nx,) * n),
                             axis, 0)
        harm = 2.0 * a_cell[:-1] * a_cell[1:] / (a_cell[:-1] + a_cell[1:])
        T = (harm * face / dx).ravel()
        c = np.moveaxis(xidx, axis, 0)
        c1, c2 = c[:-1].ravel(), c[1:].ravel()
        rows += [c1, c2, c1, c2]
        cols += [c2, c1, c1, c2]
        vals += [-T, -T, T, T]
        for side in (0, -1):
            axes = list(grid.x_centers)
            axes[axis] = np.array([grid.x_faces[axis][side]])
            Tb = coeff.axis_values(_lattice_points(grid, axes), axis) \
                * face / (dx / 2.0)
            xcells = c[side].ravel()
            rows.append(xcells)
            cols.append(xcells)
            vals.append(Tb)
            dirichlet.append(((xcells[:, None] * ny + np.arange(ny)).ravel(),
                              np.multiply.outer(Tb, grid.w_y).ravel(),
                              _lattice_points(grid, axes + [grid.y_centers])))
    Kx = sp.csr_matrix((np.concatenate(vals),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(nx ** n, nx ** n))

    # y faces: coefficient 1, exact resistances; top face (y = rho) Dirichlet
    ky_main = np.zeros(ny)
    ky_main[:-1] += 1.0 / grid.res_y
    ky_main[1:] += 1.0 / grid.res_y
    ky_main[-1] += 1.0 / grid.res_top
    dirichlet.append((xidx.ravel() * ny + ny - 1,
                      x_area.ravel() / grid.res_top,
                      _lattice_points(grid, list(grid.x_centers)
                                      + [np.array([grid.rho])])))
    return Kx, x_area, (ky_main, -1.0 / grid.res_y), dirichlet


def _separable_solver(Kx, x_area, ky, w_y, theta, dt):
    """Solve (Mx (x) Wy / dt + theta L) u = b by fast diagonalization in x.

    With V = Mx^-1/2 Q from the eigenpairs (mu, Q) of Mx^-1/2 Kx Mx^-1/2,
    V^T Mx V = I and V^T Kx V = diag(mu), so each x-eigenmode i decouples
    into the tridiagonal y-problem (theta Ky + (theta mu_i + 1/dt) Wy).
    The stacked y-problems are one tridiagonal matrix, factored once with
    pivoting (LAPACK dgttrf) and applied per step (dgttrs).

    The uniform x-mesh keeps this eigenbasis well conditioned.  The same
    construction in y fails on the graded mesh: at s = 3/4 a y-eigenbasis
    solve measured a componentwise backward error of 3.5e-9 at ny = 100 and
    1.5e-4 at 128^3, against at most 1e-12 for this one on the same grids.
    """
    scale = 1.0 / np.sqrt(x_area.ravel())
    mu, Q = la.eigh(scale[:, None] * Kx.toarray() * scale[None, :])
    V = scale[:, None] * Q
    nmodes, ny = mu.size, w_y.size
    main = (theta * ky[0]
            + np.multiply.outer(theta * mu + 1.0 / dt, w_y)).ravel()
    off = np.tile(np.append(theta * ky[1], 0.0), nmodes)[:-1]
    dl, d, du, du2, ipiv, info = la.lapack.dgttrf(off, main, off.copy())
    if info != 0:
        raise RuntimeError(f"tridiagonal factorization failed (info={info})")

    def solve(b):
        bh = (V.T @ b.reshape(nmodes, ny)).ravel()
        uh, _ = la.lapack.dgttrs(dl, d, du, du2, ipiv, bh)
        return (V @ uh.reshape(nmodes, ny)).ravel()
    return solve


def _as_thin_array(grid, data):
    """f-like data to a (nt+1, nx...) array."""
    if data is None:
        return np.zeros((grid.nt + 1,) + (grid.nx,) * grid.n)
    if callable(data):
        return sample_thin(grid, data)
    arr = np.asarray(data, dtype=float)
    expect = (grid.nt + 1,) + (grid.nx,) * grid.n
    if arr.shape != expect:
        raise ValueError(f"thin data shape {arr.shape} != {expect}")
    return arr


def _as_vector_array(grid, data):
    """F-like data to (nt+1, nx..., n+1) with vanishing last component."""
    shape = (grid.nt + 1,) + (grid.nx,) * grid.n + (grid.n + 1,)
    if data is None:
        return np.zeros(shape)
    if callable(data):
        axes = [grid.t_nodes] + grid.x_centers
        mesh = np.meshgrid(*axes, indexing="ij")
        comps = data(*mesh)
        arr = np.zeros(shape)
        for d in range(grid.n):
            arr[..., d] = comps[d]
        return arr
    arr = np.asarray(data, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"vector data shape {arr.shape} != {shape}")
    if np.max(np.abs(arr[..., -1])) != 0.0:
        raise ValueError("normal component of F must vanish")
    return arr


def _forcing_rhs(grid, f_slice, F_slice):
    """Per-cell contributions of the bottom flux and the divergence forcing
    at one time level; both enter the equations as boundary/face fluxes."""
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


def solve_extension(grid: ParabolicGrid, coeff: CoefficientField, f=None,
                    F=None, lateral_dirichlet=None, initial=None,
                    theta: float = 1.0, method: str = "auto",
                    rtol: float = 1e-12) -> ScalarField:
    """March the degenerate problem over the grid's time window.

    f is the bottom Neumann flux datum (callable (t, x...) or array), F the
    divergence forcing (callable returning n components or array with a zero
    last component), lateral_dirichlet the Dirichlet datum g(t, x..., y) on
    the lateral and top boundary, initial the slice at the first time node.
    theta = 1 is implicit Euler, theta = 0.5 Crank-Nicolson.  method
    "direct" is the separable solve, "cg" preconditioned conjugate
    gradients, "auto" the separable solve up to 1M unknowns.

    The returned field's meta records the worst linear-solve residual, the
    per-step mass balance, and the solver path that ran ("separable" or
    "cg"); a residual above rtol raises.
    """
    if coeff.n != grid.n:
        raise ValueError("coefficient dimension mismatch")
    if method not in ("auto", "direct", "cg"):
        raise ValueError(f"unknown method {method!r}")
    Kx, x_area, ky, dirichlet = _assemble(grid, coeff)
    # unknowns x-major, y fastest
    L = (sp.kron(Kx, sp.diags(grid.w_y))
         + sp.kron(sp.diags(x_area.ravel()), sp.diags([ky[1], ky[0], ky[1]],
                                                     [-1, 0, 1])))
    mass = grid.weighted_cell_measures().ravel()
    nfull = mass.size
    dt = grid.dt
    A_step = sp.csr_matrix(sp.diags(mass / dt) + theta * L)
    B_step = sp.diags(mass / dt) - (1.0 - theta) * L

    direct = method == "direct" or (method == "auto" and nfull <= 1_000_000)
    if direct:
        solve = _separable_solver(Kx, x_area, ky, grid.w_y, theta, dt)
    else:
        precond = sp.diags(1.0 / A_step.diagonal())
        solve = lambda b: _cg(A_step, b, precond, rtol)
    A_abs = sp.csr_matrix((np.abs(A_step.data), A_step.indices, A_step.indptr),
                          shape=A_step.shape)

    f_arr = _as_thin_array(grid, f)
    F_arr = _as_vector_array(grid, F)
    g = _wrap_boundary(lateral_dirichlet)

    def rhs_at(level):
        t = grid.t_nodes[level]
        rhs = _forcing_rhs(grid, f_arr[level], F_arr[level]).ravel()
        rhs += _dirichlet_rhs(grid, dirichlet, g, t)
        return rhs

    if initial is None:
        u = np.zeros(nfull)
    elif callable(initial):
        axes = list(grid.x_centers) + [grid.y_centers]
        mesh = np.meshgrid(*axes, indexing="ij")
        u = (np.asarray(initial(*mesh), dtype=float)
             * np.ones(grid.spatial_shape)).ravel()
    else:
        u = np.asarray(initial, dtype=float).reshape(-1).copy()

    out = np.empty((grid.nt + 1, nfull))
    out[0] = u
    worst_res = 0.0
    mass_hist = [float(np.dot(mass, u))]
    rhs_prev = rhs_at(0)
    for m in range(grid.nt):
        rhs_next = rhs_at(m + 1)
        b = B_step @ u + theta * rhs_next + (1.0 - theta) * rhs_prev
        u_new = solve(b)
        if not np.all(np.isfinite(u_new)):
            raise RuntimeError("linear solve produced non-finite values")
        # componentwise backward error: the right residual measure on the
        # strongly graded meshes whose transmissibilities span many decades
        r = np.abs(A_step @ u_new - b)
        denom = A_abs @ np.abs(u_new) + np.abs(b)
        res = float(np.max(r / np.maximum(denom, 1e-300)))
        worst_res = max(worst_res, res)
        u = u_new
        rhs_prev = rhs_next
        out[m + 1] = u
        mass_hist.append(float(np.dot(mass, u)))
    if worst_res > max(rtol * 100.0, 1e-9):
        raise RuntimeError(f"linear solve residual {worst_res:.2e} exceeds budget")
    values = out.reshape((grid.nt + 1,) + grid.spatial_shape)
    return ScalarField(grid, values, meta={
        "residual": worst_res, "theta": theta,
        "method": "separable" if direct else "cg",
        "mass_history": np.asarray(mass_hist),
    })


def _cg(A, b, precond, rtol):
    x, info = spla.cg(A, b, rtol=rtol, atol=0.0, M=precond, maxiter=20000)
    if info != 0:
        raise RuntimeError(f"conjugate gradient failed to converge (info={info})")
    return x


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


def _space_contract(vals: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Contract a (nt+1, *spatial) array against spatial weights -> (nt+1,)."""
    return np.tensordot(vals, w, axes=(tuple(range(1, vals.ndim)),
                                       tuple(range(w.ndim))))


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
    tw = grid.time_weights(t1, t2)

    grads_u = grid.gradient(U.values)
    grad_u_sq = sum(gu ** 2 for gu in grads_u)
    grads_phi = grid.gradient(phi)
    grad_phi_sq = sum(gp ** 2 for gp in grads_phi)
    dphi2_dt = np.abs(grid.time_derivative(phi ** 2))

    f_arr = _as_thin_array(grid, f)
    F_arr = _as_vector_array(grid, F)
    Fsq_thin = np.sum(F_arr ** 2, axis=-1)
    Fsq = Fsq_thin[..., None] * np.ones(grid.shape)

    spatial = lambda vals: _space_contract(vals, wmeas)
    in_window = (grid.t_nodes >= t1 - 1e-14) & (grid.t_nodes <= t2 + 1e-14)
    lhs_sup = float(np.max(spatial(U.values ** 2 * phi ** 2)[in_window]))
    lhs_grad = float(tw @ spatial(phi ** 2 * grad_u_sq))
    rhs_data = float(tw @ spatial((dphi2_dt + grad_phi_sq) * U.values ** 2
                                  + Fsq * phi ** 2))
    # thin trace term
    tr_u = np.abs(grid.trace_at_zero(U.values))
    phi0 = grid.trace_at_zero(phi)
    xm = grid.x_cell_measures()
    thin_int = _space_contract(phi0 ** 2 * tr_u * np.abs(f_arr), xm)
    rhs_trace = float(tw @ thin_int)
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
    wmeas = grid.weighted_cell_measures()
    thick = lambda vals: float(np.sum(wmeas * grid.time_integral_sq(vals)))
    thick_v = thick(v.values)
    thick_g = sum(thick(g) for g in grid.gradient(v.values))
    thin_v = float(np.sum(grid.x_cell_measures()
                          * grid.time_integral_sq(grid.trace_at_zero(v.values))))
    C_T = thin_v / max(thick_v + thick_g, 1e-300)
    C_P = thick_v / max(thick_g, 1e-300)
    return (math.isfinite(C_T), math.isfinite(C_P), C_T, C_P)


def solve_constant_coeff_dirichlet(U: ScalarField, rho: float = 0.5,
                                   t_range: tuple = (-0.5, 0.75),
                                   shape: tuple | None = None) -> ScalarField:
    """Comparison solve: zero-flux constant-coefficient problem on the
    subcylinder (t_range) x B_rho x (0, rho) with Dirichlet data taken from
    U on the initial slice, lateral sides, and top."""
    g = U.grid
    if shape is None:
        shape = (g.nt, g.nx, g.ny)
    nt2, nx2, ny2 = shape
    sub = ParabolicGrid(g.params, rho=rho, nt=nt2, nx=nx2, ny=ny2, q=g.q,
                        center=g.center, t_range=t_range)

    def boundary(t, *coords):
        # coords arrive as flat columns (t, x..., y)
        arr = np.column_stack([np.asarray(c, dtype=float).ravel()
                               for c in (t,) + coords])
        return g.interp(U.values, arr)

    def initial(*coords):
        cols = [np.asarray(c, dtype=float).ravel() for c in coords]
        pts = np.column_stack([np.full_like(cols[0], t_range[0])] + cols)
        return g.interp(U.values, pts).reshape(coords[0].shape)

    return solve_extension(sub, CoefficientField.identity(g.n), f=None, F=None,
                           lateral_dirichlet=boundary, initial=initial)


def closeness_experiment(U: ScalarField, f=None, F=None,
                         coeff: CoefficientField | None = None,
                         delta: float | None = None,
                         shape: tuple | None = None) -> dict:
    """Distance of U to the zero-flux constant-coefficient comparison
    solution V on the half cylinder: the thick weighted squared distance
    over Q*_(1/2) and the thin squared trace distance over Q_(1/2).

    When delta is given the smallness of the data (squared L^2 of f, the
    weighted squared L^2 of F, and the declared coefficient oscillation at
    scale 1) is checked against delta^2 and flagged."""
    g = U.grid
    V = solve_constant_coeff_dirichlet(U, rho=0.5, t_range=(-0.5, 0.75),
                                       shape=shape)
    sub = V.grid
    pts_mesh = sub.meshgrid()
    pts = np.stack([m.ravel() for m in np.broadcast_arrays(*pts_mesh)], axis=-1)
    U_on_sub = g.interp(U.values, pts).reshape(sub.shape)
    diff = U_on_sub - V.values
    eps_thick_sq = sub.weighted_norm_sq(diff, center=g.center, radius=0.5)
    eps_thin_sq = float(np.sum(sub.x_cell_measures() * sub.time_integral_sq(
        sub.trace_at_zero(diff), -0.25, 0.25)))

    report = {"eps_weighted_sq": eps_thick_sq, "eps_trace_sq": eps_thin_sq,
              "eps_weighted": math.sqrt(max(eps_thick_sq, 0.0)),
              "eps_trace": math.sqrt(max(eps_thin_sq, 0.0))}
    if delta is not None:
        f_arr = _as_thin_array(g, f)
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


def regularity_estimates_check(W: ScalarField, r: float = 0.5) -> RegularityReport:
    """Interior estimates for a zero-flux constant-coefficient solution:
    scaled sup bounds of (d_t, D_x, D_x^2) by the oscillation on the double
    cylinder, the max by the weighted L^2 norm, and |W_y| <= C ||W|| y."""
    grid = W.grid
    half = r / 2.0

    def region_mask(rad, ymax):
        T, Xs = grid.t_nodes, grid.x_centers
        tmask = np.abs(T - grid.center[0]) <= rad ** 2
        xmask = [np.abs(X - grid.center[1 + d]) <= rad
                 for d, X in enumerate(Xs)]
        ymask = grid.y_centers < ymax
        m = tmask
        for xm in xmask:
            m = np.multiply.outer(m, xm)
        return np.multiply.outer(m, ymask).astype(bool)

    inner = region_mask(half, half)
    outer = region_mask(r, r)
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

    Wy = grads[-1]
    full_norm = W.weighted_norm()
    ratios = []
    T, Xs = grid.t_nodes, grid.x_centers
    tmask = np.abs(T - grid.center[0]) <= 0.25
    xmask = np.abs(Xs[0] - grid.center[1]) <= 0.5
    for j, y in enumerate(grid.y_centers):
        if y >= 0.5 or j == 0:
            continue
        sup = float(np.max(np.abs(Wy[np.ix_(tmask, xmask, [j])])))
        ratios.append(sup / (max(full_norm, 1e-300) * y))
    C_y = float(np.max(ratios)) if ratios else 0.0
    return RegularityReport(C_derivative, C_max, C_y, r)


def uniqueness_check(grid: ParabolicGrid, coeff: CoefficientField, f=None,
                     F=None, lateral_dirichlet=None, initial=None) -> float:
    """Weighted space-time L^2 distance between two solves that should
    agree: the direct (separable) solve and preconditioned CG.
    Discretization uniqueness shows as a near-zero value."""
    base = solve_extension(grid, coeff, f, F, lateral_dirichlet, initial,
                           method="direct")
    cg = solve_extension(grid, coeff, f, F, lateral_dirichlet, initial,
                         method="cg")
    return math.sqrt(grid.weighted_norm_sq(base.values - cg.values))
