"""The exact per-step reference of every flow family (the spatial error alone).

`lap_H` acts on H0-radial fields as `q'' + (N-1) q'/r` of `r = H0(x)` for
every norm, and the Dirichlet ball {H0 < R} is H0-radial too, so one
implicit step from H0-radial data has an H0-radial solution whose profile
solves the norm-free 1-D problem `q - tau (q'' + (N-1) q'/r) = q_prev`,
`q'(0) = 0`, `q(R) = 0`.  At a fixed tau the error of a flow against that
profile is its spatial error, which is second order for every family.
"""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from finslerheat import norms
from finslerheat.flow import FlowProblem, InnerSolverConfig, ball_layout, solve
from finslerheat.grids import RadialProfile, observed_order
from finslerheat.norms import dual_norm_eval
from finslerheat.operators import lift_radial
from finslerheat.radial import radial_heat_profile

R, TAU, T = 2.0, 0.01, 0.05
CELLS = 40_000
PROFILE = RadialProfile.from_function(lambda r: np.exp(-4.0 * r**2), 8.0, 4097)


def _reference(dim: int, tau: float, steps: int, cells: int = CELLS):
    """Radii and profile after `steps` implicit steps of `q'' + (N-1) q'/r` on
    [0, R] from exp(-4 r^2): second-order differences, the symmetric row
    `2N (q_1 - q_0)/dr^2` at r = 0 and q(R) = 0."""
    r = np.linspace(0.0, R, cells + 1)
    dr = r[1]
    c = tau / dr**2
    drift = np.zeros_like(r)
    drift[1:] = tau * (dim - 1) / (2.0 * dr * r[1:])
    bands = np.zeros((3, cells + 1))
    bands[1] = 1.0 + 2.0 * c
    bands[1, 0] = 1.0 + 2.0 * dim * c
    bands[0, 1] = -2.0 * dim * c                          # row 0, column 1
    bands[0, 2:] = -(c + drift[1:-1])                     # row i, column i + 1
    bands[2, :-2] = -(c - drift[1:-1])                    # row i, column i - 1
    bands[1, -1], bands[2, -2] = 1.0, 0.0                 # q(R) = 0
    q = np.exp(-4.0 * r**2)
    for _ in range(steps):
        q[-1] = 0.0
        q = solve_banded((1, 1), bands, q)
    return r, q


_REF_R, _REF_Q = _reference(2, TAU, round(T / TAU))
_FAMILIES = {
    "euclidean": (norms.euclidean(2), 1e-10),
    "ellipse": (norms.ellipse(np.diag([4.0, 1.0])), 1e-10),
    "smoothed_polytope": (norms.smoothed_polytope(np.eye(2), 0.05), 1e-10),
    "p3": (norms.p_norm(3.0, 2), 1e-10),
    "p1.5": (norms.p_norm(1.5, 2), 1e-9),
}


def _errors(spec, tolerance: float, h: float):
    """(max error, max error off the axes, L2 error) at T on H0 <= 1."""
    lay = ball_layout(spec, R, h)
    problem = FlowProblem(norm=spec, radius=R, datum=lift_radial(PROFILE, spec, lay),
                          tau=TAU, t_end=T, inner=InnerSolverConfig(tolerance=tolerance))
    u = solve(problem).slice_at(T).values
    x = lay.coords()
    h0 = dual_norm_eval(spec, x)
    err = np.abs(u - np.interp(h0, _REF_R, _REF_Q))[h0 <= 1.0]
    off_axes = np.min(np.abs(x), axis=-1)[h0 <= 1.0] >= 0.25
    return err.max(), err[off_axes].max(), np.sqrt(np.sum(err**2) * h * h)


@pytest.mark.parametrize("name", _FAMILIES)
def test_every_family_meets_the_radial_step_reference_at_second_order(name):
    spec, tolerance = _FAMILIES[name]
    spacings = [1 / 16, 1 / 32]
    errors = np.array([_errors(spec, tolerance, h) for h in spacings])
    orders = [observed_order(errors[:, k], spacings) for k in range(3)]
    # the p-norm lifts are not smooth across the axes: read their maximum
    # off the axes, and their L2 error
    pinned = [1, 2] if name.startswith("p") else [0]
    assert all(1.8 <= orders[k] <= 2.2 for k in pinned), (errors, orders)


def test_radial_step_reference_meets_the_representation_formula_at_first_order():
    # at T the representation formula is the continuous-in-time flow: the
    # reference's error against it is the time error of implicit Euler
    steps = [0.01, 0.005, 0.0025]
    r = _REF_R[_REF_R <= 1.0][::100]
    exact = radial_heat_profile(PROFILE, 2, r, T)
    errors = [float(np.max(np.abs(np.interp(r, *_reference(2, tau, round(T / tau))) - exact)))
              for tau in steps]
    orders = [observed_order(errors[i:i + 2], steps[i:i + 2]) for i in range(2)]
    assert all(0.9 <= order <= 1.1 for order in orders), (errors, orders)
