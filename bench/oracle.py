"""Independent objective values from HiGHS, through scipy.

HiGHS solves the same assembled model as intransit, so it confirms the
solvers but cannot catch a defect in the model itself.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

REL_TOL = 1e-6


class OracleError(RuntimeError):
    """HiGHS did not reach a proven optimum."""


def highs_objective(model, *, relax: bool) -> float:
    """Optimal objective of ``model`` (an intransit MipModel), with the
    container counts continuous when ``relax`` is set."""
    A = sp.csr_matrix(model.A)
    le = model.senses == "<"
    eq = ~le
    c = np.asarray(model.objective, dtype=np.float64)
    if relax:
        res = linprog(
            c,
            A_ub=A[le] if le.any() else None,
            b_ub=model.rhs[le] if le.any() else None,
            A_eq=A[eq] if eq.any() else None,
            b_eq=model.rhs[eq] if eq.any() else None,
            bounds=(0, None),
            method="highs",
        )
    else:
        integrality = np.zeros(model.num_vars)
        integrality[np.asarray(model.integer_columns)] = 1
        constraints = []
        if le.any():
            constraints.append(LinearConstraint(A[le], -np.inf, model.rhs[le]))
        if eq.any():
            constraints.append(LinearConstraint(A[eq], model.rhs[eq], model.rhs[eq]))
        res = milp(
            c,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(0, np.inf),
            options={"mip_rel_gap": 1e-10},
        )
    if res.status != 0:
        raise OracleError(f"HiGHS stopped with status {res.status}: {res.message}")
    return float(res.fun)


def objectives_agree(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * max(1.0, abs(reference))
