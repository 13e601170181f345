"""Augmented closed-loop matrices and delay-robust LMI assembly.

The predictor loop with the channel replaced by a pure sample delay
tau_k in [d_hat+tau_n_min, d_hat+tau_n_max] admits the compact model

    xi_{k+1} = A_tilde xi_k + A_d_tilde xi_{k - d_hat - tau_k^N}

over the stacked state xi = (x, x_H, x_F, x_C) of the plant, prediction
block, robustness filter, and controller realizations.  Two LMI
sufficiency tests for asymptotic stability of that model are assembled
here as constant matrices with named symmetric unknowns:

  lifted   one large G matrix coupling d_hat+tau_n_max+1 stacked state
           copies; unknowns P (stacked) and S.
  compact  an 8 n_xi block inequality with unknowns P, Q1, Q2, R1, R2, S,
           all n_xi x n_xi.

Solving the LMIs is delegated to external SDP tooling; this module
builds, serializes (``problem_document``) and verifies, but does not solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import json

import numpy as np

from .lti_core import StateSpace, realize
from .smith_design import PredictorDesign

VARIANTS = ("lifted", "compact")
FEAS_EIG_TOL = 1e-9
DIRECT_TERM_TOL = 1e-9


@dataclass(frozen=True)
class AugmentedModel:
    """The predictor loop on the stacked state xi = (x, x_H, x_F, x_C) of
    the plant, prediction block, robustness filter and controller
    realizations, with the controller's measurement y_hat as an input:

        xi_{k+1} = A_tilde xi_k + g y_hat_k + input_reference r_V,k
                   + input_disturbance w_k

    Row i of ``rows`` is the output row c of block i (P_hat, H, F, C) on
    its own columns; ``output_row`` = rows[0] reads the delay-free plant
    output (the measured output lags it by d_hat samples).  The other
    readouts are y_H = rows[1] xi, y_F = rows[2] xi + d_F y_hat and
    u = rows[3] xi + d_C (r_V - y_F - y_H).  Closing the loop by the
    sample delay y_hat_k = output_row xi_{k - d_hat - tau_k} gives the
    delayed-state matrix A_d_tilde = g (x) output_row, derived on first
    read and read-only.  input_reference injects the prefiltered
    reference r_V into the tracking error, input_disturbance adds a
    plant-input disturbance w.
    """
    A_tilde: np.ndarray
    g: np.ndarray
    input_reference: np.ndarray
    input_disturbance: np.ndarray
    rows: np.ndarray
    d_F: float
    d_C: float
    d_hat: int
    tau_n_min: int
    tau_n_max: int
    block_orders: tuple

    def __post_init__(self):
        if self.n_xi != sum(self.block_orders):
            raise ValueError("n_xi must equal the sum of the block orders")

    @property
    def n_xi(self) -> int:
        return self.A_tilde.shape[0]

    @property
    def output_row(self) -> np.ndarray:
        return self.rows[0]

    @cached_property
    def A_d_tilde(self) -> np.ndarray:
        """g (x) output_row, written on the plant columns only so that the
        other columns hold +0.0 (np.outer would write -0.0 where g < 0)."""
        n = self.block_orders[0]
        Ad = np.zeros((self.n_xi, self.n_xi))
        Ad[:, :n] = np.outer(self.g, self.output_row[:n])
        Ad.flags.writeable = False
        return Ad


def _strictly_proper(ss: StateSpace, what: str) -> StateSpace:
    if abs(ss.d) > DIRECT_TERM_TOL:
        raise ValueError(f"{what} must be strictly proper (no direct feedthrough)")
    return ss


def assemble_augmented(design: PredictorDesign) -> AugmentedModel:
    """The design's augmented model, built once per design and read-only.

    The plant and prediction block must be strictly proper; the filter
    and controller may carry direct terms d_F, d_C.  A static plant
    (order 0) is rejected since the loop state would be empty.
    """
    return design._memoized("lmi_assembly.augmented", _build_augmented)


def _build_augmented(design: PredictorDesign) -> AugmentedModel:
    """Realize P_hat, H, F, C and stack them; see AugmentedModel."""
    sp = _strictly_proper(realize(design.plant_nominal), "plant")
    sh = _strictly_proper(realize(design.predictor_block), "prediction block")
    sf = realize(design.filter)
    sc = realize(design.controller)
    n, nh, nf, nc = sp.order, sh.order, sf.order, sc.order
    if n == 0:
        raise ValueError("plant realization has no state; a static plant is not supported")
    nxi = n + nh + nf + nc
    off = np.cumsum([0, n, nh, nf, nc])
    s = [slice(off[i], off[i + 1]) for i in range(4)]

    A = np.zeros((nxi, nxi))
    A[s[0], s[0]] = sp.A
    A[s[0], s[1]] = -np.outer(sp.b, sc.d * sh.c)
    A[s[0], s[2]] = -np.outer(sp.b, sc.d * sf.c)
    A[s[0], s[3]] = np.outer(sp.b, sc.c)
    A[s[1], s[1]] = sh.A - np.outer(sh.b, sc.d * sh.c)
    A[s[1], s[2]] = -np.outer(sh.b, sc.d * sf.c)
    A[s[1], s[3]] = np.outer(sh.b, sc.c)
    A[s[2], s[2]] = sf.A
    A[s[3], s[1]] = -np.outer(sc.b, sh.c)
    A[s[3], s[2]] = -np.outer(sc.b, sf.c)
    A[s[3], s[3]] = sc.A

    g = np.zeros(nxi)
    g[s[0]] = -sp.b * (sc.d * sf.d)
    g[s[1]] = -sh.b * (sc.d * sf.d)
    g[s[2]] = sf.b
    g[s[3]] = -sc.b * sf.d

    b_ref = np.zeros(nxi)
    b_ref[s[0]] = sp.b * sc.d
    b_ref[s[1]] = sh.b * sc.d
    b_ref[s[3]] = sc.b
    b_dist = np.zeros(nxi)
    b_dist[s[0]] = sp.b
    rows = np.zeros((4, nxi))
    for i, ss in enumerate((sp, sh, sf, sc)):
        rows[i, s[i]] = ss.c
    for arr in (A, g, b_ref, b_dist, rows):
        arr.flags.writeable = False
    return AugmentedModel(A_tilde=A, g=g, input_reference=b_ref,
                          input_disturbance=b_dist, rows=rows, d_F=sf.d, d_C=sc.d,
                          d_hat=design.d_hat, tau_n_min=design.tau_n_min,
                          tau_n_max=design.tau_n_max, block_orders=(n, nh, nf, nc))


@dataclass(frozen=True)
class LmiProblem:
    """Assembled LMI data: constant blocks plus named symmetric unknowns.

    variable_count follows the published closed-form size formula for the
    variant; free_parameter_count, derived from ``unknowns``, is the
    generic count sum over unknowns of m(m+1)/2.  For the lifted variant
    the two agree; for the compact variant the quoted formula n_xi^3 +
    2 n_xi^2 + n_xi counts solver variables differently and both numbers
    are reported.
    """
    variant: str
    gamma: float
    model: AugmentedModel
    unknowns: dict
    blocks: dict
    side: int
    variable_count: int

    @property
    def free_parameter_count(self) -> int:
        return sum(m * (m + 1) // 2 for m in self.unknowns.values())


def lifted_variable_count(n_xi: int, d_hat: int, tau_n_max: int) -> int:
    """Published size formula for the lifted variant; equals the generic
    symmetric count of P ((d_hat+tau_n_max+1)n_xi) plus S (n_xi)."""
    D = d_hat + tau_n_max
    return round(0.5 * ((D**2 + 2 * D + 2) * n_xi**2) + 0.5 * (D + 2) * n_xi)


def compact_variable_count(n_xi: int) -> int:
    """Published size formula for the compact variant."""
    return n_xi**3 + 2 * n_xi**2 + n_xi


def build_lmi(model: AugmentedModel, variant: str, gamma: float) -> LmiProblem:
    """Assemble the constant matrices of one LMI variant.

    gamma in (0,1) is the contraction rate of the candidate Lyapunov
    certificate.  The lifted variant needs tau_n_max >= tau_n_min + 1
    (its inner zero block has width tau_n_max - tau_n_min - 1); the
    compact variant only needs tau_n_max >= tau_n_min.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown LMI variant {variant!r}; expected one of {VARIANTS}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie strictly inside (0,1); got {gamma}")
    if model.tau_n_max < model.tau_n_min:
        raise ValueError("negative block width: tau_n_max < tau_n_min")
    if model.d_hat + model.tau_n_min < 1:
        raise ValueError("the compensated delay d_hat + tau_n_min must be at least 1")
    n = model.n_xi
    A = model.A_tilde
    Ad = model.A_d_tilde
    half = 0.5 * Ad
    spread = 0.5 * (model.tau_n_max - model.tau_n_min) * Ad

    if variant == "lifted":
        inner = model.tau_n_max - model.tau_n_min - 1
        if inner < 0:
            raise ValueError(
                "lifted variant needs tau_n_max >= tau_n_min + 1 "
                "(inner zero block would have negative width)")
        D = model.d_hat + model.tau_n_max
        side = (D + 2) * n
        psi_cols = D * n
        G = np.zeros((side, side))

        def fill_psi(row0, head):
            G[row0:row0 + n, 0:n] = head
            c = (model.d_hat + model.tau_n_min) * n
            G[row0:row0 + n, c:c + n] = half
            G[row0:row0 + n, psi_cols:psi_cols + n] = half
            G[row0:row0 + n, psi_cols + n:psi_cols + 2 * n] = spread

        fill_psi(0, A)
        G[n:n + D * n, 0:D * n] = np.eye(D * n)
        fill_psi((D + 1) * n, A - np.eye(n))
        unknowns = {"P": (D + 1) * n, "S": n}
        blocks = {"G": G}
        count = lifted_variable_count(n, model.d_hat, model.tau_n_max)
    else:
        side = 8 * n
        phi2 = np.hstack([A, half, half, spread])
        phi3 = np.hstack([A - np.eye(n), half, half, spread])
        unknowns = {"P": n, "Q1": n, "Q2": n, "R1": n, "R2": n, "S": n}
        blocks = {"Phi2": phi2, "Phi3": phi3}
        count = compact_variable_count(n)

    return LmiProblem(variant=variant, gamma=gamma, model=model,
                      unknowns=unknowns, blocks=blocks, side=side,
                      variable_count=count)


def assemble_matrix(problem: LmiProblem, candidates: dict) -> np.ndarray:
    """Substitute candidate unknowns and return the full LMI matrix."""
    for name, dim in problem.unknowns.items():
        mat = candidates.get(name)
        if mat is None:
            raise ValueError(f"missing candidate for unknown {name!r}")
        if np.shape(mat) != (dim, dim):
            raise ValueError(
                f"candidate {name!r} has shape {np.shape(mat)}; expected ({dim}, {dim})")
    gamma = problem.gamma
    model = problem.model
    n = model.n_xi
    if problem.variant == "lifted":
        # G'blkdiag(P, S)G by blocks: G = [head; I 0; last] with the
        # identity on rows n..m of the stacked copies
        P = np.asarray(candidates["P"], dtype=float)
        S = np.asarray(candidates["S"], dtype=float)
        G = problem.blocks["G"]
        m = P.shape[0]
        head, last = G[:n], G[m:]
        X = P[:, :n] @ head
        X[:, :m - n] += P[:, n:]
        M = head.T @ X[:n] + last.T @ (S @ last)
        M[:m - n] += X[n:]
        M[:m, :m] -= P
        M[m:, m:] -= gamma**2 * S
    else:
        P, Q1, Q2, R1, R2, S = (np.asarray(candidates[k], dtype=float)
                                for k in ("P", "Q1", "Q2", "R1", "R2", "S"))
        phi2 = problem.blocks["Phi2"]
        phi3 = problem.blocks["Phi3"]
        b = [slice(i * n, (i + 1) * n) for i in range(8)]
        M = np.zeros((8 * n, 8 * n))
        M[b[0], b[0]] = -P + Q1 + Q2 - R1 - R2
        M[b[0], b[1]] = R1
        M[b[0], b[2]] = R2
        M[b[1], b[0]] = R1.T
        M[b[1], b[1]] = -Q1 - R1
        M[b[2], b[0]] = R2.T
        M[b[2], b[2]] = -Q2 - R2
        M[b[3], b[3]] = -gamma**2 * S
        psi = M[:4 * n, 4 * n:]  # a view: its blocks are written into M
        psi[:, b[0]] = phi2.T @ P
        psi[:, b[1]] = (model.d_hat + model.tau_n_min) * (phi3.T @ R1)
        psi[:, b[2]] = (model.d_hat + model.tau_n_max) * (phi3.T @ R2)
        psi[:, b[3]] = phi3.T @ S
        M[4 * n:, :4 * n] = psi.T
        for i, C in enumerate((P, R1, R2, S), start=4):
            M[b[i], b[i]] = -C
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class FeasibilityReport:
    """Eigenvalue check of substituted candidates: feasible means the
    assembled matrix is negative definite and every candidate positive
    definite, both with margin FEAS_EIG_TOL."""
    feasible: bool
    lambda_max: float
    candidate_min_eigs: dict

    def to_dict(self) -> dict:
        return {"feasible": self.feasible, "lambda_max": self.lambda_max,
                "candidate_min_eigs": dict(self.candidate_min_eigs)}


def verify_candidate(problem: LmiProblem, candidates: dict) -> FeasibilityReport:
    """Check a set of candidate Lyapunov matrices by eigenvalue test."""
    M = assemble_matrix(problem, candidates)
    lam_max = float(np.linalg.eigvalsh(M)[-1])
    mins = {}
    for name in problem.unknowns:
        C = np.asarray(candidates[name], dtype=float)
        mins[name] = float(np.linalg.eigvalsh(0.5 * (C + C.T))[0])
    feasible = lam_max < -FEAS_EIG_TOL and all(v > FEAS_EIG_TOL for v in mins.values())
    return FeasibilityReport(feasible=feasible, lambda_max=lam_max,
                             candidate_min_eigs=mins)


def problem_document(problem: LmiProblem) -> str:
    """The problem as a self-describing JSON document: every constant
    block dense, each unknown's symmetric dimension, gamma, and the delay
    bounds."""
    model = problem.model
    doc = {
        "kind": "delay-robust-lmi",
        "variant": problem.variant,
        "gamma": problem.gamma,
        "side": problem.side,
        "n_xi": model.n_xi,
        "d_hat": model.d_hat,
        "tau_n_min": model.tau_n_min,
        "tau_n_max": model.tau_n_max,
        "block_orders": list(model.block_orders),
        "unknowns": {k: v for k, v in sorted(problem.unknowns.items())},
        "variable_count": problem.variable_count,
        "free_parameter_count": problem.free_parameter_count,
        "A_tilde": model.A_tilde.tolist(),
        "A_d_tilde": model.A_d_tilde.tolist(),
        "input_reference": model.input_reference.tolist(),
        "input_disturbance": model.input_disturbance.tolist(),
        "output_row": model.output_row.tolist(),
        "blocks": {k: np.asarray(v).tolist() for k, v in sorted(problem.blocks.items())},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
