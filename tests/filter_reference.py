"""Independent reference for ``smith_design.design_filter``, for tests only.

``design_filter`` below is the earlier construction of the robustness
filter, kept verbatim: it writes the interpolation constraint as value
and derivative rows at each root cluster of the plant denominator with
|z| >= 1 (and, optionally, at slow stable poles), splits complex rows
into real and imaginary parts, counts a node at z = 1 once with the dc
gain row, and solves the square system with ``np.linalg.solve``.  The
library now takes the remainder of z**tau_hat nu_F modulo the plant's
unstable factor instead, so the differential tests compare two
independent constructions of the same filter.
"""
from __future__ import annotations

import math

import numpy as np

from netsmith.lti_core import NumericError, Polynomial, RationalTF, roots
from netsmith.smith_design import ROOT_CLUSTER_TOL


def _shift_poly(p: Polynomial, samples: int) -> Polynomial:
    """p(z) * z**samples."""
    if samples == 0:
        return p
    return Polynomial(np.concatenate([p.coeffs, np.zeros(samples)]))


def _cluster_roots(values, tol: float = ROOT_CLUSTER_TOL):
    """Group numerically repeated roots into (node, multiplicity) pairs."""
    remaining = list(values)
    clusters = []
    while remaining:
        z0 = remaining.pop(0)
        members = [z0]
        keep = []
        for z in remaining:
            if abs(z - z0) < tol * max(1.0, abs(z0)):
                members.append(z)
            else:
                keep.append(z)
        remaining = keep
        clusters.append((complex(np.mean(members)), len(members)))
    return clusters


def _constraint_nodes(plant: RationalTF, slow_pole_threshold: float | None):
    """Poles of the plant at which the interpolation constraint applies.

    Returns one (node, multiplicity) per root cluster with |z| >= 1; with a
    slow-pole threshold, stable clusters of modulus >= threshold are added.
    Complex nodes are reported once per conjugate pair (imag > 0 half-plane).
    """
    if plant.den.degree == 0:
        return []
    nodes = []
    for z0, mult in _cluster_roots(list(roots(plant.den))):
        take = abs(z0) >= 1.0
        if not take and slow_pole_threshold is not None:
            take = abs(z0) >= slow_pole_threshold
        if not take:
            continue
        if abs(z0.imag) < ROOT_CLUSTER_TOL:
            nodes.append((complex(z0.real), mult))
        elif z0.imag > 0:
            nodes.append((z0, mult))
    return nodes


def _poly_derivative_rows(degree: int, z0: complex, order: int) -> np.ndarray:
    """Row of d^order/dz^order of the monomials z**degree .. z**0 at z0."""
    row = np.zeros(degree + 1, dtype=complex)
    for j in range(degree + 1):
        p = degree - j
        if p >= order:
            row[j] = math.perm(p, order) * z0 ** (p - order)
    return row


def design_filter(plant: RationalTF, tau_hat: int, lam: float,
                  slow_pole_threshold: float | None = None) -> RationalTF:
    """Fit the robustness filter F = mu_F / (z - lam)**n_F.

    The constraint set is F(1) = 1 plus, at every plant pole with
    |z| >= 1 (and optionally at stable poles with modulus above
    ``slow_pole_threshold``), the value and derivative conditions

        d^i/dz^i [ z**tau_hat * nu_F(z) - mu_F(z) ] = 0,  i < multiplicity.

    n_F is one less than the number of scalar constraints, which makes the
    linear system for the mu_F coefficients square.  A constraint node at
    z = 1 duplicates the dc-gain condition and is counted once.

    Parameters
    ----------
    plant : RationalTF
        Delay-free nominal plant model.
    tau_hat : int
        Compensated delay in samples, >= 1.
    lam : float
        Common filter pole location, 0 <= lam < 1.
    slow_pole_threshold : float, optional
        Also constrain stable plant poles with modulus >= this value.

    Returns
    -------
    RationalTF
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"filter pole must satisfy 0 <= lambda < 1; got {lam}")
    if tau_hat < 1:
        raise ValueError(f"compensated delay must be >= 1 sample; got {tau_hat}")
    nodes = _constraint_nodes(plant, slow_pole_threshold)

    n_rows = 1  # dc-gain row
    for z0, mult in nodes:
        rows = mult if abs(z0.imag) < ROOT_CLUSTER_TOL else 2 * mult
        if abs(z0 - 1.0) < ROOT_CLUSTER_TOL:
            rows -= 1  # value constraint at z=1 coincides with F(1)=1
        n_rows += rows
    n_f = n_rows - 1
    nu_f = Polynomial.from_roots([lam] * n_f)
    target = _shift_poly(nu_f, tau_hat)

    A = np.zeros((n_rows, n_f + 1))
    rhs = np.zeros(n_rows)
    A[0, :] = 1.0  # mu_F(1) = nu_F(1)
    rhs[0] = nu_f(1.0)
    r = 1
    for z0, mult in nodes:
        start = 1 if abs(z0 - 1.0) < ROOT_CLUSTER_TOL else 0
        for order in range(start, mult):
            row = _poly_derivative_rows(n_f, z0, order)
            target_der = target
            for _ in range(order):
                target_der = target_der.derivative()
            val = target_der(z0)
            if abs(z0.imag) < ROOT_CLUSTER_TOL:
                A[r, :] = row.real
                rhs[r] = val.real
                r += 1
            else:
                A[r, :] = row.real
                rhs[r] = val.real
                A[r + 1, :] = row.imag
                rhs[r + 1] = val.imag
                r += 2
    try:
        mu = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular interpolation system: {exc}") from exc
    return RationalTF(Polynomial(mu), nu_f, plant.h)
