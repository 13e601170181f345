"""Independent reference for ``lti_core.inf_norm``, for tests only.

``hamiltonian_norm`` solves the same level-set problem as a complex
Hamiltonian eigenproblem on a state-space realization, mapped to
continuous time.  It shares nothing with ``inf_norm`` but ``realize``
and the bracket it guarantees, so the differential tests compare two
independent constructions of the crossings.
"""
from __future__ import annotations

import math

import numpy as np

from netsmith.lti_core import (NORM_REL_TOL, UNIT_CIRCLE_TOL, NumericError,
                               RationalTF, realize)


def hamiltonian_norm(g: RationalTF) -> float:
    """Supremum of |g| on the unit circle, by a Hamiltonian level set.

    g is realized as given and mapped to continuous time by
    z = z0 (1+s)/(1-s), which takes the unit circle onto the imaginary
    axis and s = infinity to z = -z0.  Starting from the largest |g| at
    theta = 0, at pi and at the pole angles, each step sets the level
    gamma = (1 + 2*NORM_REL_TOL) * best above every value seen,
    takes the frequencies of all eigenvalues of the level-gamma
    Hamiltonian (Boyd-Balakrishnan-Kabamba 1989, Bruinsma-Steinbuch 1990)
    as breakpoints, since every crossing of |g| = gamma is among them, and
    evaluates |g| between consecutive breakpoints.  It stops when no
    midpoint exceeds gamma.  The value returned is attained, and brackets
    the supremum: hamiltonian_norm(g) <= sup|g|
    < (1 + 2*NORM_REL_TOL) * hamiltonian_norm(g).
    """
    if g.num.is_zero:
        return 0.0
    ss = realize(g)
    n = ss.order
    if n == 0:
        return abs(ss.d)
    poles = np.linalg.eigvals(ss.A)
    if np.any(np.abs(np.abs(poles) - 1.0) < UNIT_CIRCLE_TOL):
        raise NumericError("transfer function has a pole on the unit circle")
    mag = lambda theta: np.abs(g(np.exp(1j * theta)))
    theta = np.concatenate(([0.0, math.pi], np.abs(np.angle(poles))))
    seen = mag(theta)
    best = float(np.max(seen))
    # s = infinity goes where |g| is least so far: the direct term d = g(-z0)
    # then stays well below every level (as r -> 0 the 1/r scaling swamps
    # the eigenvalues), and -z0 lies away from the poles, which keeps
    # I + A/z0 well conditioned.  With s = infinity fixed at z = -1, a peak
    # near pi just above |g(-1)| = best is lost to that scaling.
    z0 = -np.exp(1j * theta[np.argmin(seen)])
    eye = np.eye(n)
    inv = np.linalg.inv(eye + ss.A / z0)
    a = (ss.A / z0 - eye) @ inv
    b = math.sqrt(2.0) * (inv @ ss.b) / z0
    c = math.sqrt(2.0) * (ss.c @ inv)
    d = complex(g(-z0))
    while True:
        level = (1.0 + 2.0 * NORM_REL_TOL) * best
        r = level * level - abs(d) ** 2
        e = a + np.outer(b, c) * (d.conjugate() / r)
        ham = np.block([[e, np.outer(b, b.conj()) * (level / r)],
                        [np.outer(c.conj(), c) * (-level / r), -e.conj().T]])
        w = np.linalg.eigvals(ham).imag
        crossings = np.abs(np.angle(z0 * (1.0 + 1j * w) / (1.0 - 1j * w)))
        breaks = np.sort(np.concatenate(([0.0, math.pi], crossings)))
        peak = float(np.max(mag(0.5 * (breaks[:-1] + breaks[1:]))))
        best = max(best, peak)
        if peak <= level:
            return best
