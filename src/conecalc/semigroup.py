"""Semigroup-side verification: resolvents, the sampled cross-check of the
Metzler criterion, Trotter-product positivity, and the improvement of a
positive semigroup by an ergodic perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import SelfDualCone
from .errors import Inconsistent, InputNotInClass, PreconditionFailed, SpectralBound
from .numerics import DEFAULT_TOL, LinearOperator, hermitian_eig, op_exp
from .positivity import _largest_offdiag, classify, generates_positive_semigroup, is_ergodic

BETA_SAMPLES = (0.1, 1.0, 10.0)
RESOLVENT_MARGIN = 1e-10  # s must exceed the spectral bound -E(H) by more than this


def resolvent(h: LinearOperator, s: float) -> LinearOperator:
    """(H + s)^{-1} for s strictly above the spectral bound -E(H)."""
    spec = hermitian_eig(h)
    if s <= -spec.ground_energy + RESOLVENT_MARGIN:
        raise SpectralBound(
            f"s = {s!r} is not above the spectral bound {-spec.ground_energy!r}"
        )
    vecs = spec.eigenvectors
    out = (vecs / (spec.eigenvalues + float(s))) @ vecs.conj().T
    return LinearOperator(h.space, 0.5 * (out + out.conj().T))


def semigroup_positive_all_beta(h: LinearOperator, cone: SelfDualCone,
                                tol: float = DEFAULT_TOL,
                                betas: tuple[float, ...] = BETA_SAMPLES) -> bool:
    """Whether exp(-beta*H) preserves the cone for all beta >= 0.

    The decision is the exact Metzler criterion; the sampled exponentials are
    a validation harness only.  A positive verdict must survive every sampled
    beta.  A negative verdict must be confirmed by some sampled beta; small
    off-diagonal violations can be masked by second-order terms on the default
    grid, so an extra beta matched to the worst offending entry (where the
    linear term provably dominates) is tried before declaring the two sides
    `Inconsistent`.
    """
    h.require_hermitian()
    metzler = generates_positive_semigroup(h, cone, tol)
    sampled = all(classify(op_exp(h, -b), cone, tol).preserving for b in betas)
    if metzler and not sampled:
        raise Inconsistent("Metzler criterion holds but a sampled exponential fails")
    if not metzler and sampled:
        m = cone.operator_coords(h)
        worst = _largest_offdiag(m)
        norm_sq = float(np.linalg.norm(m, 2)) ** 2
        if worst > 0.0 and norm_sq > 0.0:
            refined = classify(op_exp(h, -worst / norm_sq), cone, tol).preserving
            if not refined:
                return False
        raise Inconsistent(
            "Metzler criterion fails but no sampled exponential confirms it"
        )
    return metzler


@dataclass(frozen=True)
class TrotterReport:
    """Error decay and positivity of the split-product approximants."""

    n_values: tuple[int, ...]
    errors: tuple[float, ...]
    positivity_ok: tuple[bool, ...]

    def ratios(self) -> tuple[float, ...]:
        """errors[k] / errors[k+1] for consecutive n values."""
        return tuple(
            self.errors[k] / self.errors[k + 1]
            for k in range(len(self.errors) - 1)
            if self.errors[k + 1] > 0
        )

    def to_payload(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "errors": list(self.errors),
            "positivity_ok": list(self.positivity_ok),
        }


def trotter_verify(h: LinearOperator, h_prime: LinearOperator,
                   s: float, t: float, beta: float,
                   n_values: tuple[int, ...], cone: SelfDualCone,
                   tol: float = DEFAULT_TOL) -> TrotterReport:
    """Check the split-product approximation of exp(-beta*(sH + tH')).

    Each approximant (exp(-beta*s*H/n) exp(-beta*t*H'/n))^n is compared in
    spectral norm against the direct exponential and classified against the
    cone; products of cone-preserving factors must stay cone-preserving at
    every n.
    """
    for name, op in (("first", h), ("second", h_prime)):
        if not generates_positive_semigroup(op, cone, tol):
            raise InputNotInClass(f"{name} operand does not generate a positive semigroup")
    target = op_exp(LinearOperator(h.space, s * h.mat + t * h_prime.mat), -beta)
    errors = []
    positivity = []
    for n in n_values:
        step = op_exp(h, -beta * s / n).mat @ op_exp(h_prime, -beta * t / n).mat
        approx = LinearOperator(h.space, np.linalg.matrix_power(step, n))
        errors.append(float(np.linalg.norm(approx.mat - target.mat, 2)))
        positivity.append(classify(approx, cone, tol).preserving)
    return TrotterReport(tuple(int(n) for n in n_values), tuple(errors), tuple(positivity))


def perturbed_semigroup_improving(a: LinearOperator, b: LinearOperator,
                                  cone: SelfDualCone,
                                  betas: tuple[float, ...] = (0.5, 1.0, 2.0),
                                  tol: float = DEFAULT_TOL) -> bool:
    """Whether exp(-beta*(A-B)) improves the cone at every sampled beta > 0.

    Hypotheses checked first: A generates a positive semigroup and B is
    ergodic.  Ergodicity genuinely excludes couplings like the identity for
    dim >= 2 (orthogonal generator pairs never connect at any power), which
    is what protects the conclusion: a perturbation that couples nothing
    would leave a diagonal A-B reducible.
    """
    if not semigroup_positive_all_beta(a, cone, tol):
        raise PreconditionFailed("first operand does not generate a positive semigroup")
    if not is_ergodic(b, cone, tol).ergodic:
        raise PreconditionFailed("second operand is not ergodic")
    diff = a - b
    return all(classify(op_exp(diff, -beta), cone, tol).improving for beta in betas)
