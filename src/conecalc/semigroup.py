"""Semigroup-side verification: resolvents, Trotter-product positivity, and
the improvement of a positive semigroup by an ergodic perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import SelfDualCone
from .errors import Inconsistent, InputNotInClass, PreconditionFailed, SpectralBound
from .numerics import DEFAULT_TOL, LinearOperator, _eigh_exp, op_exp
from .positivity import (
    classify,
    generates_improving_semigroup,
    generates_positive_semigroup,
    is_ergodic,
)

RESOLVENT_MARGIN = 1e-10  # s must exceed the spectral bound -E(H) by more than this
TROTTER_ERROR_FLOOR = 1e-12  # a Trotter run converges outright when no error exceeds this
TROTTER_RATIO_BAND = (2.0 / 3.0, 6.0)  # ... and otherwise when every error ratio lies in this band


def resolvent(h: LinearOperator, s: float) -> LinearOperator:
    """(H + s)^{-1} for s strictly above the spectral bound -E(H)."""
    h.require_hermitian()
    vals, vecs = np.linalg.eigh(h.mat)
    if s <= -vals[0] + RESOLVENT_MARGIN:
        raise SpectralBound(f"s = {s!r} is not above the spectral bound {-float(vals[0])!r}")
    out = (vecs / (vals + float(s))) @ vecs.conj().T
    return LinearOperator(h.space, 0.5 * (out + out.conj().T))


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

    @property
    def converges(self) -> bool:
        """No error above `TROTTER_ERROR_FLOOR`, or every ratio in `TROTTER_RATIO_BAND`."""
        low, high = TROTTER_RATIO_BAND
        return (max(self.errors, default=0.0) <= TROTTER_ERROR_FLOOR
                or all(low <= r <= high for r in self.ratios()))

    @property
    def ok(self) -> bool:
        return self.converges and all(self.positivity_ok)

    def to_payload(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "errors": list(self.errors),
            "positivity_ok": list(self.positivity_ok),
            "error_ratios": list(self.ratios()),
            "converges": self.converges,
        }


def trotter_verify(h: LinearOperator, h_prime: LinearOperator,
                   s: float, t: float, beta: float,
                   n_values: tuple[int, ...], cone: SelfDualCone,
                   tol: float = DEFAULT_TOL) -> TrotterReport:
    """Check the split-product approximation of exp(-beta*(sH + tH')).

    Each approximant (exp(-beta*s*H/n) exp(-beta*t*H'/n))^n is compared in
    spectral norm against the direct exponential and classified against the
    cone; products of cone-preserving factors must stay cone-preserving at
    every n.  H, H' and sH + tH' are decomposed once each, and every factor
    is exponentiated from the kept eigenpairs as `op_exp` does.  The direct
    exponential, or an approximant, with a non-finite entry raises
    `Inconsistent` before any norm is taken: rounding reaches one at a huge
    n, and a huge entry of H or H' leaves eigenvalues whose rounding error
    overflows the exponential.  So does a direct exponential with no
    nonzero entry, which a huge beta or s underflows to: every approximant
    would then be zero too, and errors of 0 would compare nothing.
    """
    for name, op in (("first", h), ("second", h_prime)):
        if not generates_positive_semigroup(op, cone, tol):
            raise InputNotInClass(f"{name} operand does not generate a positive semigroup")
    with np.errstate(over="ignore", invalid="ignore"):  # judged by the finite test
        target = op_exp(LinearOperator(h.space, s * h.mat + t * h_prime.mat), -beta)
    if not np.isfinite(target.mat).all():
        raise Inconsistent("the exponential exp(-beta*(sH + tH')) is not finite")
    if not target.mat.any():
        raise Inconsistent("the exponential exp(-beta*(sH + tH')) underflows to zero")
    first = np.linalg.eigh(h.mat)
    second = np.linalg.eigh(h_prime.mat)
    errors = []
    positivity = []
    for n in n_values:
        with np.errstate(over="ignore", invalid="ignore"):  # judged by the finite test
            step = (_eigh_exp(h.space, *first, -beta * s / n).mat
                    @ _eigh_exp(h.space, *second, -beta * t / n).mat)
            power = np.linalg.matrix_power(step, n)
        if not np.isfinite(power).all():
            raise Inconsistent(f"the Trotter approximant at n = {n} is not finite")
        approx = LinearOperator(h.space, power)
        errors.append(float(np.linalg.norm(approx.mat - target.mat, 2)))
        positivity.append(classify(approx, cone, tol).preserving)
    return TrotterReport(tuple(int(n) for n in n_values), tuple(errors), tuple(positivity))


def perturbed_semigroup_improving(a: LinearOperator, b: LinearOperator,
                                  cone: SelfDualCone, tol: float = DEFAULT_TOL) -> bool:
    """Whether exp(-beta*(A-B)) improves the cone for every beta > 0.

    Hypotheses checked first: A generates a positive semigroup and B is
    ergodic.  Ergodicity genuinely excludes couplings like the identity for
    dim >= 2 (orthogonal generator pairs never connect at any power), which
    is what protects the conclusion: a perturbation that couples nothing
    would leave a diagonal A-B reducible.  The verdict is the structural
    criterion: -(A-B) Metzler and irreducible in the generator basis, which
    by Perron-Frobenius makes every exp(-beta*(A-B)), beta > 0, strictly
    positive there, however small its smallest entry.
    """
    if not generates_positive_semigroup(a, cone, tol):
        raise PreconditionFailed("first operand does not generate a positive semigroup")
    if not is_ergodic(b, cone, tol).ergodic:
        raise PreconditionFailed("second operand is not ergodic")
    return generates_improving_semigroup(a - b, cone, tol)
