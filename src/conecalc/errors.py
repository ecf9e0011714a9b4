"""Exception hierarchy shared by all conecalc modules."""

import functools


class ConecalcError(Exception):
    """Base class for every error raised by this package."""


class DimMismatch(ConecalcError):
    """Operands live on different spaces or have incompatible dimensions."""


class NonHermitian(ConecalcError):
    """An operator tagged Hermitian failed the Hermiticity check."""


class BadFactorization(ConecalcError):
    """A product-space dimension does not factor as requested."""


class NotDensityMatrix(ConecalcError):
    """Expected a positive semidefinite, trace-one operator."""


class NotRealForm(ConecalcError):
    """Operator does not map the involution-fixed real subspace to itself."""


class NotPreserving(ConecalcError):
    """Operator does not preserve the cone."""


class InputNotInClass(ConecalcError):
    """A Hamiltonian lacks the semigroup-positivity required here."""


class SpectralBound(ConecalcError):
    """Resolvent requested at or below the spectral bound."""


class Inconsistent(ConecalcError):
    """A computed fact fails the check that confirms it (tolerance pathology): a
    block ground pair's residual, a ground state that is not an observable
    eigenvector, a factored environment vector that is not strictly positive,
    or a Trotter approximant that is not finite."""


class PreconditionFailed(ConecalcError):
    """A named hypothesis of the operation does not hold."""


class ArrowFailed(ConecalcError):
    """The ordered-pair relation between two Hamiltonians could not be verified."""


class LinkFailed(ConecalcError):
    """One link of a chain failed verification; carries the link index."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"link {index}: {reason}")
        self.index = index
        self.reason = reason


class ChainFailed(ConecalcError):
    """Chain-level verification failed before quantum numbers were compared."""


class MuMismatch(ConecalcError):
    """Snapped quantum numbers differ along a verified chain."""

    def __init__(self, index: int, expected: float, got: float):
        super().__init__(
            f"quantum number changed at node {index}: {got!r} != {expected!r}"
        )
        self.index = index
        self.expected = expected
        self.got = got


class NotSimple(ConecalcError):
    """Lowest eigenvalue is degenerate (or too close to it to classify)."""


class NotCommuting(ConecalcError):
    """Hamiltonian and observable do not commute within tolerance."""


class NotInAPlus(ConecalcError):
    """Hamiltonian's semigroup does not improve positivity on the given cone."""


class SpecFailed(ConecalcError):
    """Lattice construction input violates one of its standing assumptions."""


class ClassificationFailed(ConecalcError):
    """A constructed operator failed its asserted positivity class."""


class DimCap(ConecalcError):
    """Requested construction exceeds the configured dimension cap."""


class SignRuleFailed(ConecalcError):
    """Sign-rule basis does not make the restricted Hamiltonian Metzler."""


class SchemaError(ConecalcError):
    """Run configuration does not conform to the expected schema."""


class IoError(ConecalcError):
    """Report or diagram files could not be written."""


def clears_failure_frames(fn):
    """Decorate a verifier so that a failure leaving it keeps none of the
    operands it checked.

    A raised failure holds its traceback, and each frame on the traceback
    holds its arguments and locals: for a chain, every node's matrices and
    records.  A caller that keeps the failure, in a list of results or in a
    reference cycle through its own frame, would keep all of that alive
    until the garbage collector breaks the cycle.  The failure's message and
    index say what failed, so the finished frames on its tracebacks, and on
    those of its causes, are cleared as it leaves.  `traceback`, which
    clears them, is imported only then: a program whose verifiers all
    return, such as the CLI reading and refusing a config, never loads it.
    """
    @functools.wraps(fn)
    def verifier(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConecalcError as exc:
            import traceback

            cause = exc
            while cause is not None:
                traceback.clear_frames(cause.__traceback__)
                cause = cause.__cause__ or cause.__context__
            del args, kwargs
            raise
    return verifier
