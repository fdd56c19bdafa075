"""Exception hierarchy shared by all momentkit modules.

Two broad families:

* contract violations (wrong shapes, truncation overflow, malformed input)
* numerical verdicts (a matrix that must be PSD is not, a rank profile is
  not flat, a kernel containment fails) -- these are *results*, reported as
  typed errors so callers can map them to exit codes.

It also holds the rules that the config validator shares with the
library (the weight-sum rule of ``DiscreteMeasure``, the lattice cap of
``full_lattice``, the Monte Carlo caps of ``McConfig``) and the work-size
cap of ``main_theorem`` configs: this module needs only the standard
library, so validating a config does not import numpy.
"""

import math

WEIGHT_SUM_TOL = 1e-12  # allowed |sum of weights - 1| of a probability measure
LATTICE_CAP = 12  # largest dimension whose full coordinate lattice is swept
# Most monomials C(n + degrees, degrees) a main_theorem config may ask for:
# the count of the largest lattice (n = LATTICE_CAP) at degree 4.
MONOMIAL_CAP = math.comb(LATTICE_CAP + 4, 4)
# Most Monte Carlo streams (blocks) one pass may split into: each block costs
# a Philox set-up and a pool task (0.15 s in all at the cap on a 2-core host).
STREAMS_CAP = 2**12
# Most samples one stream's block may hold: a block keeps one float64 array
# of its values per estimator, 128 MiB each at the cap.
BLOCK_SAMPLES_CAP = 2**24
CARLEMAN_MIN_MOMENTS = 4  # fewest even moments the growth diagnostic fits


def weights_sum_to_one(weights) -> bool:
    """|fsum(weights) - 1| <= WEIGHT_SUM_TOL for finite weights.  ``fsum`` is
    correctly rounded, so the verdict does not depend on summation order."""
    try:
        return abs(math.fsum(weights) - 1.0) <= WEIGHT_SUM_TOL
    except OverflowError:  # finite weights whose total leaves the float range
        return False


def mc_cap_fault(samples: int, streams: int):
    """Which Monte Carlo cap splitting samples over streams breaks, or None."""
    if streams > STREAMS_CAP:
        return f"streams = {streams} exceeds the stream cap {STREAMS_CAP}"
    if -(-samples // streams) > BLOCK_SAMPLES_CAP:
        return (
            f"samples = {samples} over streams = {streams} puts more than the block cap "
            f"{BLOCK_SAMPLES_CAP} in one block"
        )
    return None


class MomentkitError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(MomentkitError):
    """Operands live on spaces of different dimensions."""


class DegreeOverflow(MomentkitError):
    """An algebra or moment operation exceeds the stored truncation degree."""


class NotHomogeneous(MomentkitError):
    """An element expected to be homogeneous has mixed degrees."""


class KernelNotContained(MomentkitError):
    """ker(q) is not contained in ker(p); the relative trace is infinite."""


class NotContinuous(MomentkitError):
    """A functional has a component on the kernel of the reference form."""


class SingularForm(MomentkitError):
    """A form required to have trivial kernel is degenerate."""


class ZeroNormDirection(MomentkitError):
    """A direction that must have positive seminorm has norm zero."""


class NotPSD(MomentkitError):
    """A matrix that certifies positivity has an eigenvalue below tolerance."""


class NotSquarePositive(MomentkitError):
    """A functional fails positivity on squares (moment matrix not PSD)."""


class NegativeEvenMoment(MomentkitError):
    """An even moment L(v^{2n}) is negative; the functional is not positive."""


class RankNotFlat(MomentkitError):
    """Truncated moment data admits no flat extraction; needs an extension."""


class IllConditioned(MomentkitError):
    """A solve exceeds its condition cap, or a recovered measure misses its table."""


class InfiniteTrace(MomentkitError):
    """A finite trace was required but tr(p/q) is infinite."""


class NotSubset(MomentkitError):
    """Coordinate index sets are not nested as required."""


class NotInScope(MomentkitError):
    """The hypothesis of the statement under test does not hold for the input."""


class HypothesisNotCertified(MomentkitError):
    """A downstream check requires a certificate that was not established."""


class KernelIssue(MomentkitError):
    """A supported character is nonzero on a kernel direction of the form."""


class IncompleteSystem(MomentkitError):
    """An orthonormal system required to be complete does not span the quotient."""


class ConfigError(MomentkitError):
    """A scenario configuration is malformed (schema or IO problem)."""


class InvalidInput(MomentkitError, ValueError):
    """A constructor argument lies outside its domain (non-finite, negative,
    or not normalized); still a ValueError for callers that catch one."""
