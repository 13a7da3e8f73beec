"""Exception hierarchy for ctoconv.

All library errors derive from CtoConvError so callers can catch one type.
Validation errors (bad inputs) are kept separate from mathematical negatives
(e.g. NotThermoMajorizing) and from numeric failures (NumericBreakdown).
"""


class CtoConvError(Exception):
    """Base class for all ctoconv errors."""


class ParseError(CtoConvError):
    """Malformed instance file or plan file."""


class ValidationError(CtoConvError):
    """An input object violates a structural invariant."""


class NonPositiveGibbsWeight(ValidationError):
    """A Gibbs weight is zero or negative."""


class NotNormalized(ValidationError):
    """A distribution does not sum to one within tolerance."""


class ZeroTotalMass(ValidationError):
    """A joint state carries no probability mass at all."""


class DimensionMismatch(ValidationError):
    """Vector/matrix dimensions are inconsistent."""


class MassMismatch(ValidationError):
    """Two vectors that must carry equal mass do not."""


class OutOfRange(ValidationError):
    """An abscissa or probability lies outside its allowed interval."""


class EmptyInput(ValidationError):
    """An operation received an empty collection."""


class DimensionTooLarge(ValidationError):
    """Guard against the 2^d subset sums of the sigma grid (d <= 16)."""


class NotStochasticSum(ValidationError):
    """A family of sub-stochastic matrices does not sum to a stochastic one."""


class NotThermoMajorizing(CtoConvError):
    """Source curve does not dominate the target curve."""


class DegenerateSource(CtoConvError):
    """Threshold probability undefined: source is the free state, target is not."""


class NotConvertible(CtoConvError):
    """Synthesis was requested for a pair that is not convertible."""


class NumericBreakdown(CtoConvError):
    """The LP solver failed: lost conditioning, an answer that failed
    re-verification, or a spent work budget."""


class SolveBudgetExceeded(NumericBreakdown):
    """The simplex kernel, or the rounds of one decision, swept more tableau
    cells than the work budget holds."""


class DegenerateCertificate(CtoConvError):
    """Internal error: infeasibility certificate with no inequality multipliers."""


class FreeTarget(CtoConvError):
    """Asymptotic rate is unbounded because the target carries no resource."""
