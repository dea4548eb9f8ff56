"""Exception hierarchy shared across the toolkit."""


class ParakahlerError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(ParakahlerError):
    """Operands live in different D^n."""


class LagrangianViolation(ParakahlerError):
    """Symplectic form does not vanish on the given frame/tangents."""


class DegenerateMetric(ParakahlerError):
    """Induced metric (or a required pivot) is numerically degenerate."""


class NotJInvariant(ParakahlerError):
    """Subspace is not invariant under the para-complex structure."""


class OddDimension(ParakahlerError):
    """A para-adapted frame needs an even-dimensional span."""


class NotParaComplexStructure(ParakahlerError):
    """Tensor field fails J^2 = Id or the equal-rank condition."""


class NotNullCurve(ParakahlerError):
    """Curve tangent is not null where it must be."""


class DegeneratePairing(ParakahlerError):
    """Cross pairing of the two null factors vanishes somewhere."""


class NotParaHolomorphic(ParakahlerError):
    """Map fails the para-Cauchy-Riemann equations beyond tolerance."""


class InvalidRange(ParakahlerError):
    """Requested parameter range is outside the family's domain."""


class NonpositiveRadius(ParakahlerError):
    """Soliton state has r <= 0."""


class StepFailure(ParakahlerError):
    """Adaptive integrator underflowed its step size."""


class InvalidCase(ParakahlerError):
    """Operation undefined for this causal case / parameter sign."""


class IntegrandSingular(ParakahlerError):
    """Quadrature range crosses a turning point of the radicand."""


class SpecValidationError(ParakahlerError):
    """Immersion-spec document failed validation."""


class NonFiniteValues(SpecValidationError, ValueError):
    """An immersion's samples are not all finite, as where a potential
    overflows on its grid: an invalid spec, and a ValueError to callers
    that build immersions themselves."""


class ExpressionSyntaxError(SpecValidationError):
    """Expression text failed to parse or names an unknown variable.

    Carries the 0-based index into the text of the first offending position.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
