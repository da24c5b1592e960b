"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, InvariantViolation -> 4,
any other ArnolddiffError -> 3.  A ConfigError is raised before any work
starts, when the run file fails its check against config.SCHEMA (the
cross-key and regime checks of a few commands come later); the domain
errors are facts about the dynamics that the library finds while it runs.
The scalar kernels raise NotHorizontal (also a ValueError) and
NoConvergence (also an ArithmeticError) themselves; no caller translates them.
"""


class ArnolddiffError(Exception):
    """Base class for domain errors raised by this package."""


class ConfigError(ArnolddiffError):
    """Malformed or incomplete run configuration."""


class InvariantViolation(ArnolddiffError):
    """A build-time invariant check failed."""


class StepSizeUnderflow(ArnolddiffError):
    """Adaptive integrator pushed the step below h_min."""


class MaxStepsExceeded(ArnolddiffError):
    """Adaptive integrator ran out of its step budget."""


class EventNotFound(ArnolddiffError):
    """A sought crossing does not occur: no section crossing within the
    integration horizon, or no level crossing in a seed's search interval."""


class NotHorizontal(ArnolddiffError, ValueError):
    """Crest is not a horizontal graph at the requested actions."""


class NoConvergence(ArnolddiffError, ArithmeticError):
    """Root iteration failed; must not happen in the safe parameter regime."""


class WindowUnreachable(ArnolddiffError):
    """Rotation never entered the requested angular window within the budget."""


class UseScatteringDetour(ArnolddiffError):
    """Degenerate resonant line: rotation alone cannot reach the window."""


class AsymptoticsUnreliable(ArnolddiffError):
    """Far-field seed formula used too close to the resonance region."""


class LevelDrift(ArnolddiffError):
    """Conserved level degraded beyond tolerance along a traced orbit."""


class RangeNotCovered(ArnolddiffError):
    """Requested frequency range extends past the stored orbit samples."""


class EpsilonTooLarge(ArnolddiffError):
    """Perturbation size outside the range a computation is valid for: above
    the tracking threshold of a path or the jump oracle's calibration, at or
    above the drift-time estimate's window constant C (where the homoclinic
    time 2 log(C/eps) is not positive), or not positive where the actions
    must move."""


class Stuck(ArnolddiffError):
    """Pseudo-orbit builder could not make progress; carries a state dump."""


class DegenerateDirection(ArnolddiffError):
    """Path requires motion along an action with zero coupling amplitude."""


class ExcursionTooShort(ArnolddiffError):
    """Homoclinic excursion endpoints not close enough to the invariant set."""
