"""Exception types shared across the package."""


class OrbitLabError(Exception):
    """Base class for all orbitlab errors."""


class ConfigurationError(OrbitLabError):
    """A spec, scenario or config describes something we cannot build."""


class InvalidArgumentError(OrbitLabError):
    """An operation was called with inconsistent or malformed arguments."""


class NotBracketClosedError(InvalidArgumentError):
    """A basis read as a Lie algebra is not closed under the bracket.

    A stabilizer read off a null space at a badly conditioned point can
    miss closure by more than rounding; an experiment's trial then calls
    its reductivity inconclusive instead of ending the run.
    """


class NotThetaStableError(OrbitLabError):
    """The algebra is not closed under conjugate transpose.

    A Cartan decomposition only exists for theta-stable algebras; the
    caller has to conjugate the group into a theta-stable position first.
    """
