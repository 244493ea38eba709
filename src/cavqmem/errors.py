"""Typed exceptions for parameter validation, quadrature and protocol failures."""


class CavqmemError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteField(CavqmemError):
    """A numeric parameter field is NaN or infinite."""

    def __init__(self, name: str):
        super().__init__(f"field {name!r} must be finite")
        self.name = name


class NonPositiveKappa(CavqmemError):
    """A linewidth field (kappa or kappa_p) is zero or negative."""

    def __init__(self, name: str = "kappa"):
        super().__init__(f"field {name!r} must be > 0")
        self.name = name


class NegativeGamma(CavqmemError):
    """The atomic decay rate gamma is negative."""

    def __init__(self):
        super().__init__("gamma must be >= 0")


class ZeroCoupling(CavqmemError):
    """Both coupling strengths vanish; the atom never scatters."""

    def __init__(self):
        super().__init__("lambda_L**2 + lambda_R**2 must be > 0")


class GammaZero(CavqmemError):
    """Cooperativity requested at gamma = 0, where it is infinite."""

    def __init__(self):
        super().__init__("cooperativity is undefined (infinite) at gamma = 0")


class InvalidField(CavqmemError, ValueError):
    """An unknown or unusable input field: a serialized key, a sweep axis, a
    qubit that is not normalized, a detector efficiency outside (0, 1], or a
    wavenumber where the scattering map overflows."""

    def __init__(self, name: str, reason: str = "unknown field"):
        super().__init__(f"{reason}: {name!r}")
        self.name = name


class DegenerateDenominator(CavqmemError):
    """The scattering denominator vanished; unreachable for validated real-k input."""

    def __init__(self):
        super().__init__("scattering denominator smaller than 1e-300")


class NonFiniteIntegrand(CavqmemError):
    """A spectral average came out NaN or infinite: its integrand at the
    quadrature nodes, a moment of h that overflows at a parameter point, or
    a quantity of a simulated cycle."""

    def __init__(self, what: str = "integrand is not finite on the "
                                   "quadrature grid"):
        super().__init__(what)


class PrecisionLoss(CavqmemError):
    """A computed [|h|^2]_f left [0, 1], where passivity holds it: double
    precision ran out at this parameter point (the exact pole sums cancel,
    e.g. at kappa = 1e16), so no closed form there can be trusted."""

    def __init__(self, h2: float):
        super().__init__(f"[|h|^2]_f = {h2!r} lies outside [0, 1]; double "
                         "precision is lost at this parameter point")
        self.h2 = h2


class ZeroScatteringWeight(CavqmemError):
    """The averaged scattering weight vanished; fidelity ratios are undefined."""

    def __init__(self):
        super().__init__("[|h|^2]_f < 1e-300; the pulse never scatters")


class UnequalCouplings(CavqmemError):
    """An operation that requires lambda_L = lambda_R got unequal couplings."""

    def __init__(self, lambda_L: float, lambda_R: float):
        super().__init__(
            f"requires lambda_L == lambda_R, got {lambda_L!r} != {lambda_R!r}"
        )


class ZeroProbability(CavqmemError):
    """A conditioning measurement has probability below 1e-300."""

    def __init__(self, what: str = "measurement"):
        super().__init__(f"{what} has probability < 1e-300; cannot condition on it")
