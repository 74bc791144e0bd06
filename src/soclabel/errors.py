"""Exception types shared across the package."""


class SocLabelError(Exception):
    """Base class for all package errors."""


class ZeroMass(SocLabelError):
    """Selected entries of a probability vector carry zero total mass."""


class InvalidClass(SocLabelError):
    """Class index outside {0..K-1}."""


class InvalidK(SocLabelError):
    """Cluster count k outside [2, K]."""


class InvalidConfidence(SocLabelError):
    """Confidence score outside [0, 1]."""


class EmptyBatch(SocLabelError):
    """Batch operation called with no samples."""


class ShapeMismatch(SocLabelError):
    """Aligned inputs have inconsistent lengths or shapes."""


class DivergedAtIteration(SocLabelError):
    """Training loss became non-finite."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"non-finite loss at iteration {iteration}")


class UnknownSuite(SocLabelError):
    """Verification suite name that is not registered."""


class SchemaError(SocLabelError):
    """Prediction log violates its schema."""


class ConfigError(SocLabelError):
    """Simulation config violates its schema."""
