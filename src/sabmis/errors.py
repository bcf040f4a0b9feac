class SabmisError(Exception):
    """Base class for all toolkit errors."""


class FormatError(SabmisError):
    """Malformed or unsupported container or key file."""


class ParamError(SabmisError):
    """Parameter value or cross-field invariant violation."""


class DimensionError(SabmisError):
    """Shape or size mismatch between operands."""


class SolverError(SabmisError):
    """Numerical failure: inside the reconstruction solver, or a NaN or
    infinite sample in an input image."""
