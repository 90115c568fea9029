"""Exception types shared across the package."""


class BlockGmmError(Exception):
    """Base class for all package-specific errors."""


class DataError(BlockGmmError):
    """Malformed or incomplete input data (CSV ingest)."""


class PlanError(BlockGmmError):
    """Invalid partition plan or plan/data dimension mismatch."""


class SolverError(BlockGmmError):
    """Block solver failure (singular design, divergence)."""


class NumericDomainError(BlockGmmError):
    """Parameters outside the valid numeric domain (sigma^2 <= 0, |rho| >= 1)."""


class CombineError(BlockGmmError):
    """Combination-stage failure (singular weights, incompatible bundles)."""


class ConvergenceError(CombineError):
    """Unconverged blocks in a combination that does not allow them."""
