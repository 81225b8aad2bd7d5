"""Exception types shared across the package."""


class PfsError(Exception):
    """Base class for all errors raised by this package."""


class ProtocolError(PfsError):
    """Malformed or out-of-contract wire traffic."""


class PlanError(PfsError):
    """Invalid region list or access plan."""


class WorkloadError(PfsError):
    """Workload parameters violate the generator's divisibility rules."""


class ExistsError(PfsError):
    """File name already present at the manager."""


class NotFoundError(PfsError):
    """Unknown file name or unattached handle."""


class TokenError(PfsError):
    """Write-token misuse: a release by a connection that does not hold
    the token, or an acquire by the one that does."""


class BenchError(PfsError):
    """Benchmark configuration or execution failure."""
