"""Miniature striped parallel file system with three noncontiguous I/O
strategies (multiple, data sieving, list I/O) and a benchmark harness."""

from .errors import (
    BenchError,
    ExistsError,
    NotFoundError,
    PfsError,
    PlanError,
    ProtocolError,
    TokenError,
    WorkloadError,
)
from .regions import (
    Region,
    RegionList,
    StripingParams,
    batch_regions,
    extent,
    stripe_location,
)
from .server import IoDaemon, Manager

# The client's names load it on first use, so that the manager and the
# daemons, which import this package, never compile it.
_CLIENT_NAMES = frozenset({
    "AccessPlan", "ClientMetrics", "FileSession", "access_list",
    "access_multiple", "access_sieving_read", "access_sieving_write",
    "pvfs_create", "pvfs_open", "pvfs_read", "pvfs_read_list", "pvfs_write",
    "pvfs_write_list",
})


def __getattr__(name: str):
    if name in _CLIENT_NAMES:
        from . import client
        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([
    "BenchError",
    "ExistsError",
    "IoDaemon",
    "Manager",
    "NotFoundError",
    "PfsError",
    "PlanError",
    "ProtocolError",
    "Region",
    "RegionList",
    "StripingParams",
    "TokenError",
    "WorkloadError",
    "batch_regions",
    "extent",
    "stripe_location",
    *_CLIENT_NAMES,
])
