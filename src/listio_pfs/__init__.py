"""Miniature striped parallel file system with three noncontiguous I/O
strategies (multiple, data sieving, list I/O) and a benchmark harness."""

from .client import (
    AccessPlan,
    ClientMetrics,
    FileSession,
    access_list,
    access_multiple,
    access_sieving_read,
    access_sieving_write,
    pvfs_create,
    pvfs_open,
    pvfs_read,
    pvfs_read_list,
    pvfs_write,
    pvfs_write_list,
)
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

__all__ = [
    "AccessPlan",
    "BenchError",
    "ClientMetrics",
    "ExistsError",
    "FileSession",
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
    "access_list",
    "access_multiple",
    "access_sieving_read",
    "access_sieving_write",
    "batch_regions",
    "extent",
    "pvfs_create",
    "pvfs_open",
    "pvfs_read",
    "pvfs_read_list",
    "pvfs_write",
    "pvfs_write_list",
    "stripe_location",
]
