"""Kernel networking substrate (S3/S4): the data planes FreeFlow replaces.

IP address management, routing mesh, the kernel TCP path (host mode),
the veth/bridge hop (docker0) and the user-space overlay router (Weave
style) — the "deep software stack" of the paper's Fig. 3(a).  The kernel
TCP path is built from :mod:`repro.transports` lanes; the message
records (:mod:`repro.transports.packet`) are re-exported here.
"""

from ..transports.packet import EndpointAddr, Message, segment_count
from .addressing import IpPool, OverlaySubnets
from .bridge import SoftwareBridge
from .overlay import OverlayRouter
from .pathsel import FLOWLET_GAP_S, PathSelector, Route, ecmp_hash
from .routing import RouteTable, RoutingMesh
from .tcp import KernelLane, TcpConnection, TcpEnd, TcpMode

__all__ = [
    "EndpointAddr",
    "FLOWLET_GAP_S",
    "IpPool",
    "KernelLane",
    "Message",
    "OverlayRouter",
    "OverlaySubnets",
    "PathSelector",
    "Route",
    "RouteTable",
    "RoutingMesh",
    "SoftwareBridge",
    "TcpConnection",
    "TcpEnd",
    "TcpMode",
    "ecmp_hash",
    "segment_count",
]
