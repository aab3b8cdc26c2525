"""Addressing and header-space primitives.

This package is the lowest layer of the system: IPv4 addresses, CIDR
prefixes, half-open integer intervals over the 32-bit address space,
and interval sets (unions of disjoint intervals).  Everything above
— FIB tries, atom decomposition, ACL evaluation — is built on these.
"""

from repro.net.addr import IPv4Address, Prefix, iter_subprefixes
from repro.net.interval import Interval, IntervalSet

__all__ = [
    "IPv4Address",
    "Interval",
    "IntervalSet",
    "Prefix",
    "iter_subprefixes",
]
