"""Exception hierarchy for the simulated network stack.

Every error raised by :mod:`repro.net` derives from :class:`NetError` so
that callers can catch simulation-level network failures without also
swallowing programming errors.

Each class carries a ``transient`` flag splitting the hierarchy into
errors worth retrying (timeouts, resets — the noise a flaky vantage or
churning link produces) and permanent ones (NXDOMAIN, malformed input)
where a retry can only waste budget and, worse, mask a real signal.
The retry layers (:class:`repro.exec.resilience.ResilientRunner` for
the study, :class:`repro.monitor.supervisor.RoundSupervisor` for
monitoring rounds) consult this flag instead of maintaining their own
exception lists.
"""

from __future__ import annotations


class NetError(Exception):
    """Base class for all simulated-network errors."""

    #: Whether a retry of the failed operation can plausibly succeed.
    transient: bool = False


class AddressError(NetError):
    """An IPv4 address or prefix could not be parsed or is out of range."""


class UrlError(NetError):
    """A URL could not be parsed or violates URL syntax rules."""


class DnsError(NetError):
    """Base class for DNS resolution failures."""


class NxDomain(DnsError):
    """The queried name does not exist (NXDOMAIN).

    Permanent: an authoritative denial, not a lost packet — retrying the
    same query gets the same answer.
    """

    def __init__(self, name: str) -> None:
        super().__init__(f"NXDOMAIN: {name!r}")
        self.name = name


class DnsTimeout(DnsError):
    """The resolver did not answer within the simulated timeout."""

    transient = True


class ConnectionReset(NetError):
    """The TCP connection was reset by a peer or an on-path device."""

    transient = True


class ConnectionTimeout(NetError):
    """The TCP connection attempt or read timed out."""

    transient = True


class AllocationExhausted(NetError):
    """An address pool has no free addresses or prefixes left."""
