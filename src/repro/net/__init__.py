"""Simulated network substrate: addresses, URLs, DNS, HTTP, fetches."""

from repro.net.errors import (
    AddressError,
    AllocationExhausted,
    ConnectionReset,
    ConnectionTimeout,
    DnsError,
    DnsTimeout,
    NetError,
    NxDomain,
    UrlError,
)
from repro.net.fetch import FetchOutcome, FetchResult, Fetcher, Hop
from repro.net.http import (
    Headers,
    HttpRequest,
    HttpResponse,
    html_page,
    not_found_response,
    ok_response,
    redirect_response,
)
from repro.net.ip import (
    AddressPool,
    Ipv4Address,
    Ipv4Prefix,
    PrefixPool,
    PrefixTable,
)
from repro.net.url import COUNTRY_CODE_TLDS, GENERIC_TLDS, Url
from repro.net.dns import DnsRecord, DnsZone

__all__ = [
    "AddressError",
    "AddressPool",
    "AllocationExhausted",
    "COUNTRY_CODE_TLDS",
    "ConnectionReset",
    "ConnectionTimeout",
    "DnsError",
    "DnsRecord",
    "DnsTimeout",
    "DnsZone",
    "FetchOutcome",
    "FetchResult",
    "Fetcher",
    "GENERIC_TLDS",
    "Headers",
    "Hop",
    "HttpRequest",
    "HttpResponse",
    "Ipv4Address",
    "Ipv4Prefix",
    "NetError",
    "NxDomain",
    "PrefixPool",
    "PrefixTable",
    "Url",
    "UrlError",
    "html_page",
    "not_found_response",
    "ok_response",
    "redirect_response",
]
