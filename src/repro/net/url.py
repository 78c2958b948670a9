"""URL parsing, normalization, and classification helpers.

The paper's methodology is URL-centric: filter databases key on
normalized URLs or hostnames, the Shodan queries combine keywords with
country-code TLDs, and blocking granularity matters (§4.6 found blocking
at hostname granularity). This module provides a small, strict URL type
tailored to those needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.net.errors import UrlError
from repro.net.ip import is_ascii_number

DEFAULT_PORTS = {"http": 80, "https": 443}

# Two-letter country-code TLDs relevant to the study plus common ones; the
# scan layer uses these for keyword x ccTLD query expansion (§3.1).
COUNTRY_CODE_TLDS = frozenset(
    """
    ad ae af ag ar at au az ba bd be bg bh bn bo br bs bt bw by bz ca ch
    cl cn co cr cu cy cz de dk dz ec ee eg es et fi fj fr gb ge gh gr gt
    hk hn hr hu id ie il in iq ir is it jm jo jp ke kg kh kr kw kz lb lk
    lt lu lv ly ma md me mk mm mn mx my ng ni nl no np nz om pa pe ph pk
    pl ps pt py qa ro rs ru sa se sg si sk sn sv sy th tn tr tw ua ug us
    uy uz ve vn ye za zw
    """.split()
)

GENERIC_TLDS = frozenset(
    ["com", "net", "org", "info", "biz", "edu", "gov", "mil", "int"]
)


def _validate_host(host: str) -> str:
    host = host.lower().rstrip(".")
    if not host:
        raise UrlError("empty host")
    if len(host) > 253:
        raise UrlError(f"host too long: {host[:40]}...")
    for label in host.split("."):
        if not label:
            raise UrlError(f"empty label in host {host!r}")
        if len(label) > 63:
            raise UrlError(f"label too long in host {host!r}")
        if not all(c.isalnum() or c == "-" for c in label):
            raise UrlError(f"bad character in host {host!r}")
        if label.startswith("-") or label.endswith("-"):
            raise UrlError(f"label starts/ends with '-' in host {host!r}")
    return host


@dataclass(frozen=True)
class Url:
    """An absolute HTTP(S) URL in normalized form.

    Normalization rules: lowercase scheme and host, default ports elided,
    empty path becomes ``/``, query-string order preserved.
    """

    scheme: str
    host: str
    port: int
    path: str
    query: str = ""

    @classmethod
    def parse(cls, text: str) -> "Url":
        """Parse an absolute URL string.

        >>> Url.parse("HTTP://Example.COM:80/a?b=1")
        Url(scheme='http', host='example.com', port=80, path='/a', query='b=1')
        """
        text = text.strip()
        if "://" not in text:
            raise UrlError(f"not an absolute URL: {text!r}")
        scheme, _, rest = text.partition("://")
        scheme = scheme.lower()
        if scheme not in DEFAULT_PORTS:
            raise UrlError(f"unsupported scheme {scheme!r}")
        authority, slash, path_and_query = rest.partition("/")
        if not authority:
            raise UrlError(f"missing host in {text!r}")
        if "@" in authority:
            raise UrlError(f"userinfo not supported: {text!r}")
        host, _, port_text = authority.partition(":")
        if port_text:
            if not is_ascii_number(port_text):
                raise UrlError(f"bad port in {text!r}")
            port = int(port_text)
            if not 1 <= port <= 65535:
                raise UrlError(f"port out of range in {text!r}")
        else:
            port = DEFAULT_PORTS[scheme]
        path_and_query = (slash + path_and_query) if slash else "/"
        path, _, query = path_and_query.partition("?")
        query, _, _fragment = query.partition("#")
        path, _, _frag2 = path.partition("#")
        return cls(scheme, _validate_host(host), port, path or "/", query)

    @classmethod
    def for_host(cls, host: str, scheme: str = "http") -> "Url":
        """Build the root URL for a bare hostname."""
        return cls(scheme, _validate_host(host), DEFAULT_PORTS[scheme], "/")

    def __str__(self) -> str:
        port = ""
        if self.port != DEFAULT_PORTS.get(self.scheme):
            port = f":{self.port}"
        query = f"?{self.query}" if self.query else ""
        return f"{self.scheme}://{self.host}{port}{self.path}{query}"

    @property
    def tld(self) -> str:
        """The final DNS label of the host (empty for IP-literal hosts)."""
        label = self.host.rsplit(".", 1)[-1]
        return "" if is_ascii_number(label) else label

    @property
    def registered_domain(self) -> str:
        """Best-effort registrable domain, e.g. ``a.b.example.com`` -> ``example.com``.

        Handles the common two-level ccTLD pattern (``example.co.uk``).
        An IP-literal host is its own domain: ``10.0.0.1`` and
        ``192.168.0.1`` are two domains, not one ``0.1``.
        """
        labels = self.host.split(".")
        if len(labels) <= 2 or not self.tld:
            return self.host
        if labels[-1] in COUNTRY_CODE_TLDS and labels[-2] in (
            "co",
            "com",
            "net",
            "org",
            "gov",
            "edu",
            "ac",
        ):
            return ".".join(labels[-3:])
        return ".".join(labels[-2:])

    def with_path(self, path: str, query: str = "") -> "Url":
        if not path.startswith("/"):
            raise UrlError(f"path must start with '/': {path!r}")
        return Url(self.scheme, self.host, self.port, path, query)

    def query_params(self) -> Dict[str, str]:
        """Parse the query string into a dict (last value wins)."""
        params: Dict[str, str] = {}
        if not self.query:
            return params
        for piece in self.query.split("&"):
            if not piece:
                continue
            key, _, value = piece.partition("=")
            params[key] = value
        return params
