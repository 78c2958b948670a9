"""Websense model.

Identification surface (Table 2): Shodan keywords ``blockpage.cgi`` and
``gateway websense``; WhatWeb matches a Location header redirecting to a
host on port 15871 with a ``ws-session`` parameter. Websense deployments
also carry the concurrent-license fail-open behaviour documented for
Yemen (§4.4): the :class:`~repro.products.licensing.LicenseModel` is
attached at the middlebox layer.
"""

from __future__ import annotations

from typing import Dict, List

from repro.net.http import Headers, HttpRequest, HttpResponse, html_page
from repro.net.ip import is_ascii_number
from repro.products.base import DeploymentContext, UrlFilterProduct
from repro.products.categories import WEBSENSE_TAXONOMY, VendorCategory
from repro.products.registry import (
    REGISTRY,
    WEBSENSE,
    BlockPatternSpec,
    ProductSpec,
)
from repro.products.signatures import (
    Evidence,
    ProbeObservation,
    header_contains,
    location_matches,
)
from repro.world.content import ContentClass
from repro.world.entities import ServiceApp

BLOCKPAGE_PORT = 15871


class Websense(UrlFilterProduct):
    """Vendor-side Websense: database plus block-page gateway surface."""

    vendor = "Websense"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(WEBSENSE_TAXONOMY, *args, **kwargs)
        self._next_session = 1_048_576

    # --------------------------------------------------------- durability
    def capture_state(self) -> Dict[str, object]:
        state = super().capture_state()
        state["next_session"] = self._next_session
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        super().restore_state(state)
        self._next_session = state["next_session"]  # type: ignore[assignment]

    def block_response(
        self,
        request: HttpRequest,
        category: VendorCategory,
        context: DeploymentContext,
    ) -> HttpResponse:
        session = self._next_session
        self._next_session += 1
        target = (
            f"http://{context.box_host}:{BLOCKPAGE_PORT}/cgi-bin/blockpage.cgi"
            f"?ws-session={session}&cat={category.number}"
        )
        headers = Headers()
        headers.set("Location", target)
        headers.set("Content-Type", "text/html; charset=utf-8")
        return HttpResponse(
            302, headers, html_page("Redirect", "<p>redirecting</p>")
        )

    def _blockpage(
        self, request: HttpRequest, context: DeploymentContext
    ) -> HttpResponse:
        params = request.url.query_params()
        catno = params.get("cat", "")
        category = (
            self.taxonomy.by_number(int(catno))
            if is_ascii_number(catno)
            else None
        )
        branded = context.config.show_branding
        title = (
            "Websense - Access to this site is blocked"
            if branded
            else "Access to this site is blocked"
        )
        reason = (
            f"<p>Reason: the Websense category "
            f'"{category.name}" is filtered.</p>'
            if branded and category
            else "<p>This site is blocked by your organization's policy.</p>"
        )
        headers = Headers()
        headers.set("Server", "Websense Content Gateway")
        headers.set("Content-Type", "text/html; charset=utf-8")
        return HttpResponse(
            200,
            headers,
            html_page(
                title,
                f"<h1>Access to this site is blocked</h1>{reason}"
                f"<p>URL: {params.get('url', '')}</p>",
            ),
        )

    def admin_apps(self, context: DeploymentContext) -> Dict[int, ServiceApp]:
        def blockpage_service(request: HttpRequest) -> HttpResponse:
            if request.url.path.startswith("/cgi-bin/blockpage.cgi"):
                return self._blockpage(request, context)
            headers = Headers()
            headers.set("Server", "Websense Content Gateway")
            headers.set("Content-Type", "text/html; charset=utf-8")
            return HttpResponse(403, headers, html_page("Forbidden", "<h1>403</h1>"))

        def gateway_login(request: HttpRequest) -> HttpResponse:
            headers = Headers()
            headers.set("Server", "Websense Content Gateway")
            headers.set("Content-Type", "text/html; charset=utf-8")
            return HttpResponse(
                200,
                headers,
                html_page(
                    "Content Gateway Websense",
                    "<h1>Websense Content Gateway</h1>"
                    "<p>Administrator login.</p>",
                ),
            )

        return {BLOCKPAGE_PORT: blockpage_service, 80: gateway_login}


def make_websense(*args, **kwargs) -> Websense:
    """Construct a Websense vendor instance with the standard taxonomy."""
    return Websense(*args, **kwargs)


def websense_signature(observations: List[ProbeObservation]) -> List[Evidence]:
    """A redirect to port 15871 with ws-session, or a Websense server banner."""
    evidence = location_matches(
        observations,
        lambda loc: ":15871" in loc and "ws-session" in loc.lower(),
        "blockpage",
    )
    evidence.extend(header_contains(observations, "Server", "websense"))
    return evidence


SPEC = REGISTRY.register(
    ProductSpec(
        name=WEBSENSE,
        slug="websense",
        order=40,
        paper_default=True,
        shodan_keywords=("blockpage.cgi", '"gateway websense"'),
        signature=websense_signature,
        signature_note=(
            "redirect to port 15871 with ws-session, or Websense server banner"
        ),
        probe_endpoints=(
            (BLOCKPAGE_PORT, "/"),
            (BLOCKPAGE_PORT, "/cgi-bin/blockpage.cgi"),
        ),
        block_patterns=(
            BlockPatternSpec(r"blockpage\.cgi", "any", False),
            BlockPatternSpec(r"ws-session", "any", False),
            BlockPatternSpec(r"websense", "body", True),
        ),
        factory=make_websense,
        taxonomy=WEBSENSE_TAXONOMY,
        category_requests={
            ContentClass.PROXY_ANONYMIZER: "Proxy Avoidance",
            ContentClass.ADULT_IMAGES: "Adult Content",
            ContentClass.PORNOGRAPHY: "Sex",
        },
        brand_marks=("websense",),
        scrub_tokens=("websense",),
        residue_tokens=("websense",),
        proxy_annotation=("Via", "1.1 wcg (Websense Content Gateway)"),
        headquarters="San Diego, CA, USA",
        description="Web proxy gateways including corporate data leakage monitoring",
        previously_observed=("ye",),
    )
)
