"""Netsweeper model.

Three behaviours from the paper are specific to this product:

1. **Deny-page redirects** through the box's own ``:8080/webadmin/deny``
   path (Table 2's Shodan keywords are all webadmin paths).
2. **The access queue** (§4.4, Challenge 2): "Netsweeper queuing Web
   sites for categorization once they have been accessed within the
   country" — any uncategorized URL fetched through a deployment is
   queued, and an analyst categorizes it days later. This is why the
   confirmation methodology cannot pre-validate accessibility for
   Netsweeper.
3. **The category test pages** (§4.4): the vendor operates
   ``denypagetests.netsweeper.com/category/catno/<N>`` for each of its
   66 categories; a deployment blocks exactly the test pages of the
   categories its policy denies, letting an outside observer enumerate
   the blocked categories (catno 23 = Pornography).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.http import Headers, HttpRequest, HttpResponse, html_page, ok_response
from repro.net.ip import is_ascii_number
from repro.net.url import Url
from repro.products.base import DeploymentContext, UrlFilterProduct
from repro.products.categories import NETSWEEPER_TAXONOMY, VendorCategory
from repro.products.database import DatabaseSubscription
from repro.products.registry import (
    NETSWEEPER,
    REGISTRY,
    BlockPatternSpec,
    ProductSpec,
)
from repro.products.signatures import (
    Evidence,
    ProbeObservation,
    body_contains,
    location_matches,
    title_contains,
)
from repro.products.submission import ContentOracle, HostingOracle, ReviewPolicy
from repro.world.clock import SimTime
from repro.world.entities import ServiceApp

ADMIN_PORT = 8080
CATEGORY_TEST_HOST = "denypagetests.netsweeper.com"


@dataclass
class QueueEntry:
    """An uncategorized host awaiting analyst categorization."""

    host: str
    first_seen: SimTime
    due_at: SimTime


class Netsweeper(UrlFilterProduct):
    """Vendor-side Netsweeper: database, test-a-site portal, access queue."""

    vendor = "Netsweeper"
    category_test_host = CATEGORY_TEST_HOST

    def __init__(
        self,
        content_oracle: ContentOracle,
        rng: random.Random,
        review_policy: Optional[ReviewPolicy] = None,
        hosting_oracle: Optional[HostingOracle] = None,
        queue_min_days: float = 2.0,
        queue_max_days: float = 6.0,
    ) -> None:
        super().__init__(
            NETSWEEPER_TAXONOMY,
            content_oracle,
            rng,
            review_policy=review_policy,
            hosting_oracle=hosting_oracle,
        )
        self._content_oracle = content_oracle
        self._queue: Dict[str, QueueEntry] = {}
        self._queue_min_days = queue_min_days
        self._queue_max_days = queue_max_days

    # -------------------------------------------------------- access queue
    def on_passthrough(self, url: Url, now: SimTime) -> None:
        """Queue an uncategorized host the moment it is seen in traffic."""
        host = url.host
        if host == CATEGORY_TEST_HOST:
            return
        if host in self._queue or self.database.knows(url, now):
            return
        delay = self._rng.uniform(self._queue_min_days, self._queue_max_days)
        self._queue[host] = QueueEntry(host, now, now.plus_days(delay))

    def tick(self, now: SimTime) -> None:
        super().tick(now)
        matured = [e for e in self._queue.values() if e.due_at <= now]
        for entry in matured:
            del self._queue[entry.host]
            content = self._content_oracle(entry.host)
            if content is None:
                continue
            category = self.taxonomy.classify(content)
            if category is None:
                continue
            self.database.add(entry.host, category, now, source="auto_queue")

    @property
    def queued_hosts(self) -> List[str]:
        return sorted(self._queue)

    # --------------------------------------------------------- durability
    def capture_state(self) -> Dict[str, object]:
        state = super().capture_state()
        # Insertion order is preserved: tick() matures entries in queue
        # order, and the order of database adds affects tie-breaking.
        state["queue"] = list(self._queue.values())
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        super().restore_state(state)
        self._queue = {entry.host: entry for entry in state["queue"]}  # type: ignore[union-attr]

    # ---------------------------------------------------------- decisions
    def decide(
        self,
        url: Url,
        subscription: DatabaseSubscription,
        now: SimTime,
    ) -> Optional[VendorCategory]:
        if url.host == CATEGORY_TEST_HOST:
            return self._test_page_category(url)
        return subscription.lookup(url, now)

    def _test_page_category(self, url: Url) -> Optional[VendorCategory]:
        parts = [p for p in url.path.split("/") if p]
        # Expected: category/catno/<N>
        if len(parts) == 3 and parts[0] == "category" and parts[1] == "catno":
            if is_ascii_number(parts[2]):
                return self.taxonomy.by_number(int(parts[2]))
        return None

    # ---------------------------------------------------------- responses
    def block_response(
        self,
        request: HttpRequest,
        category: VendorCategory,
        context: DeploymentContext,
    ) -> HttpResponse:
        from urllib.parse import quote

        target = (
            f"http://{context.box_host}:{ADMIN_PORT}/webadmin/deny/index.php"
            f"?dpid=3&dpruleid=1&cat={category.number}"
            f"&url={quote(str(request.url), safe='')}"
        )
        headers = Headers()
        headers.set("Location", target)
        headers.set("Content-Type", "text/html; charset=utf-8")
        return HttpResponse(
            302, headers, html_page("Redirect", "<p>redirecting</p>")
        )

    def _deny_page(
        self, request: HttpRequest, context: DeploymentContext
    ) -> HttpResponse:
        params = request.url.query_params()
        catno = params.get("cat", "")
        category = (
            self.taxonomy.by_number(int(catno))
            if is_ascii_number(catno)
            else None
        )
        category_line = (
            f"<p>Category: {category.name} ({category.number})</p>"
            if category
            else ""
        )
        branded = context.config.show_branding
        footer = "<p>Netsweeper Enterprise Filter</p>" if branded else ""
        message = context.config.custom_message or (
            "The page you have requested has been blocked because it "
            "matches a deny policy in effect on this network."
        )
        headers = Headers()
        headers.set("Server", "Apache")
        headers.set("Content-Type", "text/html; charset=utf-8")
        return HttpResponse(
            200,
            headers,
            html_page(
                "Web Page Blocked" if branded else "Page Blocked",
                f"<h1>Web Page Blocked</h1><p>{message}</p>"
                f"{category_line}{footer}",
            ),
        )

    def admin_apps(self, context: DeploymentContext) -> Dict[int, ServiceApp]:
        def webadmin(request: HttpRequest) -> HttpResponse:
            path = request.url.path
            if path.startswith("/webadmin/deny"):
                return self._deny_page(request, context)
            if path.startswith("/webadmin"):
                headers = Headers()
                headers.set("Server", "Apache")
                headers.set("Content-Type", "text/html; charset=utf-8")
                return HttpResponse(
                    200,
                    headers,
                    html_page(
                        "Netsweeper WebAdmin",
                        "<h1>Netsweeper WebAdmin</h1>"
                        "<form>Username <input name='u'> "
                        "Password <input name='p' type='password'></form>"
                        "<p>&copy; Netsweeper Inc.</p>",
                    ),
                )
            headers = Headers()
            headers.set("Location", "/webadmin/")
            headers.set("Server", "Apache")
            return HttpResponse(302, headers, "")

        return {ADMIN_PORT: webadmin}

    def infrastructure_apps(self) -> Dict[str, ServiceApp]:
        taxonomy = self.taxonomy

        def denypagetests(request: HttpRequest) -> HttpResponse:
            parts = [p for p in request.url.path.split("/") if p]
            if (
                len(parts) == 3
                and parts[0] == "category"
                and parts[1] == "catno"
                and is_ascii_number(parts[2])
            ):
                category = taxonomy.by_number(int(parts[2]))
                if category is not None:
                    return ok_response(
                        f"Deny Page Test - {category.name}",
                        f"<h1>Category test page</h1>"
                        f"<p>This page is categorized as "
                        f"{category.name} (catno {category.number}). If you "
                        "can read this, your filter does not deny this "
                        "category.</p>",
                    )
            index_rows = "".join(
                f'<li><a href="/category/catno/{c.number}">'
                f"{c.number}: {c.name}</a></li>"
                for c in taxonomy.categories
            )
            return ok_response(
                "Netsweeper Deny Page Tests",
                f"<h1>Deny page tests</h1><ul>{index_rows}</ul>",
            )

        return {CATEGORY_TEST_HOST: denypagetests}


def make_netsweeper(*args, **kwargs) -> Netsweeper:
    """Construct a Netsweeper vendor instance (taxonomy is built in)."""
    return Netsweeper(*args, **kwargs)


def netsweeper_signature(observations: List[ProbeObservation]) -> List[Evidence]:
    """Built-in detection: Netsweeper branding or the deny-page path.

    A bare ``/webadmin/`` redirect is NOT sufficient — plenty of router
    consoles use that path (the keyword search will surface them as
    candidates); validation demands Netsweeper-specific markers.
    """
    evidence = body_contains(observations, "netsweeper")
    evidence.extend(title_contains(observations, "netsweeper"))
    evidence.extend(
        location_matches(
            observations,
            lambda loc: "/webadmin/deny" in loc.lower(),
            "deny-path",
        )
    )
    return evidence


SPEC = REGISTRY.register(
    ProductSpec(
        name=NETSWEEPER,
        slug="netsweeper",
        order=30,
        paper_default=True,
        shodan_keywords=(
            "netsweeper",
            "webadmin",
            "webadmin/deny",
            "8080/webadmin/",
        ),
        signature=netsweeper_signature,
        signature_note="Netsweeper branding or /webadmin/deny redirect",
        probe_endpoints=((ADMIN_PORT, "/"), (ADMIN_PORT, "/webadmin/")),
        block_patterns=(
            BlockPatternSpec(r"webadmin/deny", "any", False),
            BlockPatternSpec(r"netsweeper", "body", True),
            BlockPatternSpec(r"Web Page Blocked", "body", False),
        ),
        factory=make_netsweeper,
        taxonomy=NETSWEEPER_TAXONOMY,
        # The test-a-site form takes no category field (§4.4), and the
        # access queue means submissions cannot be pre-validated.
        category_requests={},
        pre_validate=False,
        brand_marks=("netsweeper",),
        scrub_tokens=("netsweeper",),
        residue_tokens=("netsweeper",),
        proxy_annotation=None,
        headquarters="Guelph, ON, Canada",
        description="Netsweeper Content Filtering",
        previously_observed=("qa", "ae", "ye"),
    )
)
