"""Test-domain factory for the confirmation methodology.

§4.3-§4.4: the researchers register fresh domains "of two random
(non-profane) words registered with the .info top-level domain", host
controlled content on them (the Glype proxy script for anonymizer tests,
a single adult image for the Saudi pornography test), verify
accessibility, submit a subset, and retest. §4.6's ethics notes are
honored in the model: the adult image lives at one path, testers fetch a
*benign* image on the same host, and the image is removed after the
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.measure.glype import glype_browse_page, glype_index_page
from repro.net.http import Headers, HttpResponse, html_page, ok_response
from repro.net.url import Url
from repro.world.content import ContentClass
from repro.world.entities import WebSite
from repro.world.population import DomainSynthesizer
from repro.world.rng import derive_rng
from repro.world.world import World

ADULT_IMAGE_PATH = "/gallery/image1.jpg"
BENIGN_IMAGE_PATH = "/files/benign.jpg"


@dataclass
class TestDomain:
    """One researcher-controlled domain."""

    __test__ = False  # not a pytest collectable despite the name

    domain: str
    content_class: ContentClass
    site: WebSite

    @property
    def url(self) -> Url:
        return Url.for_host(self.domain)

    @property
    def test_url(self) -> Url:
        """What testers actually fetch (§4.6: benign path on adult hosts)."""
        if self.content_class in (
            ContentClass.ADULT_IMAGES,
            ContentClass.PORNOGRAPHY,
        ):
            return self.url.with_path(BENIGN_IMAGE_PATH)
        return self.url


def _image_response(label: str) -> HttpResponse:
    headers = Headers()
    headers.set("Server", "Apache/2.2.22 (Ubuntu)")
    headers.set("Content-Type", "image/jpeg")
    return HttpResponse(200, headers, f"JFIF::{label}")


class TestDomainFactory:
    """Registers researcher-controlled sites into the world."""

    __test__ = False  # not a pytest collectable despite the name

    def __init__(
        self,
        world: World,
        hosting_asn: int,
        *,
        tld: str = "info",
        rng_label: str = "test-domains",
    ) -> None:
        self._world = world
        self._hosting_asn = hosting_asn
        self._tld = tld
        self._synthesizer = DomainSynthesizer(derive_rng(world.seed, rng_label))

    def create(self, content_class: ContentClass) -> TestDomain:
        """Register one fresh two-word domain hosting the given content."""
        # Draw past names the world already holds; checking each draw
        # spares every new factory a walk over all world domains.
        domain = self._synthesizer.two_word(self._tld)
        while domain in self._world.websites:
            domain = self._synthesizer.two_word(self._tld)
        site = self._world.register_website(
            domain, content_class, self._hosting_asn
        )
        self._install_content(site, content_class)
        return TestDomain(domain, content_class, site)

    def create_batch(
        self, count: int, content_class: ContentClass
    ) -> List[TestDomain]:
        """Register ``count`` fresh domains of one content class."""
        return [self.create(content_class) for _ in range(count)]

    def _install_content(self, site: WebSite, content_class: ContentClass) -> None:
        domain = site.domain
        if content_class is ContentClass.PROXY_ANONYMIZER:
            site.add_page("/", glype_index_page(domain))
            site.add_page("/browse.php", glype_browse_page(domain))
        elif content_class in (ContentClass.ADULT_IMAGES, ContentClass.PORNOGRAPHY):
            site.add_page(
                "/",
                ok_response(
                    domain,
                    f'<img src="{ADULT_IMAGE_PATH}" alt="gallery" />',
                ),
            )
            site.add_page(ADULT_IMAGE_PATH, _image_response("adult-image"))
            site.add_page(BENIGN_IMAGE_PATH, _image_response("benign-image"))
        else:
            site.add_page(
                "/",
                ok_response(domain, f"<h1>{domain}</h1><p>Placeholder page.</p>"),
            )
            site.add_page(BENIGN_IMAGE_PATH, _image_response("benign-image"))

    def remove_sensitive_content(self, test_domain: TestDomain) -> None:
        """§4.6: take the adult image down promptly after the experiment."""
        site = test_domain.site
        if ADULT_IMAGE_PATH in site.pages:
            del site.pages[ADULT_IMAGE_PATH]
            site.add_page(
                "/",
                ok_response(site.domain, "<p>This page has been retired.</p>"),
            )
            # Ground truth changes too: the host no longer serves adult
            # content, so future analyst reviews see a benign site.
            site.content_class = ContentClass.BENIGN
