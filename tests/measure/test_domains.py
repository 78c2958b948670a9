"""Unit tests for the test-domain factory and ethics protocol."""

from __future__ import annotations

import pytest

from repro.measure.domains import (
    ADULT_IMAGE_PATH,
    BENIGN_IMAGE_PATH,
    TestDomainFactory,
)
from repro.measure.glype import GLYPE_MARKER
from repro.net.url import Url
from repro.world.content import ContentClass


@pytest.fixture()
def factory(mini_world):
    return TestDomainFactory(mini_world, 65002)


class DescribeCreation:
    def test_two_word_info_domains(self, factory):
        domain = factory.create(ContentClass.PROXY_ANONYMIZER)
        assert domain.domain.endswith(".info")
        name = domain.domain.rsplit(".", 1)[0]
        assert name.isalpha()

    def test_batch_unique(self, factory):
        batch = factory.create_batch(12, ContentClass.PROXY_ANONYMIZER)
        assert len({d.domain for d in batch}) == 12

    def test_proxy_site_serves_glype(self, factory, mini_world):
        domain = factory.create(ContentClass.PROXY_ANONYMIZER)
        result = mini_world.lab_vantage().fetch(domain.url)
        assert result.ok
        assert GLYPE_MARKER in result.response.body

    def test_adult_site_layout(self, factory, mini_world):
        domain = factory.create(ContentClass.ADULT_IMAGES)
        lab = mini_world.lab_vantage()
        index = lab.fetch(domain.url)
        assert ADULT_IMAGE_PATH in index.response.body
        image = lab.fetch(domain.url.with_path(ADULT_IMAGE_PATH))
        assert image.response.headers.get("Content-Type") == "image/jpeg"
        benign = lab.fetch(domain.url.with_path(BENIGN_IMAGE_PATH))
        assert benign.ok

    def test_testers_fetch_benign_path_on_adult_hosts(self, factory):
        """§4.6: limit testers' exposure to the offensive content."""
        adult = factory.create(ContentClass.ADULT_IMAGES)
        assert adult.test_url.path == BENIGN_IMAGE_PATH
        proxy = factory.create(ContentClass.PROXY_ANONYMIZER)
        assert proxy.test_url.path == "/"

    def test_content_class_ground_truth(self, factory, mini_world):
        domain = factory.create(ContentClass.ADULT_IMAGES)
        site = mini_world.websites[domain.domain]
        assert site.content_class is ContentClass.ADULT_IMAGES

    def test_avoids_existing_domains(self, mini_world):
        first = TestDomainFactory(mini_world, 65002, rng_label="a")
        created = first.create(ContentClass.BENIGN)
        second = TestDomainFactory(mini_world, 65002, rng_label="a")
        other = second.create(ContentClass.BENIGN)
        assert other.domain != created.domain


class DescribeCleanup:
    def test_remove_sensitive_content(self, factory, mini_world):
        domain = factory.create(ContentClass.ADULT_IMAGES)
        factory.remove_sensitive_content(domain)
        lab = mini_world.lab_vantage()
        image = lab.fetch(domain.url.with_path(ADULT_IMAGE_PATH))
        assert image.response.status == 404
        # The analyst oracle now sees a benign site.
        site = mini_world.websites[domain.domain]
        assert site.content_class is ContentClass.BENIGN

    def test_remove_on_non_adult_is_noop(self, factory, mini_world):
        domain = factory.create(ContentClass.PROXY_ANONYMIZER)
        factory.remove_sensitive_content(domain)
        site = mini_world.websites[domain.domain]
        assert site.content_class is ContentClass.PROXY_ANONYMIZER
