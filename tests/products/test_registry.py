"""Tests for the ProductSpec registry: validation, ordering, corpora.

Includes the guard tests pinning the four paper vendors' Table 2 data
(keywords + signature notes) and the derived corpora to their
pre-registry values, so refactors of the registry internals cannot
silently change the reproduction.
"""

from __future__ import annotations

import pytest

from repro.products.categories import BLUECOAT_TAXONOMY
from repro.products.registry import (
    BLUE_COAT,
    FORTIGUARD,
    NETSWEEPER,
    SMARTFILTER,
    WEBSENSE,
    BlockPatternSpec,
    ProductRegistry,
    ProductSpec,
    default_registry,
)
from repro.world.content import ContentClass

PAPER_FOUR = (BLUE_COAT, SMARTFILTER, NETSWEEPER, WEBSENSE)


def dummy_signature(observations):
    return []


def make_spec(name="Acme Filter", slug="acme", order=99, **overrides):
    base = dict(
        name=name,
        slug=slug,
        order=order,
        paper_default=False,
        shodan_keywords=("acme",),
        signature=dummy_signature,
        signature_note="Acme banner",
        block_patterns=(
            BlockPatternSpec(r"access denied by acme", "body", False),
        ),
    )
    base.update(overrides)
    return ProductSpec(**base)


class DescribeRegistration:
    def test_round_trip(self):
        registry = ProductRegistry()
        spec = registry.register(make_spec())
        assert registry.get("Acme Filter") is spec
        assert registry.find("Acme Filter") is spec
        assert registry.find("Nobody") is None
        assert "Acme Filter" in registry
        assert len(registry) == 1
        assert registry.names() == ("Acme Filter",)
        assert list(registry) == [spec]

    def test_duplicate_rejected(self):
        registry = ProductRegistry()
        registry.register(make_spec())
        with pytest.raises(ValueError, match="already registered"):
            registry.register(make_spec())

    def test_unknown_get_lists_registered_names(self):
        registry = ProductRegistry()
        registry.register(make_spec())
        with pytest.raises(KeyError, match="Acme Filter"):
            registry.get("Nobody")

    def test_keywords_required(self):
        with pytest.raises(ValueError, match="Shodan keyword"):
            ProductRegistry().register(make_spec(shodan_keywords=()))

    def test_signature_must_be_callable(self):
        with pytest.raises(ValueError, match="callable"):
            ProductRegistry().register(make_spec(signature="not-a-function"))

    def test_structural_pattern_required(self):
        branded_only = (BlockPatternSpec(r"acme", "body", True),)
        with pytest.raises(ValueError, match="structural"):
            ProductRegistry().register(make_spec(block_patterns=branded_only))

    def test_slug_collision_rejected(self):
        registry = ProductRegistry()
        registry.register(make_spec())
        with pytest.raises(ValueError, match="slug"):
            registry.register(make_spec(name="Other Filter", slug="acme"))

    def test_bad_slug_rejected(self):
        with pytest.raises(ValueError, match="slug"):
            make_spec(slug="Not A Slug")

    def test_bad_pattern_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            BlockPatternSpec(r"x", "location")

    def test_bad_pattern_regex_rejected(self):
        with pytest.raises(Exception):
            BlockPatternSpec(r"(unclosed", "body")

    def test_category_requests_validated_against_taxonomy(self):
        bad = make_spec(
            taxonomy=BLUECOAT_TAXONOMY,
            category_requests={ContentClass.GAMBLING: "No Such Category"},
        )
        with pytest.raises(ValueError, match="No Such Category"):
            ProductRegistry().register(bad)

    def test_none_category_request_means_no_form_field(self):
        spec = make_spec(
            taxonomy=BLUECOAT_TAXONOMY,
            category_requests={ContentClass.PROXY_ANONYMIZER: None},
        )
        ProductRegistry().register(spec)  # must not raise

    def test_registration_invalidates_derived_corpora(self):
        registry = ProductRegistry()
        registry.register(make_spec())
        before = registry.names()
        assert "Acme Filter" in registry.shodan_keywords(before)
        registry.register(make_spec(name="Other Filter", slug="other", order=1))
        assert registry.names() == ("Other Filter", "Acme Filter")
        assert set(registry.shodan_keywords()) == set()  # no paper defaults


class DescribeOrdering:
    def test_iteration_order_is_import_order_independent(self):
        forward = ProductRegistry()
        backward = ProductRegistry()
        one = make_spec(name="Filter One", slug="one", order=20)
        two = make_spec(name="Filter Two", slug="two", order=10)
        forward.register(one)
        forward.register(two)
        backward.register(two)
        backward.register(one)
        assert forward.names() == backward.names() == (
            "Filter Two", "Filter One",
        )

    def test_name_breaks_order_ties(self):
        registry = ProductRegistry()
        registry.register(make_spec(name="B Filter", slug="bf", order=5))
        registry.register(make_spec(name="A Filter", slug="af", order=5))
        assert registry.names() == ("A Filter", "B Filter")


class DescribeDefaultRegistry:
    def test_contains_five_products_four_defaults(self):
        registry = default_registry()
        assert registry.names() == PAPER_FOUR + (FORTIGUARD,)
        assert registry.default_names() == PAPER_FOUR
        assert not registry.get(FORTIGUARD).paper_default

    def test_resolve_defaults_and_selection(self):
        registry = default_registry()
        assert registry.resolve(None) == registry.defaults()
        selection = registry.resolve([FORTIGUARD, BLUE_COAT])
        # Registry order, not caller order.
        assert tuple(s.name for s in selection) == (BLUE_COAT, FORTIGUARD)
        with pytest.raises(KeyError, match="Acme"):
            registry.resolve(["Acme Filter"])

    @pytest.mark.parametrize(
        "name", PAPER_FOUR + (FORTIGUARD,), ids=lambda n: n.lower()
    )
    def test_spec_completeness_invariants(self, name):
        """Every registered spec carries a full pipeline parameterization."""
        spec = default_registry().get(name)
        assert spec.shodan_keywords
        assert callable(spec.signature)
        assert spec.signature_note
        assert spec.structural_patterns()
        assert spec.factory is not None
        assert spec.taxonomy is not None
        assert spec.brand_marks and spec.scrub_tokens and spec.residue_tokens
        assert spec.headquarters and spec.description
        assert spec.previously_observed


class DescribeDerivedCorpora:
    def test_default_probe_plan(self):
        assert default_registry().probe_plan() == (
            (80, "/"),
            (443, "/"),
            (8080, "/"),
            (8080, "/webadmin/"),
            (9090, "/"),
            (15871, "/"),
            (15871, "/cgi-bin/blockpage.cgi"),
            (3128, "/"),
        )

    def test_default_scan_ports(self):
        assert default_registry().scan_ports() == (
            80, 443, 8080, 8443, 3128, 9090, 15871,
        )

    def test_selection_narrows_the_corpora(self):
        registry = default_registry()
        plan = registry.probe_plan((FORTIGUARD,))
        assert plan == ((80, "/"), (443, "/"), (10443, "/"), (3128, "/"))
        assert registry.scan_ports((FORTIGUARD,)) == (
            80, 443, 8080, 8443, 3128, 10443,
        )
        assert tuple(registry.shodan_keywords((FORTIGUARD,))) == (FORTIGUARD,)

    def test_block_page_corpus_covers_selection_only(self):
        registry = default_registry()
        default_vendors = {p.vendor for p in registry.block_page_patterns()}
        assert default_vendors == set(PAPER_FOUR)
        all_vendors = {
            p.vendor for p in registry.block_page_patterns(registry.names())
        }
        assert all_vendors == set(PAPER_FOUR) | {FORTIGUARD}

    def test_proxy_annotations_cover_the_proxy_vendors(self):
        annotations = default_registry().proxy_annotations()
        assert set(annotations) == {BLUE_COAT, SMARTFILTER, WEBSENSE}
        for header, value in annotations.values():
            assert header and value


class DescribeTable2Guard:
    """Pin the paper vendors' Table 2 cells to their published values."""

    EXPECTED = {
        BLUE_COAT: (
            ("proxysg", "cfru="),
            "ProxySG headers or Location contains www.cfauth.com",
        ),
        SMARTFILTER: (
            ('"mcafee web gateway"', '"url blocked"'),
            "Via-Proxy header or title contains 'McAfee Web Gateway'",
        ),
        NETSWEEPER: (
            ("netsweeper", "webadmin", "webadmin/deny", "8080/webadmin/"),
            "Netsweeper branding or /webadmin/deny redirect",
        ),
        WEBSENSE: (
            ("blockpage.cgi", '"gateway websense"'),
            "redirect to port 15871 with ws-session, or Websense server banner",
        ),
    }

    def test_table2_spec_data(self):
        registry = default_registry()
        for name, (keywords, note) in self.EXPECTED.items():
            spec = registry.get(name)
            assert spec.shodan_keywords == keywords, name
            assert spec.signature_note == note, name

    def test_render_table2_rows_in_paper_order(self):
        from repro.analysis.tables import render_table2

        rendered = render_table2()
        rows = rendered.splitlines()[2:]
        assert [r.split("|")[0].strip() for r in rows] == list(PAPER_FOUR)
        for name, (keywords, note) in self.EXPECTED.items():
            row = next(r for r in rows if r.startswith(name))
            assert ", ".join(keywords) in row
            assert note in row

    def test_paper_table1_derived_from_specs(self):
        from repro.analysis.paper_data import PAPER_TABLE1

        assert tuple(r.company for r in PAPER_TABLE1) == PAPER_FOUR
        registry = default_registry()
        for row in PAPER_TABLE1:
            spec = registry.get(row.company)
            assert row.headquarters == spec.headquarters
            assert row.description == spec.description
            assert row.previously_observed == spec.previously_observed
