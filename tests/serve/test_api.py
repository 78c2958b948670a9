"""End-to-end tests of the serving API over a real two-epoch store:
routing, pagination, ETag/304 revalidation, drill-downs, diffs, and
byte-identity between served tables and the live renderers."""

from __future__ import annotations

import json
from urllib.parse import quote

import pytest

from repro.analysis.tables import render_table3, render_table4
from repro.serve import StoreApi
from repro.store import build_epoch


def _json(response):
    return json.loads(response.body.decode("utf-8"))


@pytest.fixture()
def api(two_epoch_store):
    store, _first, _second = two_epoch_store
    return StoreApi(store)


class DescribeRouting:
    def test_healthz(self, api):
        response = api.handle("/healthz")
        assert response.status == 200
        assert _json(response) == {"status": "ok", "epochs": 2}

    def test_metrics_uncached(self, api):
        response = api.handle("/metrics")
        assert response.status == 200
        assert response.etag is None
        assert "counters" in _json(response)

    def test_unknown_endpoint(self, api):
        assert api.handle("/nope").status == 404
        assert api.handle("/").status == 404
        assert api.handle("/epochs/x/y").status == 404

    def test_unknown_epoch_404(self, api):
        assert api.handle("/epochs/zzzz").status == 404

    def test_ambiguous_prefix_400(self, api):
        # The empty prefix matches both epochs.
        response = api.handle("/epochs/%20/records/confirmations")
        assert response.status in (400, 404)


class DescribeEpochListing:
    def test_lists_both_epochs(self, api, two_epoch_store):
        store, _first, _second = two_epoch_store
        document = _json(api.handle("/epochs"))
        assert document["total"] == 2
        assert [item["epoch"] for item in document["items"]] == store.epoch_ids()

    def test_pagination_envelope(self, api):
        document = _json(api.handle("/epochs?page=2&per_page=1"))
        assert document["page"] == 2
        assert document["per_page"] == 1
        assert document["total"] == 2
        assert len(document["items"]) == 1

    def test_pagination_validation(self, api):
        assert api.handle("/epochs?page=0").status == 400
        assert api.handle("/epochs?per_page=9999").status == 400
        assert api.handle("/epochs?page=junk").status == 400

    def test_product_filter_narrows_listing(self, api):
        from repro.products.registry import NETSWEEPER

        document = _json(api.handle(f"/epochs?product={NETSWEEPER}"))
        assert document["total"] == 1


class DescribeRecords:
    def test_rows_with_filter(self, api, two_epoch_store):
        store, _first, second = two_epoch_store
        epoch = store.epoch_ids()[1]
        document = _json(
            api.handle(f"/epochs/{epoch[:10]}/records/confirmations?isp=etisalat")
        )
        assert document["kind"] == "confirmations"
        assert document["items"]
        assert all(row["isp"] == "etisalat" for row in document["items"])

    def test_unknown_kind_404(self, api, two_epoch_store):
        store, _first, _second = two_epoch_store
        epoch = store.epoch_ids()[0]
        assert api.handle(f"/epochs/{epoch}/records/surprises").status == 404

    def test_pagination_on_records(self, api, two_epoch_store):
        store, _first, second = two_epoch_store
        epoch = store.epoch_ids()[1]
        total = len(second.identification.installations)
        document = _json(
            api.handle(f"/epochs/{epoch}/records/installations?per_page=10")
        )
        assert document["total"] == total
        assert len(document["items"]) == 10


class DescribeNumericParameters:
    """Query numbers are plain ASCII: ``int()`` alone reads ``٣`` as 3
    and ``1_0`` as 10, and ``float()`` reads ``٠.٥`` as 0.5."""

    def _error(self, response):
        assert response.status == 400
        return _json(response)["error"]

    def test_page_takes_ascii_digits_only(self, api):
        response = api.handle(f"/epochs?page={quote('٣')}&per_page=1")
        assert self._error(response).startswith("bad pagination parameter")

    def test_per_page_takes_ascii_digits_only(self, api):
        response = api.handle("/epochs?per_page=1_0")
        assert self._error(response).startswith("bad pagination parameter")

    def test_asn_takes_ascii_digits_only(self, api):
        response = api.handle(f"/epochs?asn={quote('٦٥٠٠١')}")
        assert self._error(response).startswith("bad asn parameter")

    def test_min_confidence_takes_ascii_only(self, api, two_epoch_store):
        store, _first, _second = two_epoch_store
        epoch = store.epoch_ids()[1]
        response = api.handle(
            f"/epochs/{epoch}/records/confirmations"
            f"?min_confidence={quote('٠.٥')}"
        )
        assert self._error(response).startswith("bad min_confidence parameter")


class DescribeTables:
    def test_table3_byte_identical_to_live_render(self, api, two_epoch_store):
        store, _first, second = two_epoch_store
        epoch = store.epoch_ids()[1]
        document = _json(api.handle(f"/epochs/{epoch}/tables/table3"))
        assert document["rendered"] == render_table3(second.confirmations)

    def test_table4_byte_identical_to_live_render(self, api, two_epoch_store):
        store, _first, second = two_epoch_store
        epoch = store.epoch_ids()[1]
        document = _json(api.handle(f"/epochs/{epoch}/tables/table4"))
        assert document["rendered"] == render_table4(second.characterizations)

    def test_unknown_table_404(self, api, two_epoch_store):
        store, _first, _second = two_epoch_store
        epoch = store.epoch_ids()[0]
        assert api.handle(f"/epochs/{epoch}/tables/table9").status == 404

    def test_absent_segment_404(self, api, two_epoch_store):
        store, _first, _second = two_epoch_store
        # The SmartFilter-only epoch carries no category probe.
        epoch = store.epoch_ids()[0]
        assert api.handle(f"/epochs/{epoch}/tables/probe").status == 404


class DescribeDrilldowns:
    def test_country_drilldown(self, api, two_epoch_store):
        store, _first, _second = two_epoch_store
        epoch = store.epoch_ids()[1]
        countries = store.manifest(epoch).keys["country"]
        document = _json(api.handle(f"/epochs/{epoch}/countries/{countries[0]}"))
        assert document["country"] == countries[0]
        assert document["installations"]
        assert all(
            row["country"] == countries[0] for row in document["installations"]
        )

    def test_product_drilldown(self, api, two_epoch_store):
        store, _first, _second = two_epoch_store
        from repro.products.registry import SMARTFILTER

        epoch = store.epoch_ids()[0]
        document = _json(
            api.handle(f"/epochs/{epoch}/products/{SMARTFILTER}")
        )
        assert document["product"] == SMARTFILTER
        assert all(
            row["product"] == SMARTFILTER for row in document["confirmations"]
        )

    def test_absent_key_404(self, api, two_epoch_store):
        store, _first, _second = two_epoch_store
        epoch = store.epoch_ids()[0]
        assert api.handle(f"/epochs/{epoch}/countries/zz").status == 404


class DescribeDiffEndpoint:
    def test_default_diff(self, api, two_epoch_store):
        store, _first, _second = two_epoch_store
        document = _json(api.handle("/diff"))
        assert document["old"] == store.epoch_ids()[0]
        assert document["new"] == store.epoch_ids()[1]
        kinds = {t["transition"] for t in document["transitions"]}
        assert kinds == {"appeared", "persisted"}

    def test_explicit_reverse_diff(self, api, two_epoch_store):
        store, _first, _second = two_epoch_store
        ids = store.epoch_ids()
        document = _json(api.handle(f"/diff?old={ids[1][:8]}&new={ids[0][:8]}"))
        kinds = {t["transition"] for t in document["transitions"]}
        assert "withdrawn" in kinds


class DescribeCaching:
    def test_etag_and_304(self, api):
        first = api.handle("/epochs")
        assert first.status == 200
        assert first.etag and first.etag.startswith('"')
        revalidated = api.handle("/epochs", if_none_match=first.etag)
        assert revalidated.status == 304
        assert revalidated.body == b""
        assert api.metrics.count("serve.not_modified") == 1

    def test_etag_list_matching(self, api):
        etag = api.handle("/epochs").etag
        response = api.handle(
            "/epochs", if_none_match=f'"other-etag", {etag}'
        )
        assert response.status == 304

    def test_cache_hit_on_repeat(self, api):
        api.handle("/epochs")
        misses = api.metrics.count("serve.cache.misses")
        api.handle("/epochs")
        assert api.metrics.count("serve.cache.hits") == 1
        assert api.metrics.count("serve.cache.misses") == misses

    def test_etags_differ_per_resource(self, api, two_epoch_store):
        store, _first, _second = two_epoch_store
        epoch = store.epoch_ids()[0]
        assert api.handle("/epochs").etag != api.handle(f"/epochs/{epoch}").etag

    def test_commit_invalidates_etag_and_cache(self, tmp_path):
        from repro.store import ResultsStore

        store = ResultsStore(tmp_path)
        store.commit(_tiny_epoch(1))
        api = StoreApi(store)
        before = api.handle("/epochs")
        store.commit(_tiny_epoch(2))
        after = api.handle("/epochs", if_none_match=before.etag)
        # Stale validator: full 200 with fresh content, not a 304.
        assert after.status == 200
        assert after.etag != before.etag
        assert _json(after)["total"] == 2


def _tiny_epoch(seed):
    return build_epoch(
        identity={"seed": seed},
        fingerprint=f"fp-{seed}",
        seed=seed,
        window=(0, 1),
        records={
            "confirmations": [
                {
                    "product": "vendor-x",
                    "isp": "testnet",
                    "country": "tl",
                    "asn": 65001,
                    "category": "Anonymizers",
                    "confirmed": True,
                }
            ]
        },
    )


class DescribeHttpTransport:
    """The same API over real sockets, headers and all."""

    def test_full_http_round_trip(self, two_epoch_store):
        import http.client

        from repro.serve import ResultsServer

        store, _first, second = two_epoch_store
        with ResultsServer(store) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            conn.request("GET", "/epochs")
            response = conn.getresponse()
            body = response.read()
            etag = response.getheader("ETag")
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "application/json"
            )
            assert json.loads(body)["total"] == 2

            conn.request("GET", "/epochs", headers={"If-None-Match": etag})
            revalidated = conn.getresponse()
            assert revalidated.read() == b""
            assert revalidated.status == 304
            assert revalidated.getheader("Content-Length") == "0"

            epoch = store.epoch_ids()[1]
            conn.request("GET", f"/epochs/{epoch[:10]}/tables/table3")
            table = conn.getresponse()
            document = json.loads(table.read())
            assert table.status == 200
            assert document["rendered"] == render_table3(second.confirmations)

            conn.request("GET", "/definitely/not/here")
            missing = conn.getresponse()
            missing.read()
            assert missing.status == 404
            conn.close()
