"""HTTP contract tests: every endpoint's JSON schema, pinned.

:class:`UniverseService` is a pure function of the request tuple, so
the whole contract surface — response shapes, ETag revalidation, batch
equivalence, error mapping — is exercised in-process; one test at the
bottom drives the same service over a real socket to pin the HTTP
framing itself (status line, headers, 304 with no body, keep-alive).
"""

import json

import pytest

from repro.serve import BackgroundServer, UniverseService
from repro.serve.service import Response
from repro.universe import UniverseStore


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve") / "store"
    store = UniverseStore(root)
    store.build(8, 4)
    return root


@pytest.fixture
def service(root):
    return UniverseService.open(root)


def get(service, path, params=None, **kwargs):
    return service.handle("GET", path, params or {}, **kwargs)


class TestDecideContract:
    def test_in_rectangle_schema(self, service):
        response = get(
            service, "/decide", {"n": "6", "m": "3", "low": "1", "high": "4"}
        )
        assert response.status == 200
        assert set(response.payload) == {
            "task",
            "canonical",
            "solvability",
            "reason",
            "certificate_id",
            "source",
        }
        assert response.payload["task"] == [6, 3, 1, 4]
        assert response.payload["canonical"] == [6, 3, 1, 4]
        assert response.payload["source"] == "universe"
        assert response.payload["solvability"] == "open"
        assert response.etag is not None and response.etag.startswith('"')

    def test_out_of_rectangle_falls_back_to_pipeline(self, service):
        response = get(
            service,
            "/decide",
            {"n": "25", "m": "5", "low": "1", "high": "25"},
        )
        assert response.status == 200
        assert set(response.payload) == {
            "task",
            "canonical",
            "solvability",
            "reason",
            "certificate_id",
            "source",
            "tier",
            "procedure",
        }
        assert response.payload["source"] == "pipeline"
        assert response.payload["solvability"] == "not wait-free solvable"

    def test_body_is_canonical_json(self, service):
        response = get(
            service, "/decide", {"n": "6", "m": "3", "low": "1", "high": "4"}
        )
        body = response.body_bytes()
        assert body.endswith(b"\n")
        assert json.loads(body) == response.payload
        # sort_keys: re-serializing the parsed body is byte-identical.
        assert (
            json.dumps(json.loads(body), sort_keys=True) + "\n"
        ).encode() == body


class TestETagRevalidation:
    def test_matching_etag_returns_304_with_no_body(self, service):
        params = {"n": "6", "m": "3", "low": "1", "high": "4"}
        first = get(service, "/decide", params)
        revalidated = get(
            service, "/decide", params, if_none_match=first.etag
        )
        assert revalidated.status == 304
        assert revalidated.body_bytes() == b""
        assert revalidated.etag == first.etag

    def test_etag_is_stable_across_requests(self, service):
        params = {"n": "6", "m": "3", "low": "1", "high": "4"}
        assert get(service, "/decide", params).etag == get(
            service, "/decide", params
        ).etag

    def test_etag_list_header_matches(self, service):
        params = {"n": "6", "m": "3", "low": "1", "high": "4"}
        etag = get(service, "/decide", params).etag
        response = get(
            service, "/decide", params, if_none_match=f'"miss", {etag}'
        )
        assert response.status == 304

    def test_non_matching_etag_returns_full_body(self, service):
        params = {"n": "6", "m": "3", "low": "1", "high": "4"}
        response = get(service, "/decide", params, if_none_match='"nope"')
        assert response.status == 200 and response.payload is not None

    def test_every_200_endpoint_carries_an_etag(self, service):
        for path, params in [
            ("/decide", {"n": "6", "m": "3", "low": "1", "high": "4"}),
            ("/cones", {"n": "6", "m": "3", "low": "1", "high": "4"}),
            (
                "/reduction-path",
                {"source": "6,3,0,4", "target": "6,3,1,4"},
            ),
            ("/frontier", {}),
        ]:
            response = get(service, path, params)
            assert response.status == 200
            assert response.etag, f"{path} lost its ETag"
            assert (
                get(service, path, params, if_none_match=response.etag).status
                == 304
            )

    def test_store_mutation_changes_the_etag(self, tmp_path):
        root = tmp_path / "store"
        store = UniverseStore(root)
        store.build(6, 3)
        service = UniverseService.open(root)
        params = {"n": "6", "m": "3", "low": "1", "high": "4"}
        before = get(service, "/decide", params)
        UniverseStore(root).apply_closures(
            {
                (6, 3, 1, 4): {
                    "solvability": "not wait-free solvable",
                    "reason": "injected closure",
                    "certificate_id": "",
                    "certificate": None,
                }
            },
            {},
        )
        UniverseStore.open_readonly(root)  # revalidate
        after = get(service, "/decide", params, if_none_match=before.etag)
        assert after.status == 200  # the old ETag no longer validates
        assert after.etag != before.etag
        assert after.payload["solvability"] == "not wait-free solvable"


class TestQueryContracts:
    def test_cones_schema(self, service):
        response = get(
            service, "/cones", {"n": "6", "m": "3", "low": "1", "high": "4"}
        )
        assert response.status == 200
        assert set(response.payload) == {"key", "harder", "weaker"}
        assert response.payload["key"] == [6, 3, 1, 4]
        assert all(len(k) == 4 for k in response.payload["harder"])
        assert all(len(k) == 4 for k in response.payload["weaker"])

    def test_cones_direction_filter(self, service):
        params = {"n": "6", "m": "3", "low": "1", "high": "4"}
        harder = get(service, "/cones", dict(params, direction="harder"))
        assert set(harder.payload) == {"key", "harder"}
        weaker = get(service, "/cones", dict(params, direction="weaker"))
        assert set(weaker.payload) == {"key", "weaker"}
        both = get(service, "/cones", params)
        assert harder.payload["harder"] == both.payload["harder"]
        assert weaker.payload["weaker"] == both.payload["weaker"]

    def test_cones_match_the_library(self, service, root):
        from repro.universe import harder_cone, resolve_key, weaker_cone

        graph = UniverseStore.open_readonly(root).load_cached()
        key = resolve_key(graph, 6, 3, 1, 4)
        response = get(
            service, "/cones", {"n": "6", "m": "3", "low": "1", "high": "4"}
        )
        assert response.payload["harder"] == [
            list(k) for k in harder_cone(graph, key)
        ]
        assert response.payload["weaker"] == [
            list(k) for k in weaker_cone(graph, key)
        ]

    def test_reduction_path_schema(self, service):
        response = get(
            service,
            "/reduction-path",
            {"source": "6,3,0,4", "target": "6,3,1,4"},
        )
        assert response.status == 200
        assert set(response.payload) == {"source", "target", "path"}
        path = response.payload["path"]
        assert isinstance(path, list) and path
        for edge in path:
            assert set(edge) == {"source", "target", "kind"}
        # The path chains source -> ... -> target.
        assert path[0]["source"] == response.payload["source"]
        assert path[-1]["target"] == response.payload["target"]

    def test_reduction_path_absent_is_null(self, service):
        response = get(
            service,
            "/reduction-path",
            {"source": "6,3,1,4", "target": "6,3,0,4"},
        )
        assert response.status == 200
        assert response.payload["path"] is None

    def test_frontier_schema(self, service):
        response = get(service, "/frontier")
        assert response.status == 200
        assert set(response.payload) == {
            "counts",
            "solvable_nodes",
            "boundary",
        }
        assert response.payload["counts"]["open"] > 0
        for edge in response.payload["boundary"]:
            assert set(edge) == {"source", "target", "kind"}

    def test_stats_schema(self, service):
        get(service, "/decide", {"n": "6", "m": "3", "low": "1", "high": "4"})
        response = get(service, "/stats")
        assert response.status == 200
        assert set(response.payload) == {
            "uptime_seconds",
            "endpoints",
            "transport",
            "store",
            "caches",
        }
        assert set(response.payload["transport"]) == {
            "shed",
            "timeouts",
            "idle_closed",
            "malformed",
        }
        decide_row = response.payload["endpoints"]["decide"]
        assert set(decide_row) == {
            "requests",
            "errors",
            "not_modified",
            "seconds_total",
            "seconds_max",
            "mean_ms",
        }
        assert decide_row["requests"] >= 1
        assert set(response.payload["store"]) == {
            "root",
            "version",
            "cells",
            "max_n",
            "max_m",
            "nodes",
            "containment_edges",
            "overrides",
            "last_build",
            "fingerprint",
        }
        assert "universe.hot_cells" in response.payload["caches"]

    def test_healthz(self, service):
        assert get(service, "/healthz").payload == {"status": "ok"}

    def test_stats_sweep_block_appears_with_campaign(self, tmp_path):
        from repro.sweep import SweepConfig, SweepRunner

        store = UniverseStore(tmp_path / "store")
        store.build(4, 3)
        service = UniverseService(store)
        # No campaign queue yet: the block is absent, not null.
        assert "sweep" not in get(service, "/stats").payload
        config = SweepConfig(
            workers=0,
            max_rounds=1,
            max_conflicts=200_000,
            max_assignments=200_000,
        )
        SweepRunner(store, config).campaign()
        sweep = get(service, "/stats").payload["sweep"]
        assert sweep["jobs"]["done"] == 2
        assert sweep["signature"]["sweep"] is True
        # The serve layer takes the hot path: no graph load, no counts.
        assert "open_remaining" not in sweep


class TestBatch:
    def post_batch(self, service, requests):
        return service.handle(
            "POST", "/batch", {}, json.dumps({"requests": requests}).encode()
        )

    def test_batch_equals_n_point_calls(self, service):
        requests = [
            {"endpoint": "decide", "params": {"n": 6, "m": 3, "low": 1, "high": 4}},
            {"endpoint": "cones", "params": {"n": 6, "m": 3, "low": 1, "high": 4}},
            {
                "endpoint": "reduction-path",
                "params": {"source": "6,3,0,4", "target": "6,3,1,4"},
            },
            {"endpoint": "frontier", "params": {}},
        ]
        batched = self.post_batch(service, requests)
        assert batched.status == 200
        rows = batched.payload["responses"]
        assert len(rows) == len(requests)
        for row, request in zip(rows, requests):
            point = get(
                service,
                f"/{request['endpoint']}",
                {key: str(value) for key, value in request["params"].items()},
            )
            assert row["status"] == point.status == 200
            assert row["body"] == point.payload

    def test_batch_rows_fail_independently(self, service):
        batched = self.post_batch(
            service,
            [
                {"endpoint": "decide", "params": {"n": 6, "m": 3, "low": 1, "high": 4}},
                {"endpoint": "decide", "params": {"n": "x", "m": 3, "low": 1, "high": 4}},
                {"endpoint": "stats", "params": {}},
                "not an object",
            ],
        )
        statuses = [row["status"] for row in batched.payload["responses"]]
        assert statuses == [200, 400, 400, 400]

    def test_batch_requires_post(self, service):
        assert get(service, "/batch").status == 405

    def test_batch_malformed_body(self, service):
        assert service.handle("POST", "/batch", {}, b"{ nope").status == 400
        assert service.handle("POST", "/batch", {}, b"[1, 2]").status == 400
        assert service.handle("POST", "/batch", {}, b"").status == 400


class TestErrorMapping:
    def test_missing_parameter(self, service):
        response = get(service, "/decide", {"n": "6", "m": "3"})
        assert response.status == 400
        assert "low" in response.payload["error"]

    def test_non_integer_parameter(self, service):
        assert (
            get(
                service,
                "/decide",
                {"n": "x", "m": "3", "low": "1", "high": "4"},
            ).status
            == 400
        )

    def test_infeasible_task(self, service):
        response = get(
            service, "/decide", {"n": "6", "m": "3", "low": "0", "high": "1"}
        )
        assert response.status == 400
        assert "infeasible" in response.payload["error"]

    def test_cones_outside_rectangle_is_404(self, service):
        response = get(
            service,
            "/cones",
            {"n": "19", "m": "3", "low": "1", "high": "19"},
        )
        assert response.status == 404

    def test_cones_bad_direction(self, service):
        response = get(
            service,
            "/cones",
            {"n": "6", "m": "3", "low": "1", "high": "4", "direction": "up"},
        )
        assert response.status == 400

    def test_reduction_path_bad_task_syntax(self, service):
        response = get(
            service,
            "/reduction-path",
            {"source": "6,3,0", "target": "6,3,1,4"},
        )
        assert response.status == 400

    def test_unknown_endpoint_is_404(self, service):
        assert get(service, "/nope").status == 404

    def test_wrong_method_is_405(self, service):
        assert service.handle("POST", "/decide", {}).status == 405

    def test_errors_are_counted(self, root):
        service = UniverseService.open(root)
        before = service.metrics.snapshot().get("decide", {}).get("errors", 0)
        get(service, "/decide", {"n": "x", "m": "3", "low": "1", "high": "4"})
        assert service.metrics.snapshot()["decide"]["errors"] == before + 1


class TestRealHTTP:
    def test_framing_over_a_socket(self, root):
        with BackgroundServer(root) as server:
            status, headers, payload = server.get(
                "/decide?n=6&m=3&low=1&high=4"
            )
            assert status == 200
            assert headers["Content-Type"].startswith("application/json")
            assert int(headers["Content-Length"]) > 0
            assert payload["solvability"] == "open"
            etag = headers["ETag"]

            status, headers, payload = server.get(
                "/decide?n=6&m=3&low=1&high=4",
                headers={"If-None-Match": etag},
            )
            assert status == 304
            assert payload is None
            assert headers["Content-Length"] == "0"

            status, _, payload = server.post(
                "/batch",
                {
                    "requests": [
                        {
                            "endpoint": "decide",
                            "params": {"n": 6, "m": 3, "low": 1, "high": 4},
                        }
                    ]
                },
            )
            assert status == 200
            assert payload["responses"][0]["status"] == 200

            status, _, payload = server.get("/stats")
            assert status == 200
            assert payload["endpoints"]["decide"]["not_modified"] >= 1

    def test_malformed_request_line_gets_400(self, root):
        import socket

        with BackgroundServer(root) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as raw:
                raw.sendall(b"NOT A VALID REQUEST LINE\r\n\r\n")
                blob = raw.recv(4096)
            assert blob.startswith(b"HTTP/1.1 400")

    def test_keep_alive_reuses_the_connection(self, root):
        import http.client

        with BackgroundServer(root) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            try:
                for _ in range(5):
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    assert response.status == 200
                    response.read()
            finally:
                connection.close()
