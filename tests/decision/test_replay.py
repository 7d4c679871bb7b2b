"""The acceptance replay pass: every stored certificate must check.

This is the tier-1 embodiment of the CI criterion: build a universe
store, run the close-open sweep, then replay every certificate — the
ones baked into cell shards and the ones the sweep cached — with the
standalone checkers.  Every non-OPEN node must carry a certificate id
that resolves to a payload.
"""

import pytest

from repro.core import Solvability
from repro.decision import DecisionBudget, check_certificate_payload
from repro.universe import UniverseStore


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    store = UniverseStore(tmp_path_factory.mktemp("universe") / "store")
    store.build(8, 6, jobs=0)
    store.close_open(DecisionBudget(max_rounds=1, max_assignments=50_000))
    return store


class TestStoredCertificates:
    def test_every_non_open_node_is_certified(self, store):
        graph = store.load()
        for node in graph.nodes():
            if node.solvability != Solvability.OPEN.value:
                assert node.certificate_id, node.key
                assert (
                    graph.certificate_payload(node.certificate_id) is not None
                ), node.key

    def test_every_graph_certificate_replays(self, store):
        graph = store.load()
        assert graph.certificate_payloads
        failures = {
            certificate_id: problems
            for certificate_id, payload in graph.certificate_payloads.items()
            if (problems := check_certificate_payload(payload))
        }
        assert failures == {}

    def test_every_cached_certificate_replays(self, store):
        failures = {
            key: problems
            for key, payload in store.decision_cache.iter_certificates()
            if (problems := check_certificate_payload(payload))
        }
        assert failures == {}

    def test_certificate_ids_match_content(self, store):
        from repro.decision import certificate_id

        graph = store.load()
        for stored_id, payload in graph.certificate_payloads.items():
            assert certificate_id(payload) == stored_id

    def test_open_count_not_worse_than_classifier(self, store):
        # The pipeline may only close OPEN verdicts, never invent them.
        from repro.core import classify_parameters

        graph = store.load()
        for node in graph.nodes():
            legacy = classify_parameters(*node.key)[0]
            if legacy is not Solvability.OPEN:
                assert node.solvability == legacy.value


def theorem9_payloads(payload):
    """Every Theorem 9 certificate in a payload, nested ones included."""
    if isinstance(payload, dict):
        if payload.get("kind") == "theorem" and payload.get("rule") == "theorem9":
            yield payload
        for value in payload.values():
            yield from theorem9_payloads(value)
    elif isinstance(payload, list):
        for value in payload:
            yield from theorem9_payloads(value)


class TestWitnessReplayCounters:
    """``decision.replay`` counts every Theorem 9 witness check by
    outcome, and ``universe check`` prints this run's counts."""

    def test_check_prints_the_counts_it_registered(self, store, capsys):
        import math
        import re

        from repro.__main__ import main
        from repro.core.cache_config import cache_stats
        from repro.decision.certificates import MAX_WITNESS_SUBSETS

        sizes = [
            math.comb(2 * payload["task"][0] - 1, payload["task"][0])
            for stored in store.load().certificate_payloads.values()
            for payload in theorem9_payloads(stored)
        ]
        expected = {
            "witness_replayed": sum(s <= MAX_WITNESS_SUBSETS for s in sizes),
            "witness_beyond_gate": sum(s > MAX_WITNESS_SUBSETS for s in sizes),
        }
        # The 8 x 6 rectangle has witnesses on both sides of the gate.
        assert min(expected.values()) > 0

        before = cache_stats()["decision.replay"]
        assert main(["universe", "check", "--dir", str(store.root)]) == 0
        after = cache_stats()["decision.replay"]
        assert {key: after[key] - before[key] for key in after} == expected

        summary, counts = capsys.readouterr().out.splitlines()[-2:]
        assert summary.endswith("all OK")
        printed = re.fullmatch(
            r"theorem9 witnesses: (\d+) replayed over every participating "
            r"set, (\d+) beyond the replay gate \(closed form only\)",
            counts,
        )
        assert printed is not None, counts
        assert tuple(map(int, printed.groups())) == (
            expected["witness_replayed"],
            expected["witness_beyond_gate"],
        )

    @pytest.mark.parametrize(
        "key,outcome",
        [
            ((3, 5, 0, 1), "witness_replayed"),  # C(5, 3) = 10 sets
            ((7, 13, 0, 1), "witness_replayed"),  # C(13, 7) = 1,716 sets
            ((8, 15, 0, 1), "witness_beyond_gate"),  # C(15, 8) = 6,435 sets
        ],
    )
    def test_each_check_counts_one_outcome(self, key, outcome):
        from repro.core.cache_config import cache_stats
        from repro.decision.procedures import structural_verdict

        payload = structural_verdict(*key).certificate.payload()
        assert payload["rule"] == "theorem9"
        before = cache_stats()["decision.replay"]
        assert check_certificate_payload(payload) == []
        after = cache_stats()["decision.replay"]
        assert {name: after[name] - before[name] for name in after} == {
            "witness_replayed": int(outcome == "witness_replayed"),
            "witness_beyond_gate": int(outcome == "witness_beyond_gate"),
        }
