"""Unit tests for the fault-injection seam (:mod:`repro.testing.faults`).

The registry is the foundation the whole chaos suite stands on, so its
semantics are pinned precisely here: zero-cost disarm, fire windows
(``after``/``times``), context-manager cleanup, and the ``REPRO_FAULTS``
spec grammar forked workers parse — including the requirement that a
typo'd spec fails loudly instead of silently measuring the healthy path.
"""

import pytest

from repro.testing import FaultError, FaultRegistry
from repro.testing.faults import install_from_env, parse_spec


class TestRegistrySemantics:
    def test_disarmed_registry_is_inert(self):
        registry = FaultRegistry()
        assert registry.active is False
        assert registry.fire("anything") is None
        assert registry.counters() == {}

    def test_install_fire_and_result_passthrough(self):
        registry = FaultRegistry()
        registry.install("point", lambda context: context["value"] * 2)
        assert registry.active is True
        assert registry.fire("point", value=21) == 42
        assert registry.counters() == {"point": {"seen": 1, "fired": 1}}

    def test_unarmed_point_is_silent_while_another_is_armed(self):
        registry = FaultRegistry()
        registry.install("armed", lambda context: "boom")
        assert registry.fire("other") is None

    def test_after_skips_leading_passes(self):
        registry = FaultRegistry()
        registry.install("point", lambda context: "boom", after=2)
        assert registry.fire("point") is None
        assert registry.fire("point") is None
        assert registry.fire("point") == "boom"
        assert registry.counters()["point"] == {"seen": 3, "fired": 1}

    def test_times_exhausts_the_arm(self):
        registry = FaultRegistry()
        registry.install("point", lambda context: "boom", times=2)
        assert [registry.fire("point") for _ in range(4)] == [
            "boom", "boom", None, None,
        ]
        assert registry.counters()["point"] == {"seen": 4, "fired": 2}

    def test_after_and_times_compose(self):
        registry = FaultRegistry()
        registry.install("point", lambda context: "boom", after=1, times=1)
        assert [registry.fire("point") for _ in range(3)] == [
            None, "boom", None,
        ]

    def test_raising_action_propagates_to_the_call_site(self):
        registry = FaultRegistry()

        def explode(context):
            raise FaultError("injected")

        registry.install("point", explode)
        with pytest.raises(FaultError, match="injected"):
            registry.fire("point")

    def test_clear_one_point_leaves_the_rest_armed(self):
        registry = FaultRegistry()
        registry.install("a", lambda context: 1)
        registry.install("b", lambda context: 2)
        registry.clear("a")
        assert registry.active is True
        assert registry.fire("a") is None
        assert registry.fire("b") == 2
        registry.clear()
        assert registry.active is False

    def test_reinstall_replaces_the_previous_arm(self):
        registry = FaultRegistry()
        registry.install("point", lambda context: "old", times=1)
        registry.install("point", lambda context: "new")
        assert registry.fire("point") == "new"
        assert registry.fire("point") == "new"  # old times=1 is gone

    def test_injected_context_manager_disarms_on_exit(self):
        registry = FaultRegistry()
        with registry.injected("point", lambda context: "boom"):
            assert registry.active is True
            assert registry.fire("point") == "boom"
        assert registry.active is False
        assert registry.fire("point") is None

    def test_injected_disarms_even_when_the_block_raises(self):
        registry = FaultRegistry()
        with pytest.raises(RuntimeError):
            with registry.injected("point", lambda context: "boom"):
                raise RuntimeError("test body failed")
        assert registry.active is False


class TestSpecGrammar:
    def test_single_clause(self):
        arms = parse_spec("serve.worker.kill=exit:after=25")
        assert len(arms) == 1
        point, action, after, times = arms[0]
        assert point == "serve.worker.kill"
        assert callable(action)
        assert (after, times) == (25, None)

    def test_multiple_clauses_and_whitespace(self):
        arms = parse_spec(
            " store.read=raise:times=3 ; "
            "serve.request.hold=delay:seconds=0.01 ;"
        )
        assert [arm[0] for arm in arms] == [
            "store.read", "serve.request.hold",
        ]
        assert arms[0][3] == 3

    def test_empty_spec_means_no_arms(self):
        assert parse_spec("") == []
        assert parse_spec(" ; ; ") == []

    def test_truncate_action_trims_the_payload_context(self):
        (point, action, _after, _times), = parse_spec(
            "serve.response.write=truncate:keep=4"
        )
        assert action({"payload": b"HTTP/1.1 200 OK"}) == b"HTTP"
        assert action({}) is None  # no payload to truncate

    def test_raise_action_raises_fault_error(self):
        (_, action, _, _), = parse_spec(
            "store.read=raise:message=torn read"
        )
        with pytest.raises(FaultError, match="torn read"):
            action({})

    def test_delay_action_sleeps(self):
        import time

        (_, action, _, _), = parse_spec(
            "serve.request.hold=delay:seconds=0.05"
        )
        started = time.monotonic()
        action({})
        assert time.monotonic() - started >= 0.04

    @pytest.mark.parametrize(
        "spec",
        [
            "no-equals-sign",
            "=raise",
            "point=nosuchaction",
            "point=raise:orphan-param",
        ],
    )
    def test_malformed_specs_fail_loudly(self, spec):
        with pytest.raises(ValueError):
            parse_spec(spec)


class TestEnvInstallation:
    def test_install_from_text(self):
        registry = FaultRegistry()
        installed = install_from_env(
            registry, text="a=raise;b=delay:seconds=0"
        )
        assert installed == 2
        assert registry.active is True
        with pytest.raises(FaultError):
            registry.fire("a")

    def test_install_from_environment_variable(self, monkeypatch):
        from repro.testing.faults import ENV_VAR

        monkeypatch.setenv(ENV_VAR, "point=raise:after=1")
        registry = FaultRegistry()
        assert install_from_env(registry) == 1
        assert registry.fire("point") is None  # after=1 skips the first
        with pytest.raises(FaultError):
            registry.fire("point")

    def test_empty_environment_installs_nothing(self, monkeypatch):
        from repro.testing.faults import ENV_VAR

        monkeypatch.delenv(ENV_VAR, raising=False)
        registry = FaultRegistry()
        assert install_from_env(registry) == 0
        assert registry.active is False

    def test_typoed_env_spec_raises_not_ignores(self):
        registry = FaultRegistry()
        with pytest.raises(ValueError, match="unknown fault action"):
            install_from_env(registry, text="serve.worker.kill=exti")
