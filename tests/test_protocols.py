"""Protocol rule sets: variant shapes, setup knowledge, isolation."""

import pytest

from helpers import honest_prefix, saturate_oracle
from revlab.knowledge import can_derive
from revlab.protocols import (
    RA_NAME,
    build_protocol,
    initial_state,
    vehicle_name,
)
from revlab.rewriting import enabled_instances
from revlab.terms import App, Fresh, render


class TestBuildProtocol:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_protocol("vtoken")

    def test_no_change_rule_unless_enabled(self):
        spec = build_protocol("plain", change_enabled=False)
        assert all(r.id != "CHANGE_PSEUDONYM" for r in spec.rules)
        spec2 = build_protocol("plain", change_enabled=True)
        assert any(r.id == "CHANGE_PSEUDONYM" for r in spec2.rules)

    def test_reveal_rules_off_by_default(self):
        spec = build_protocol("otoken")
        assert all(not r.id.startswith("REVEAL") for r in spec.rules)
        spec2 = build_protocol("otoken", reveals_enabled=True)
        assert {"REVEAL_LTK", "REVEAL_SK_PSI"} <= {r.id for r in spec2.rules}

    def test_rtoken_confirmation_accept_has_no_verify_guard(self):
        spec = build_protocol("rtoken")
        assert spec.rule("REV_AUTH_OSR_CONF_RECV").guards == ()
        # the other two variants do verify
        for p in ("plain", "otoken"):
            assert build_protocol(p).rule("REV_AUTH_OSR_CONF_RECV").guards

    def test_otoken_pseudonym_has_three_fields(self):
        spec = build_protocol("otoken")
        (ps,) = spec.rule("SETUP_PSEUDONYM").network_out
        assert isinstance(ps, App) and ps.sym == "tuple" and len(ps.args) == 3

    def test_rtoken_pseudonym_has_two_fields(self):
        spec = build_protocol("rtoken")
        (ps,) = spec.rule("SETUP_PSEUDONYM").network_out
        assert isinstance(ps, App) and ps.sym == "tuple" and len(ps.args) == 2

    def test_rtoken_receive_decrypts_regardless_of_active_pseudonym(self):
        # the CanChange premise is a wildcard, and a decryption guard exists
        rule = build_protocol("rtoken").rule("OSR_REQ_RECV")
        can_change = [p for p in rule.premises if p.name == "CanChange"]
        assert can_change and all(
            not isinstance(a, App) for a in can_change[0].args[1:]
        )
        assert any("rdec" in render(l) for l, _ in rule.guards)

    def test_plain_receive_requires_active_pseudonym_match(self):
        rule = build_protocol("plain").rule("OSR_REQ_RECV")
        can_change = [p for p in rule.premises if p.name == "CanChange"][0]
        # the request pattern and the active fact share the pseudonym key
        assert any(isinstance(a, App) and a.sym == "pk" for a in can_change.args)


class TestInitialState:
    def test_only_setup_rules_enabled(self):
        spec = build_protocol("plain")
        state = initial_state(spec, 1)
        state = type(state)(
            linear=state.linear,
            persistent=state.persistent,
            knowledge=state.knowledge.with_budget(1),
            next_fresh=0,
            step=0,
        )
        enabled = [
            r.id for r in spec.rules if enabled_instances(state, r, 4)
        ]
        assert enabled == ["SETUP_REV_AUTH", "SETUP_VEHICLE"]

    def test_needs_a_vehicle(self):
        with pytest.raises(ValueError):
            initial_state(build_protocol("plain"), 0)

    def test_adversary_starts_with_agent_names_only(self):
        state = initial_state(build_protocol("rtoken"), 2)
        assert state.knowledge.basis == frozenset(
            [RA_NAME, vehicle_name(1), vehicle_name(2)]
        )

    def test_no_secret_derivable_initially(self):
        state = initial_state(build_protocol("plain"), 1)
        assert all(
            not isinstance(t, Fresh) for t in state.knowledge.basis
        )

    def test_post_setup_knowledge_contains_public_keys_only(self):
        spec, state = honest_prefix("plain", upto="SETUP_PSEUDONYM")
        S = saturate_oracle(state.knowledge, 1, extra_atoms=(RA_NAME,))
        pks = [t for t in state.knowledge.basis if isinstance(t, App) and t.sym == "pk"]
        assert len(pks) == 2  # the authority key and the pseudonym key
        for t in pks:
            assert t in S
            (secret,) = t.args
            assert secret not in S
            assert can_derive(state.knowledge, secret, 8) is None


class TestVariantIsolation:
    PS_PATTERNS = {
        "plain": ("?PS", "?PS"),
        "rtoken": ("(tuple ?PKPS ?SIGMA)", "?SIGMA"),
        "otoken": ("(tuple ?PKPS ?PKO ?PHI)", "?PHI"),
    }

    def _fingerprint(self, protocol: str, rule_id: str) -> str:
        rule = build_protocol(protocol, change_enabled=True).rule(rule_id)
        ps, token = self.PS_PATTERNS[protocol]
        text = _render_rule(rule)
        # the confirmation token is a projection of the pseudonym, so both
        # abstract to the same marker (for plain they are one and the same)
        return text.replace(ps, "<PS>").replace(token, "<PS>")

    def test_report_and_send_rules_identical_modulo_pseudonym_shape(self):
        for rule_id in ("REPORT", "REV_AUTH_OSR_REQ_SEND"):
            prints = {
                p: self._fingerprint(p, rule_id) for p in ("plain", "rtoken", "otoken")
            }
            assert prints["plain"] == prints["rtoken"] == prints["otoken"]

    def test_rule_id_sets_match_across_variants(self):
        ids = {
            p: {r.id for r in build_protocol(p, change_enabled=True).rules}
            for p in ("plain", "rtoken", "otoken")
        }
        assert ids["plain"] == ids["rtoken"] == ids["otoken"]

    def test_differences_confined_to_documented_rules(self):
        allowed_diff = {
            "SETUP_PSEUDONYM",
            "OSR_REQ_RECV",
            "REV_AUTH_OSR_CONF_RECV",
            "CHANGE_PSEUDONYM",
        }
        base = build_protocol("plain", change_enabled=True)
        for other in ("rtoken", "otoken"):
            spec = build_protocol(other, change_enabled=True)
            for rule in spec.rules:
                if rule.id in allowed_diff:
                    continue
                assert self._fingerprint("plain", rule.id) == self._fingerprint(
                    other, rule.id
                ), f"{rule.id} drifted between plain and {other}"
            assert {r.id for r in base.rules} == {r.id for r in spec.rules}


def _render_rule(rule) -> str:
    parts = [
        ";".join(f.render() for f in rule.premises),
        ",".join(rule.fresh_vars),
        ";".join(f"{render(l)}={render(r)}" for l, r in rule.guards),
        ";".join(
            f"{label}({','.join(render(a) for a in args)})" for label, args in rule.events
        ),
        ";".join(f.render() for f in rule.conclusions),
        ";".join(render(t) for t in rule.network_in),
        ";".join(render(t) for t in rule.network_out),
    ]
    return "|".join(parts)


class TestStructuralInvariants:
    def test_one_authority_keypair_per_trace(self):
        from revlab import Bounds, explore

        spec = build_protocol("plain", change_enabled=True)
        ts = explore(spec, initial_state(spec, 1), Bounds())
        for trace in ts:
            setups = [s for s in trace.steps if s.rule_id == "SETUP_REV_AUTH"]
            assert len(setups) <= 1

    def test_two_vehicles_only_designated_one_confirms(self):
        from revlab import Bounds, explore
        from revlab.goals import run_all

        spec = build_protocol("plain")
        bounds = Bounds(max_steps=9)
        ts = explore(spec, initial_state(spec, 2), bounds)
        for trace in ts:
            reported = {
                (e.args[0], e.args[1]) for e in trace.events if e.label == "Reported"
            }
            for e in trace.events:
                if e.label == "OsrConfSentBy":
                    assert (e.args[0], e.args[2]) in reported
        got = run_all(spec, bounds, trace_set=ts).verdicts
        assert got["g1"].outcome == "witness-found"
        assert all(got[g].outcome.startswith("no-counterexample") for g in ("g2", "g3", "g4"))

    def test_honest_vehicles_verify_before_confirming(self):
        from revlab import Bounds, explore

        spec = build_protocol("rtoken", change_enabled=True)
        ts = explore(spec, initial_state(spec, 1), Bounds())
        for trace in ts:
            events = trace.events
            for conf in events:
                if conf.label != "OsrConfSentBy":
                    continue
                verified = [
                    e
                    for e in events
                    if e.label == "OsrReqVerified"
                    and e.args[0] is conf.args[0]
                    and e.args[1] is conf.args[2]
                    and e.time <= conf.time
                ]
                assert verified, "confirmation without prior verification"
                # same firing: the receive rule verifies then confirms
                flat = list(events)
                assert flat.index(verified[0]) < flat.index(conf)
