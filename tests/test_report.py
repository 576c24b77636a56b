"""Report documents: JSON round-trip, disclaimers, replay checks, MSC."""

import json

import pytest

from helpers import scenario
from revlab.explorer import Trace, digest
from revlab.goals import BOUNDED_DISCLAIMER
from revlab.protocols import agent_names, build_protocol
from revlab.report import (
    ReplayMismatchError,
    build_document,
    compare_with_reference,
    render_msc,
    render_text,
    to_json,
)
from revlab.rewriting import make_state


class TestDocument:
    def test_json_round_trips_byte_identical(self):
        result, elapsed = scenario("plain")
        doc = build_document(result, elapsed, deterministic=True)
        text = to_json(doc)
        again = to_json(json.loads(text))
        assert again == text

    def test_schema_version_present(self):
        result, elapsed = scenario("plain")
        doc = build_document(result, elapsed, deterministic=True)
        assert doc["schema"] == 1

    def test_all_traces_passes_carry_the_disclaimer(self):
        result, elapsed = scenario("otoken", change=True)
        doc = build_document(result, elapsed, deterministic=True)
        for entry in doc["results"]:
            if entry["mode"] == "all-traces" and entry["outcome"].startswith("no-"):
                assert entry["disclaimer"] == BOUNDED_DISCLAIMER
                assert entry["disclaimer"] == "no counterexample within bounds"

    def test_deterministic_flag_zeroes_timing(self):
        result, elapsed = scenario("plain")
        doc = build_document(result, elapsed, deterministic=True)
        assert doc["stats"]["elapsed_s"] == 0.0

    def test_evidence_serialization_marks_synthesized_inputs(self):
        result, elapsed = scenario("rtoken", change=True)
        doc = build_document(result, elapsed, deterministic=True)
        g2 = next(e for e in doc["results"] if e["goal"] == "g2")
        forged = [
            i
            for s in g2["evidence"]["steps"]
            for i in s["inputs"]
            if i["synthesized"]
        ]
        assert forged and all("derivation" in i for i in forged)

    def test_every_evidence_trace_replays(self):
        # build_document raises ReplayMismatchError if replay diverges
        for proto, change in (("rtoken", True), ("otoken", True)):
            result, elapsed = scenario(proto, change=change)
            build_document(result, elapsed, deterministic=True)

    def test_each_distinct_evidence_trace_is_replayed_once(self, monkeypatch):
        import revlab.report as report

        replayed = []
        check = report._check_replay

        def counting(result, trace):
            replayed.append(trace)
            return check(result, trace)

        monkeypatch.setattr(report, "_check_replay", counting)
        result, elapsed = scenario("rtoken", change=True)
        doc = build_document(result, elapsed, deterministic=True)
        evidence = [v.evidence for v in result.verdicts.values() if v.evidence]
        assert (len(evidence), len(set(evidence))) == (6, 4)
        assert sorted(map(Trace.key, replayed)) == sorted(map(Trace.key, set(evidence)))
        assert sum(1 for e in doc["results"] if e["evidence"]) == 6

    def test_swapped_terminal_state_is_rejected(self):
        result, elapsed = scenario("rtoken", change=True)
        goal, v = next(
            (g, v) for g, v in sorted(result.verdicts.items()) if v.evidence
        )
        recorded = digest(v.evidence.terminal_state)
        other = next(
            t for t in result.traces if digest(t.terminal_state) != recorded
        )
        forged = v.evidence._replace(terminal_state=other.terminal_state)
        verdicts = dict(result.verdicts)
        verdicts[goal] = v._replace(evidence=forged)
        with pytest.raises(ReplayMismatchError):
            build_document(result._replace(verdicts=verdicts), elapsed)

    def test_text_rendering_mentions_verdicts(self):
        result, elapsed = scenario("plain", change=True)
        doc = build_document(result, elapsed, deterministic=True)
        text = render_text(doc)
        assert "G5" in text and "no-witness-within-bounds" in text
        assert "CanChange" in text  # the failure explanation is shown


class TestReferenceComparison:
    def test_matching_reference_has_no_mismatches(self):
        result, elapsed = scenario("rtoken", change=True)
        doc = build_document(result, elapsed, deterministic=True)
        ref = json.load(open("reference/rtoken.json"))
        assert compare_with_reference(doc, ref) == []

    def test_divergent_reference_reports_goals(self):
        result, elapsed = scenario("rtoken", change=True)
        doc = build_document(result, elapsed, deterministic=True)
        ref = {"verdicts": {"g2": "no-counterexample-within-bounds"}}
        got = compare_with_reference(doc, ref)
        assert any(m.startswith("g2:") for m in got)

    def test_disjoint_reference_is_flagged(self):
        result, elapsed = scenario("plain")
        doc = build_document(result, elapsed, deterministic=True)
        assert compare_with_reference(doc, {"verdicts": {"g5": "witness-found"}})


class TestMsc:
    def test_empty_trace_renders_headers_only(self):
        trace = Trace(steps=(), terminal_state=make_state(), truncated=False)
        chart = render_msc(trace, agent_names(1), build_protocol("plain"))
        lines = chart.splitlines()
        assert len(lines) == 1
        assert "RA" in lines[0] and "V1" in lines[0] and "ADVERSARY" in lines[0]

    def test_honest_plain_run_shows_relayed_exchange(self):
        result, _ = scenario("plain")
        witness = result.verdicts["g1"].evidence
        chart = render_msc(witness, agent_names(1), result.spec)
        # the request is relayed from the authority to the vehicle, and the
        # confirmation back; broadcast arrows reach the adversary column
        assert "relayed: (tuple RA V1 (tuple revoke" in chart
        assert "relayed: (tuple V1 RA (tuple V1 confirm" in chart
        assert "out: (tuple RA V1" in chart
        assert "forged" not in chart

    def test_rtoken_attack_shows_forged_confirmation(self):
        result, _ = scenario("rtoken", change=True)
        cex = result.verdicts["g2"].evidence
        chart = render_msc(cex, agent_names(1), result.spec)
        assert "forged: (tuple V1 RA (tuple confirm" in chart
        assert "gen-fresh" in chart
        assert "out: (tuple RA V1" in chart  # the intercepted broadcast

    def test_deterministic_layout(self):
        result, _ = scenario("rtoken", change=True)
        cex = result.verdicts["g2"].evidence
        agents = agent_names(1)
        assert render_msc(cex, agents, result.spec) == render_msc(cex, agents, result.spec)
