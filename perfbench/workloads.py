"""The benchmark's workloads: revlab scenarios and the verdicts each must give."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = ROOT / "reference"
EXPECT = HERE / "expect"


@dataclass(frozen=True)
class Scenario:
    id: str
    args: tuple  # revlab command-line arguments
    expect: Path  # JSON file whose "verdicts" map the run must reproduce

    def expected_verdicts(self) -> dict:
        with open(self.expect, "r", encoding="utf-8") as fh:
            return json.load(fh)["verdicts"]


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple

    def ordered(self, seed: int) -> list:
        """Scenarios in the order the seed draws."""
        order = list(self.scenarios)
        random.Random(seed).shuffle(order)
        return order


WORKLOADS = {
    w.name: w
    for w in (
        # The job users run: the paper's verdict table.  The only workload
        # with untruncated search, many evidence traces, and real replay and
        # report cost.
        Workload(
            "paper-matrix",
            (
                Scenario("plain", ("--protocol", "plain", "--goals", "all"),
                         REFERENCE / "plain_nochange.json"),
                Scenario("plain-change",
                         ("--protocol", "plain", "--change", "--goals", "all"),
                         REFERENCE / "plain.json"),
                Scenario("rtoken-change",
                         ("--protocol", "rtoken", "--change", "--goals", "all"),
                         REFERENCE / "rtoken.json"),
                Scenario("otoken-change",
                         ("--protocol", "otoken", "--change", "--goals", "all"),
                         REFERENCE / "otoken.json"),
            ),
        ),
        # Adversary synthesis dominates; dedup, goals and evidence cost
        # almost nothing.  Default bounds run for minutes, so step 5.
        Workload(
            "otoken-reveals",
            (
                Scenario("otoken-reveals",
                         ("--protocol", "otoken", "--change", "--reveals",
                          "--max-steps", "5", "--goals", "all"),
                         EXPECT / "otoken-reveals.json"),
            ),
        ),
        # Two symmetric vehicles: many cheap synthesis calls, dedup hits,
        # and most fires spent at the step bound.  Verdicts as in the paper.
        Workload(
            "rtoken-2v",
            (
                Scenario("rtoken-2v",
                         ("--protocol", "rtoken", "--change", "--vehicles", "2",
                          "--max-steps", "7", "--goals", "all"),
                         REFERENCE / "rtoken.json"),
            ),
        ),
    )
}
