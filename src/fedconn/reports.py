"""Deterministic check reports shared by the command-line runner."""

from __future__ import annotations

import json


class CheckError(AssertionError):
    """A check of the math failed, so the steps after it cannot run.

    The runner ends it as the FAIL line of ``check`` (a subclass's own, or
    the raise site's), with the message as witness and ``description`` as
    the line's description when one raise site needs its own; otherwise the
    runner's table gives the description."""

    check = description = None

    def __init__(self, message, check=None, description=None):
        super().__init__(message)
        self.check = check or self.check
        self.description = description or self.description


class Check:
    __slots__ = ("name", "description", "status", "witness")

    def __init__(self, name, description, status, witness=None):
        if status not in ("pass", "fail", "n/a"):
            raise ValueError(f"bad status {status!r}")
        self.name = name
        self.description = description
        self.status = status
        self.witness = witness

    def as_dict(self):
        return {
            "name": self.name,
            "description": self.description,
            "status": self.status,
            "witness": self.witness,
        }


class Report:
    """Ordered checks plus free-form info lines; rendering is byte-stable."""

    def __init__(self, command: str, scenario: str, seed: int):
        self.command = command
        self.scenario = scenario
        self.seed = seed
        self.checks = []
        self.info = []

    def add(self, name, description, ok, witness=None):
        status = "pass" if ok else "fail"
        self.checks.append(Check(name, description, status, witness))

    def add_na(self, name, description, witness=None):
        self.checks.append(Check(name, description, "n/a", witness))

    def note(self, line: str):
        self.info.append(line)

    @property
    def counts(self):
        out = {"pass": 0, "fail": 0, "n/a": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts["fail"] == 0

    def render_text(self) -> str:
        lines = [f"command: {self.command}", f"scenario: {self.scenario}", f"seed: {self.seed}", ""]
        for c in self.checks:
            tag = {"pass": "PASS", "fail": "FAIL", "n/a": "N/A "}[c.status]
            lines.append(f"[{tag}] {c.name}: {c.description}")
            if c.witness:
                lines.append(f"       witness: {c.witness}")
        if self.info:
            lines.append("")
            lines.extend(self.info)
        counts = self.counts
        lines.append("")
        lines.append(
            f"summary: {counts['pass']} passed, {counts['fail']} failed, {counts['n/a']} n/a"
        )
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        payload = {
            "command": self.command,
            "scenario": self.scenario,
            "seed": self.seed,
            "checks": [c.as_dict() for c in self.checks],
            "info": list(self.info),
            "summary": self.counts,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
