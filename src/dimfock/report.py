"""Structured pass/fail reports for the verification suites."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class CheckEntry:
    check_id: str
    anchor: str
    status: str  # pass | fail
    seconds: float
    details: str = ""


@dataclass
class CheckReport:
    suite: str
    points: list = field(default_factory=list)
    entries: list = field(default_factory=list)

    def add(self, check_id, anchor, ok, seconds, details=""):
        status = "pass" if ok else "fail"
        self.entries.append(CheckEntry(check_id, anchor, status, seconds, details))

    @property
    def failed(self):
        return [e for e in self.entries if e.status == "fail"]

    def to_json(self):
        return {
            "schema": 1,
            "suite": self.suite,
            "points": self.points,
            "checks": [
                {
                    "id": e.check_id,
                    "anchor": e.anchor,
                    "status": e.status,
                    "seconds": round(e.seconds, 3),
                    "details": e.details,
                }
                for e in self.entries
            ],
            "all_passed": not self.failed,
        }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")


class timed:
    """Context manager collecting one report entry."""

    def __init__(self, report: CheckReport, check_id: str, anchor: str):
        self.report = report
        self.check_id = check_id
        self.anchor = anchor
        self.ok = False
        self.details = ""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def result(self, ok, details=""):
        self.ok = bool(ok)
        self.details = details

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and not isinstance(exc, Exception):
            return False  # KeyboardInterrupt and SystemExit end the run
        dt = time.perf_counter() - self.t0
        if exc is not None:
            self.report.add(self.check_id, self.anchor, False, dt, "error: %r" % (exc,))
            return True  # record the failure, keep the suite going
        self.report.add(self.check_id, self.anchor, self.ok, dt, self.details)
        return False
