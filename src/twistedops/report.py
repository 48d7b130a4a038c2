"""Structured verification outcomes and their JSON/text forms, and the
per-algebra memo, kept on the algebra itself, whose stored errors fail
checks the same way."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from functools import wraps

from .ring import RingError


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check.

    ``witness`` must be non-empty whenever the check failed; it carries
    the serialized residual or a short description of the mismatch.
    """

    name: str
    status: str  # "pass" | "fail"
    witness: str | None = None
    elapsed_ms: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class Report:
    algebra: str
    suite: str
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def overall(self) -> str:
        return "pass" if all(c.ok for c in self.checks) else "fail"

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "suite": self.suite,
            "checks": [asdict(c) for c in self.checks],
            "overall": self.overall,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def to_text(self) -> str:
        lines = [f"algebra {self.algebra}  suite {self.suite}"]
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            line = f"  {c.name:<{width}}  {c.status}  ({c.elapsed_ms} ms)"
            if c.witness:
                line += f"  witness: {c.witness}" if not c.ok else f"  -> {c.witness}"
            lines.append(line)
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines) + "\n"


def timed_check(name: str, fn) -> CheckResult:
    """Run ``fn()`` and wrap it with wall-clock timing.

    A ``RingError`` raised by ``fn`` is the one way the check fails, its
    message the witness; otherwise ``fn``'s return value (None or a
    string such as ``"dimension 17"``) is the pass detail.
    """
    start = time.perf_counter()
    try:
        detail, status = fn(), "pass"
    except RingError as exc:
        detail, status = str(exc) or "failed (no further detail)", "fail"
    return CheckResult(name, status, detail, int((time.perf_counter() - start) * 1000))


def per_algebra(build):
    """Memoise ``build(J)`` in the dict ``J._memos`` on the algebra itself,
    keyed by ``build``, so the value may reference J and is freed with it;
    a ``dataclasses.replace`` copy starts with no memos.

    A ``RingError`` raised by ``build`` is remembered too, and every later
    call raises a copy of it, so every check that reads the value fails in
    :func:`timed_check` with the same witness.  The stored copy has no
    traceback, context or cause, and each raise gets a fresh copy.  Copies
    are made without calling ``__init__`` (args and attributes are
    copied), so an error with its own constructor signature copies as well.
    """
    def bare(exc: RingError) -> RingError:
        copy = type(exc).__new__(type(exc), *exc.args)
        copy.__dict__.update(exc.__dict__)
        return copy

    @wraps(build)
    def memo(J):
        memos = J.__dict__.setdefault("_memos", {})
        if build not in memos:
            try:
                memos[build] = build(J)
            except RingError as exc:
                memos[build] = bare(exc)
                raise
        value = memos[build]
        if isinstance(value, RingError):  # a build returns no error, it raises one
            raise bare(value)
        return value
    return memo


REPORT_SCHEMA_KEYS = {"algebra", "suite", "checks", "overall"}
CHECK_SCHEMA_KEYS = {f.name for f in fields(CheckResult)}


def validate_report_dict(data) -> list[str]:
    """Return a list of schema violations (empty when valid); any decoded
    JSON value is read without raising."""
    if not isinstance(data, dict):
        return [f"report must be an object, got {type(data).__name__}"]
    problems = []
    if set(data) != REPORT_SCHEMA_KEYS:
        problems.append(f"top-level keys {sorted(data)}")
    checks = data.get("checks", [])
    if not isinstance(checks, list):
        problems.append("checks must be a list")
        checks = []
    failed = False
    for c in checks:
        if not isinstance(c, dict) or set(c) != CHECK_SCHEMA_KEYS:
            problems.append(f"check keys {sorted(c) if isinstance(c, dict) else c!r}")
            continue
        if c["status"] not in ("pass", "fail"):
            problems.append(f"bad status {c['status']!r}")
        if type(c["elapsed_ms"]) is not int:
            problems.append("elapsed_ms must be int")
        if c["witness"] is not None and not isinstance(c["witness"], str):
            problems.append("witness must be str or null")
        failed = failed or c["status"] != "pass"
        if c["status"] == "fail" and not c["witness"]:
            problems.append(f"failed check {c['name']!r} lacks a witness")
    if data.get("overall") not in ("pass", "fail"):
        problems.append("overall must be pass|fail")
    elif data["overall"] != ("fail" if failed else "pass"):
        problems.append(f"overall {data['overall']!r} disagrees with the checks")
    return problems
