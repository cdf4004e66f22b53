"""Lint findings: the unit of output of the static analyzer.

A `Finding` pins one rule violation to a file/line/symbol; every rule
module builds its findings through a `Reporter`.  The ``fingerprint``
deliberately excludes line numbers *and* directories (only the file's
basename participates) so that the identity SARIF consumers track
survives unrelated edits above the finding and directory reshuffles
around it.
"""

from __future__ import annotations

import hashlib
import json
import posixpath
from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class Finding:
    """One rule violation at a concrete source location."""

    rule: str          # rule id, e.g. "SHF001"
    path: str          # posix-style path as scanned
    line: int
    col: int
    message: str       # human-readable, line-number free (fingerprint-stable)
    symbol: str = ""   # enclosing function/scope, "" for module level
    # Secondary sites (a persist, a taint source) as (path, line, message)
    # triples; rendered as SARIF relatedLocations.  Deliberately excluded
    # from the fingerprint: line numbers drift with unrelated edits.
    related: tuple = ()

    @property
    def fingerprint(self) -> str:
        """Stable identity (SARIF ``partialFingerprints``): no line
        numbers, and only the file's basename (directory renames keep
        it stable)."""
        base = posixpath.basename(self.path.replace("\\", "/"))
        raw = f"{self.rule}|{base}|{self.symbol}|{self.message}"
        return hashlib.sha1(raw.encode()).hexdigest()[:16]

    def render(self) -> str:
        """One text line: ``path:line:col RULE message [in symbol]``."""
        where = f" [in {self.symbol}]" if self.symbol else ""
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}{where}"

    def to_dict(self) -> dict:
        """JSON-ready representation (includes the fingerprint)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
            "fingerprint": self.fingerprint,
            "related": [
                {"path": p, "line": line, "message": msg}
                for (p, line, msg) in self.related
            ],
        }


class Reporter:
    """Collects one checker's findings.  The same site reported twice —
    a ``finally`` body the CFG duplicates, a nested def that is both
    inside its parent and a call-graph node of its own — is one
    finding: the key is the location plus the message."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []
        self._seen: set[tuple] = set()

    def report(self, rule: str, path: str, line: int, col: int, message: str,
               symbol: str = "",
               related: Iterable[tuple[int, str]] = ()) -> None:
        """Record a finding; ``related`` sites are (line, message)
        pairs in the finding's own file."""
        key = (rule, path, line, col, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(Finding(
            rule=rule, path=path, line=line, col=col, message=message,
            symbol=symbol,
            related=tuple((path, rline, rmsg) for rline, rmsg in related),
        ))


@dataclass
class LintReport:
    """All findings of a run; any finding is a failure."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    # Optional run statistics (``repro lint --stats``).  None unless
    # requested.
    stats: dict | None = None

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def rule_counts(self) -> dict[str, int]:
        """{rule id: number of findings}, ids sorted."""
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))

    def render_text(self) -> str:
        """Human-readable report: one line per finding, then a tally."""
        lines = [f.render() for f in self.findings]
        counts = self.rule_counts
        summary = ", ".join(f"{r}={n}" for r, n in counts.items()) or "none"
        lines.append(
            f"{len(self.findings)} finding(s) ({summary}) in "
            f"{self.files_scanned} file(s)"
        )
        return "\n".join(lines)

    def render_stats(self) -> str:
        """Human-readable run statistics (requires collect_stats)."""
        if self.stats is None:
            return "no statistics collected"
        lines = ["per-rule findings:"]
        rules = self.stats.get("rules", {})
        if rules:
            lines.extend(f"  {rid:8s} {n}" for rid, n in rules.items())
        else:
            lines.append("  (none)")
        lines.append(f"modules: {self.stats.get('modules', 0)}")
        c = self.stats.get("cfg")
        if c:
            lines.append(
                f"control flow: {c.get('functions', 0)} function CFG(s), "
                f"{c.get('blocks', 0)} blocks, {c.get('edges', 0)} edges "
                f"(+{c.get('exc_edges', 0)} exceptional)"
            )
        s = self.stats.get("sizes")
        if s:
            values = s.get("values", {})
            classes = ", ".join(
                f"{name}={n}" for name, n in values.items()
            ) or "none"
            lines.append(
                f"size classes: {s.get('functions', 0)} driver function(s) "
                f"checked; values by class: {classes}"
            )
        return "\n".join(lines)

    def render_json(self) -> str:
        """Machine-readable report for CI."""
        payload = {
            "findings": [f.to_dict() for f in self.findings],
            "files_scanned": self.files_scanned,
            "clean": self.clean,
        }
        if self.stats is not None:
            payload["stats"] = self.stats
        return json.dumps(payload, indent=2)
