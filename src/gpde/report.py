"""Check results and report rendering (text, JSON, LaTeX).

Every verdict is made here: a check hands over the residuals that must
vanish (CheckResult.of), or the error that ended it (CheckResult.refused).
CheckResult is an immutable NamedTuple and compares like a tuple of its four
fields.  json is imported only by Report.to_json, so a text verdict never
loads it."""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from .algebra import Poly


class CheckResult(NamedTuple):
    name: str
    passed: bool
    residual_terms: int = 0
    detail: str = ""

    @classmethod
    def of(cls, name: str, *residuals, detail: str = "") -> "CheckResult":
        """PASS exactly when every residual is empty, residual_terms their
        total term count.  A residual is a Poly or the terms dict of one
        theta level; levels keep distinct monomials apart, so the terms of
        a level form are those of all its levels."""
        terms = sum(len(r.terms if isinstance(r, Poly) else r) for r in residuals)
        return cls(name, not terms, terms, detail)

    @classmethod
    def refused(cls, name: str, error) -> "CheckResult":
        """A FAIL for the check that an error, or a message, ended; an error
        that carries a residual (NotExactError) counts its terms."""
        residual = getattr(error, "residual", None)
        return cls(name, False, 0 if residual is None else residual.num_terms(), str(error))

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        msg = f"[{tag}] {self.name} residual_terms={self.residual_terms}"
        if self.detail:
            msg += f"  ({self.detail})"
        return msg


class Report:
    def __init__(self, model: str, checks: Optional[List[CheckResult]] = None,
                 outputs: Optional[Dict[str, object]] = None):
        self.model = model
        self.checks = [] if checks is None else checks
        self.outputs = {} if outputs is None else outputs

    def add(self, check: CheckResult) -> "Report":
        self.checks.append(check)
        return self

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"model: {self.model}"]
        lines += [c.line() for c in self.checks]
        for key, val in self.outputs.items():
            lines.append(f"{key}: {val}")
        lines.append("result: " + ("OK" if self.all_passed else "FAILED"))
        return "\n".join(lines)

    def to_json(self) -> str:
        import json

        payload = {
            "model": self.model,
            "checks": [
                {
                    "name": c.name,
                    "pass": c.passed,
                    "residual_terms": c.residual_terms,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "outputs": {k: str(v) for k, v in self.outputs.items()},
        }
        return json.dumps(payload, indent=2)

    def to_latex(self) -> str:
        rows = []
        for c in self.checks:
            status = r"\checkmark" if c.passed else r"\times"
            name = c.name.replace("_", r"\_")
            rows.append(f"{name} & ${status}$ & {c.residual_terms} \\\\")
        body = "\n".join(rows)
        out = [
            r"\begin{tabular}{lcc}",
            r"check & status & residual terms \\ \hline",
            body,
            r"\end{tabular}",
        ]
        for key, val in self.outputs.items():
            key = key.replace("_", r"\_")
            out.append(rf"% {key}: see below")
            out.append(rf"\[ \mathrm{{{key}}} = {val} \]")
        return "\n".join(out)
