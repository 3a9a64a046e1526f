"""Finding model and renderers (text + SARIF 2.1) for ``repro check``.

SARIF output targets the OASIS SARIF 2.1.0 schema so findings can be
uploaded to code-scanning UIs.  The emitter writes the subset of the spec a
static analyzer needs - ``tool.driver.rules``, ``results`` with physical
locations, and ``codeFlows`` carrying the interprocedural chain that led to
each finding - and :func:`validate_sarif` structurally checks that subset
(the third-party ``jsonschema`` package is deliberately not required).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.qa.rules import RULES

__all__ = ["FlowFinding", "to_sarif", "validate_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
TOOL_NAME = "repro-check"


@dataclass(frozen=True)
class FlowFinding:
    """One whole-program finding.

    ``symbol`` is the qualified name of the function (or module) the finding
    is anchored in - baselines key on it, so findings survive line churn.
    ``trace`` carries the interprocedural chain as ``"qualname (path:line)"``
    hops, outermost call first.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    symbol: str
    trace: Tuple[str, ...] = field(default=())

    @property
    def hint(self) -> str:
        rule = RULES.get(self.code)
        return rule.hint if rule is not None else ""

    def format(self, *, hints: bool = True) -> str:
        """Render as ``path:line:col: CODE message`` plus chain and hint."""
        head = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        lines = [head]
        for i, hop in enumerate(self.trace):
            lines.append(f"    {'via:  ' if i else 'flow: '}{hop}")
        if hints and self.hint:
            lines.append(f"    hint: {self.hint}")
        return "\n".join(lines)

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)


# --------------------------------------------------------------------------- #
# SARIF 2.1
# --------------------------------------------------------------------------- #
def _uri(path: str) -> str:
    return path.replace("\\", "/")


def _sarif_rules(codes: Sequence[str]) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    for code in codes:
        rule = RULES.get(code)
        if rule is None:
            out.append({"id": code, "shortDescription": {"text": code}})
            continue
        out.append(
            {
                "id": rule.code,
                "name": rule.name,
                "shortDescription": {"text": rule.name},
                "fullDescription": {"text": rule.summary},
                "help": {"text": rule.hint},
                "defaultConfiguration": {"level": "warning"},
            }
        )
    return out


def _location(finding: FlowFinding) -> Dict[str, Any]:
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": _uri(finding.path)},
            "region": {
                "startLine": max(finding.line, 1),
                "startColumn": max(finding.col + 1, 1),
            },
        },
        "logicalLocations": [
            {"fullyQualifiedName": finding.symbol, "kind": "function"}
        ],
    }


def _code_flow(finding: FlowFinding) -> Dict[str, Any]:
    locations: List[Dict[str, Any]] = []
    for hop in finding.trace:
        # hop format: "qualname (path:line)"
        text = hop
        path, line = finding.path, finding.line
        if "(" in hop and hop.endswith(")"):
            loc = hop[hop.rfind("(") + 1 : -1]
            if ":" in loc:
                path, _, line_s = loc.rpartition(":")
                if line_s.isdigit():
                    line = int(line_s)
        locations.append(
            {
                "location": {
                    "physicalLocation": {
                        "artifactLocation": {"uri": _uri(path)},
                        "region": {"startLine": max(line, 1)},
                    },
                    "message": {"text": text},
                }
            }
        )
    return {"threadFlows": [{"locations": locations}]}


def to_sarif(findings: Sequence[FlowFinding]) -> Dict[str, Any]:
    """Build a SARIF 2.1.0 log for ``findings``."""
    codes = sorted({f.code for f in findings} | {c for c in RULES if RULES[c].analyzer == "flow"})
    rule_index = {code: i for i, code in enumerate(codes)}
    results: List[Dict[str, Any]] = []
    for f in sorted(findings, key=FlowFinding.sort_key):
        result: Dict[str, Any] = {
            "ruleId": f.code,
            "ruleIndex": rule_index[f.code],
            "level": "warning",
            "message": {"text": f.message},
            "locations": [_location(f)],
        }
        if f.trace:
            result["codeFlows"] = [_code_flow(f)]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": "https://example.invalid/repro",
                        "rules": _sarif_rules(codes),
                    }
                },
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }


def validate_sarif(doc: Any) -> List[str]:
    """Structurally validate the SARIF subset this tool emits.

    Returns a list of human-readable problems (empty = valid).  Checks the
    2.1.0 invariants code-scanning consumers rely on: version/schema, the
    tool driver with well-formed rules, and every result's ruleId/ruleIndex,
    message and physical locations.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("version") != SARIF_VERSION:
        errors.append(f"version must be {SARIF_VERSION!r}")
    if not isinstance(doc.get("$schema"), str):
        errors.append("$schema missing")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        return errors + ["runs must be a non-empty array"]
    for ri, run in enumerate(runs):
        if not isinstance(run, dict):
            errors.append(f"runs[{ri}] is not an object")
            continue
        driver = run.get("tool", {}).get("driver") if isinstance(run.get("tool"), dict) else None
        if not isinstance(driver, dict) or not isinstance(driver.get("name"), str):
            errors.append(f"runs[{ri}].tool.driver.name missing")
            continue
        rules = driver.get("rules", [])
        if not isinstance(rules, list):
            errors.append(f"runs[{ri}] rules must be an array")
            rules = []
        ids: List[str] = []
        for si, rule in enumerate(rules):
            if not isinstance(rule, dict) or not isinstance(rule.get("id"), str):
                errors.append(f"runs[{ri}].rules[{si}].id missing")
                continue
            ids.append(rule["id"])
            short = rule.get("shortDescription")
            if not isinstance(short, dict) or not isinstance(short.get("text"), str):
                errors.append(f"runs[{ri}].rules[{si}].shortDescription.text missing")
        results = run.get("results")
        if not isinstance(results, list):
            errors.append(f"runs[{ri}].results must be an array")
            continue
        for xi, result in enumerate(results):
            where = f"runs[{ri}].results[{xi}]"
            if not isinstance(result, dict):
                errors.append(f"{where} is not an object")
                continue
            rule_id = result.get("ruleId")
            if not isinstance(rule_id, str):
                errors.append(f"{where}.ruleId missing")
            elif ids and rule_id not in ids:
                errors.append(f"{where}.ruleId {rule_id!r} not declared in rules")
            index = result.get("ruleIndex")
            if index is not None and (
                not isinstance(index, int)
                or index < 0
                or (ids and (index >= len(ids) or ids[index] != rule_id))
            ):
                errors.append(f"{where}.ruleIndex inconsistent with rules order")
            message = result.get("message")
            if not isinstance(message, dict) or not isinstance(message.get("text"), str):
                errors.append(f"{where}.message.text missing")
            locations = result.get("locations")
            if not isinstance(locations, list) or not locations:
                errors.append(f"{where}.locations must be a non-empty array")
                continue
            for li, loc in enumerate(locations):
                phys = loc.get("physicalLocation") if isinstance(loc, dict) else None
                if not isinstance(phys, dict):
                    errors.append(f"{where}.locations[{li}].physicalLocation missing")
                    continue
                art = phys.get("artifactLocation")
                if not isinstance(art, dict) or not isinstance(art.get("uri"), str):
                    errors.append(f"{where}.locations[{li}] artifact uri missing")
                region = phys.get("region")
                if region is not None:
                    start = region.get("startLine") if isinstance(region, dict) else None
                    if not isinstance(start, int) or start < 1:
                        errors.append(f"{where}.locations[{li}].region.startLine must be >= 1")
    return errors
