"""Assembly of the full per-level report and its JSON rendering.

All rationals appear as "p/q" strings (or "p" when integral), dictionary
fields are built in a fixed order, and two runs with the same flags emit
byte-identical JSON.  Experimental sections (the estimates of the middle
multiplicity) never influence the exit status.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable

from . import __version__
from .groups import group_certificate
from .levels import level_invariants, local_multiplicity
from .motives import codim_one_checklist, filtration_of, realize_betti, surface_multiplicity, variety, weight_pieces
from .surface import neron_lattice, surface_certificate
from .threefold import cusp_incidence, estimate_n, threefold_certificate, verify_structure_identities

# The certificate sections of a report, in the order they are printed.
CERTIFICATE_SECTIONS = (
    "group_certificate",
    "structure_certificate",
    "surface_certificate",
    "threefold_certificate",
)

# Facts the engine records but does not re-derive: their proofs use exact
# sequences of cycle groups, beyond the formal calculus checked here.
RECORDED_FACTS = [
    "the residual surface projector equals the sum of the per-cusp projectors",
    "the residual threefold projector is a sum, over cusps, of a family of"
    " component-by-cycle products plus its transpose, with vertical"
    " one-cycles that are not determined by the calculus",
    "each per-cusp threefold family defines s copies of a Lefschetz twist"
    " for one undetermined positive integer s",
    "the weight-2 and weight-3 form motives have opaque Chow groups: only"
    " their places in the filtration are reported",
]


def certificate_summary(entries: Iterable[dict]) -> dict:
    entries = list(entries)
    failed = [e["name"] for e in entries if e["status"] != "pass"]
    return {"total": len(entries), "passed": len(entries) - len(failed), "failed": failed}


def run_report(n: int, include_threefold: bool = True) -> dict:
    """Run every certificate and table for one level."""
    inv = level_invariants(n)
    payload: dict = {
        "tool_version": __version__,
        "level": n,
        "invariants": inv.to_json(),
        "local_multiplicities": {
            f"m(2,{q},{r})": local_multiplicity(q, r) for q in range(5) for r in range(3)
        },
        "lattice": neron_lattice(n).to_json(),
        "group_certificate": group_certificate(n),
        "structure_certificate": verify_structure_identities(n),
        "surface_certificate": surface_certificate(n),
    }
    tables: dict = {"decompositions": {}, "betti": {}, "filtration": {}, "divisor_checklist": {}}
    for which in ("surface", "threefold") if include_threefold else ("surface",):
        dim, decompose = variety(which)
        motive = decompose(n)  # once: each table below is read from the one before it
        decomposition = {"motive": motive.to_json()}
        if which == "surface":
            decomposition["multiplicity"] = surface_multiplicity(n)
        ck = weight_pieces(motive, dim)
        decomposition["chow_kunneth"] = [m.to_json() for m in ck]
        tables["decompositions"][which] = decomposition
        betti = realize_betti(motive, n, which)
        tables["betti"][which] = betti.to_json()
        filtration = filtration_of(n, which, ck)
        tables["filtration"][which] = filtration.to_json()
        tables["divisor_checklist"][which] = codim_one_checklist(ck, filtration)
    payload.update(tables)
    payload["recorded_facts"] = list(RECORDED_FACTS)
    if include_threefold:
        payload["threefold_certificate"] = threefold_certificate(n)
        est = estimate_n(n)
        payload["experimental"] = {
            "middle_multiplicity": est,
            "betti_threefold_with_estimate": betti.substitute(est["n_lattice"]),  # the loop's last: the threefold's
            "incidence": cusp_incidence(n).to_json(),
        }
    sections = [key for key in CERTIFICATE_SECTIONS if key in payload]
    payload["summary"] = {key: certificate_summary(payload[key]) for key in sections}
    payload["summary"]["all_passed"] = report_passed(payload)
    return payload


def non_experimental_certificates(payload: dict) -> list[dict]:
    entries: list[dict] = []
    for key in CERTIFICATE_SECTIONS:
        entries.extend(payload.get(key, ()))
    for checklist in payload.get("divisor_checklist", {}).values():
        entries.extend(checklist)
    return entries


def report_passed(payload: dict) -> bool:
    """Exit-status contract: every non-experimental entry must pass."""
    return all(e["status"] == "pass" for e in non_experimental_certificates(payload))


def _render(value, indent: str) -> str:
    """value as `json.dumps(value, indent=2)` writes it at the depth of indent, each dict and list as one join.

    A key that is no str, or a value that is no dict, list, str, int, bool or None, raises TypeError.
    """
    kind = type(value)
    if kind is dict or kind is list:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = indent + "  "
        if kind is dict:
            items = [_quote(k) + ": " + (_quote(v) if type(v) is str else _render(v, inner)) for k, v in value.items()]
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
        items = [_quote(v) if type(v) is str else _render(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"{kind.__name__} is not a JSON value of a report: {value!r}")


def render_json(payload: dict) -> str:
    return _render(payload, "") + "\n"


def render_text(payload: dict) -> str:
    lines = [f"level {payload['level']}  (tool {payload['tool_version']})"]
    inv = payload["invariants"]
    lines.append(
        "invariants: cusps={cusp_count} euler={euler_index} genus={genus} s3={s3} s4={s4}".format(**inv)
    )
    for key in CERTIFICATE_SECTIONS:
        if key not in payload:
            continue
        summary = payload["summary"][key]
        status = "ok" if not summary["failed"] else "FAILED " + ", ".join(summary["failed"][:5])
        lines.append(f"{key}: {summary['passed']}/{summary['total']} {status}")
    if "experimental" in payload:
        est = payload["experimental"]["middle_multiplicity"]
        lines.append(
            "experimental n: euler={n_euler} lattice={n_lattice} consistent={consistent}".format(**est)
        )
    lines.append(f"all non-experimental checks passed: {payload['summary']['all_passed']}")
    return "\n".join(lines) + "\n"
