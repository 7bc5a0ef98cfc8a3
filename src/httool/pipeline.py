"""End-to-end pipeline: candidate -> property report -> CM field -> extension
-> scalar -> trace form -> K3 complement -> certificate.

The certificate is a plain JSON document with a stable key order; telemetry
(timings, counters) lives next to it and is excluded from reproducibility
comparisons.  Mathematical failures are statuses inside the certificate,
never exceptions.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from ._intfactor import COUNTERS
from .cmfield import (
    NumberField,
    build_extension,
    cm_to_k3,
    completion_degree_check,
    disc_identity_check,
    eisenstein_real_subfield,
    signature_of,
    weil_field,
)
from .exactpoly import DomainError, Poly, json_field
from .qform import (
    GramMatrix,
    QFormInvariants,
    QSpace,
    diagonalize,
    invariants,
    k3_invariants,
    sum_invariants,
)
from .weilcheck import PropertyVerdict, Status, WeilCandidate, WeilReport, check_all

SCHEMA_VERSION = 1


class RunStatus(enum.Enum):
    CONSTRUCTED = "constructed"
    EXISTENCE_ONLY = "existence_only"
    REJECTED = "rejected"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class PipelineConfig:
    max_extension_degree: int | None = None

    def __post_init__(self):
        if self.max_extension_degree is not None:
            if self.max_extension_degree % 2 or self.max_extension_degree < 2:
                raise DomainError("extension degree must be even and >= 2")
            if self.max_extension_degree > 20:
                raise DomainError("extension degree beyond 20 is outside desk limits")


@dataclass
class RunOutcome:
    status: RunStatus
    certificate: dict
    telemetry: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "status": self.status.value,
            "certificate": self.certificate,
            "telemetry": self.telemetry,
        }


def _base_certificate(candidate: WeilCandidate, report: WeilReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "input": candidate.to_json(),
        "report": report.to_json(),
    }


def _identity_blocks(sig: tuple, trace_inv: QFormInvariants, comp_inv: QFormInvariants) -> dict:
    """The `signature_identity` and `k3_sum_identity` blocks, by key: the
    trace form has twice the signature of lambda, and its sum with the
    complement has the invariants of the K3 lattice."""
    trace_sig = list(trace_inv.signature)
    total, lattice = sum_invariants(trace_inv, comp_inv), k3_invariants()
    checks = {
        "signature_identity": (
            trace_sig == [2 * sig[0], 2 * sig[1]],
            {"lambda_signature": list(sig), "trace_form_signature": trace_sig},
        ),
        "k3_sum_identity": (total == lattice, {"sum": total.to_json(), "expected": lattice.to_json()}),
    }
    return {
        key: PropertyVerdict(Status.PASS if holds else Status.FAIL, witness).to_json()
        for key, (holds, witness) in checks.items()
    }


def run(candidate: WeilCandidate, config: PipelineConfig | None = None) -> RunOutcome:
    """Execute the full construction pipeline on one candidate."""
    config = config or PipelineConfig()
    telemetry: dict = {"stage_seconds": {}, "counters": {}}
    started = time.monotonic()
    counts_before = dict(COUNTERS)

    def mark(stage: str, t0: float) -> None:
        telemetry["stage_seconds"][stage] = round(time.monotonic() - t0, 6)

    def finish(status: RunStatus) -> RunOutcome:
        telemetry["stage_seconds"]["total"] = round(time.monotonic() - started, 6)
        telemetry["counters"] = {k: n - counts_before[k] for k, n in COUNTERS.items()}
        return RunOutcome(status, cert, telemetry)

    t0 = time.monotonic()
    report = check_all(candidate)
    mark("check_all", t0)
    cert = _base_certificate(candidate, report)

    if report.failures:
        cert["status"] = RunStatus.REJECTED.value
        cert["failed_properties"] = report.failures
        return finish(RunStatus.REJECTED)
    if not report.admissible:
        # no failure, so some verdict is Unknown (slope analysis)
        cert["status"] = RunStatus.UNKNOWN.value
        cert["reason"] = "a property verdict is Unknown"
        return finish(RunStatus.UNKNOWN)

    t0 = time.monotonic()
    cm = weil_field(report.Q)
    mark("weil_field", t0)
    cert["field"] = cm.to_json()

    two_d = candidate.L.degree()
    target = config.max_extension_degree or two_d
    if target < two_d or target % cm.field.degree != 0:
        raise DomainError(
            f"extension target {target} incompatible with degree {two_d} "
            f"and field degree {cm.field.degree}"
        )
    t0 = time.monotonic()
    ext = build_extension(cm, candidate.p, target)
    mark("build_extension", t0)
    cert["extension"] = ext.to_json()

    if ext.kind == "unsupported":
        cert["status"] = RunStatus.EXISTENCE_ONLY.value
        cert["reason"] = ext.trace.get("reason", "construction regime unsupported")
        cert["base_change_exponent"] = "unresolved (geometric step out of scope)"
        return finish(RunStatus.EXISTENCE_ONLY)

    # expected completion degree scales with the extension beyond L = Q**e
    expected_h = (report.h // report.e) * ext.e
    t0 = time.monotonic()
    completion = completion_degree_check(ext, candidate.p, expected_h)
    mark("completion_degree", t0)
    cert["completion_degree"] = completion.to_json()
    if completion.status is Status.UNKNOWN:
        cert["status"] = RunStatus.UNKNOWN.value
        cert["reason"] = "completion degree undecided"
        return finish(RunStatus.UNKNOWN)
    if completion.status is Status.FAIL:
        raise ArithmeticError(f"completion degree check failed: {completion.witness}")

    d = target // 2
    if d == 10:  # cm_to_k3's docstring says why no local condition is evaluated
        reason = "no scalar is constructed at d = 10 and no local condition is evaluated"
        cert["bayer"] = {"status": Status.UNKNOWN.value, "reason": reason}
        cert["status"] = RunStatus.EXISTENCE_ONLY.value
        cert["base_change_exponent"] = "unresolved (geometric step out of scope)"
        return finish(RunStatus.EXISTENCE_ONLY)

    t0 = time.monotonic()
    result = cm_to_k3(ext, d)
    mark("cm_to_k3", t0)

    # find_lambda's construction gives lambda this signature; the
    # signature_identity below fails unless the trace form has (2, 2d - 2),
    # and revalidate_certificate replays signature_of
    sig = (1, d - 1)
    cert["lambda"] = {"coefficients": result.lam.to_strs(), "signature": list(sig)}
    cert["trace_form"] = result.trace.to_json()
    cert["trace_invariants"] = result.trace_invariants.to_json()

    t0 = time.monotonic()
    cert["disc_identity"] = disc_identity_check(ext, result.trace_invariants.det).to_json()
    mark("disc_identity", t0)
    t0 = time.monotonic()
    identities = _identity_blocks(sig, result.trace_invariants, result.complement_invariants)
    mark("k3_sum_identity", t0)
    cert["signature_identity"] = identities["signature_identity"]
    cert["complement"] = {
        "invariants": result.complement_invariants.to_json(),
        "diagonal": result.complement.to_json()["diagonal"],
    }
    cert["k3_sum_identity"] = identities["k3_sum_identity"]
    cert["bayer"] = {"status": Status.NOT_APPLICABLE.value, "reason": "d < 10"}
    cert["base_change_exponent"] = "unresolved (geometric step out of scope)"

    failed = [key for key in ("disc_identity", *identities) if cert[key]["status"] == Status.FAIL.value]
    if failed:
        raise ArithmeticError(f"certificate identities failed: {failed}")
    cert["status"] = RunStatus.CONSTRUCTED.value
    return finish(RunStatus.CONSTRUCTED)


def _leaf(obj: dict, key: str, field: str = "status", kind: type = object):
    """obj[key][field], read through `json_field`."""
    return json_field(json_field(obj, key, dict), field, kind)


def _expected_status(report: WeilReport, cert: dict) -> str:
    """The status `run` reaches with this report, reading the certificate's
    extension kind, completion verdict and local block in `run`'s order."""
    if report.failures:
        return RunStatus.REJECTED.value
    if not report.admissible:
        return RunStatus.UNKNOWN.value
    if _leaf(cert, "extension", "kind") == "unsupported":
        return RunStatus.EXISTENCE_ONLY.value
    if _leaf(cert, "completion_degree") == Status.UNKNOWN.value:
        return RunStatus.UNKNOWN.value
    if _leaf(cert, "bayer") == Status.UNKNOWN.value:
        return RunStatus.EXISTENCE_ONLY.value
    return RunStatus.CONSTRUCTED.value


def revalidate_certificate(cert: dict) -> list[str]:
    """Re-run every embedded verdict from the certificate's own data.

    Returns the list of discrepancies (empty means the certificate
    self-validates).  The status and an admissible report's `field` block
    must be what `run` reaches from the replayed report; only a
    `constructed` certificate carries more to replay, its real subfield
    among it: that of the field block for e = 1, else the Eisenstein
    search's.  Data outside its domain (a wrong JSON type, a zero
    denominator, an invalid place, lambda outside `signature_of`'s domain)
    is one discrepancy naming the part that cannot be replayed; the replay
    stops there."""
    problems: list[str] = []
    part = "input"
    try:
        report = check_all(WeilCandidate.from_json(json_field(cert, "input", dict)))
        part = "report"
        recorded = _leaf(cert, "report", "properties", dict)
        for name, verdict in report.to_json()["properties"].items():
            if _leaf(recorded, name) != verdict["status"]:
                problems.append(f"property {name} status changed on replay")
        part = "field"
        cm = weil_field(report.Q) if report.admissible else None
        if cm is not None and cm.to_json() != json_field(cert, "field"):
            problems.append("field data changed on replay")
        part = "status"
        status, expected = json_field(cert, "status"), _expected_status(report, cert)
        if status != expected:
            problems.append(f"status {status!r} does not replay: expected {expected!r}")
        if status != expected or status != RunStatus.CONSTRUCTED.value:
            return problems
        for key in ("completion_degree", "disc_identity"):
            if _leaf(cert, key) != Status.PASS.value:
                problems.append(f"{key} status is not pass")
        part = "lambda signature"
        lam_json = json_field(cert, "lambda", dict)
        lam = Poly.from_strs(json_field(lam_json, "coefficients", list))
        real = _leaf(cert, "extension", "real_subfield", dict)
        real_subfield = NumberField(
            Poly.from_strs(json_field(real, "defining", list)),
            json_field(real, "degree", int),
            json_field(real, "real_embeddings", int),
        )
        sig = signature_of(lam, real_subfield)
        if list(sig) != json_field(lam_json, "signature"):
            problems.append("lambda signature changed on replay")
        part = "real subfield"
        e = _leaf(cert, "extension", "e", int)
        PipelineConfig(cm.field.degree * e)  # bounds e before the search
        replayed = cm.real_subfield if e == 1 else eisenstein_real_subfield(report.candidate.p, e)[0]
        if replayed.to_json() != real:
            problems.append("real subfield changed on replay")
        part = "invariants"
        trace_inv = QFormInvariants.from_json(json_field(cert, "trace_invariants"))
        complement = json_field(cert, "complement", dict)
        comp_inv = invariants(QSpace.from_json(complement))
        if comp_inv != QFormInvariants.from_json(json_field(complement, "invariants")):
            problems.append("complement invariants changed on replay")
        part = "trace form"
        replayed = invariants(diagonalize(GramMatrix.from_json(json_field(cert, "trace_form", dict))))
        if replayed != trace_inv:
            problems.append("trace form invariants changed on replay")
        part = "identities"
        for key, block in _identity_blocks(sig, replayed, comp_inv).items():
            if block["status"] != Status.PASS.value:
                problems.append(f"{key} fails on replay")
            elif json_field(cert, key) != block:
                problems.append(f"{key} changed on replay")
    except DomainError as exc:
        problems.append(f"{part} cannot be replayed: {exc}")
    return problems
