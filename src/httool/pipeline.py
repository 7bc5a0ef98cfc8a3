"""End-to-end pipeline: candidate -> property report -> CM field -> extension
-> scalar -> trace form -> K3 complement -> certificate.

The certificate is a plain JSON document with a stable key order; telemetry
(timings, counters) lives next to it and is excluded from reproducibility
comparisons.  Mathematical failures are statuses inside the certificate,
never exceptions.
"""

from __future__ import annotations

import enum
import json
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from . import weilcheck
from ._intfactor import COUNTERS
from .cmfield import build_extension, cm_to_k3, completion_degree_check, disc_identity_check, weil_field
from .exactpoly import DomainError, Poly, json_field
from .qform import QSpace, k3_invariants, sum_invariants
from .weilcheck import PropertyVerdict, Status, WeilCandidate, check_all


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
            "schema_version": weilcheck.SCHEMA_VERSION,
            "status": self.status.value,
            "certificate": self.certificate,
            "telemetry": self.telemetry,
        }


def _verdict(holds: bool, witness: dict) -> dict:
    return PropertyVerdict(Status.PASS if holds else Status.FAIL, witness).to_json()


_UNRESOLVED = "unresolved (geometric step out of scope)"


def _certificate(
    candidate: WeilCandidate,
    target: Callable[[int], int | None],
    lam: Poly | None,
    complement: QSpace | None,
    stage: Callable[[str], object],
) -> dict:
    """The certificate of a candidate, extended to degree `target(n)`, n the
    degree of its CM field (None for its own degree), with `cm_to_k3` given
    lambda and the complement where they are not None.  `stage(name)` is
    called as each stage begins.

    Mathematical failures are statuses and failed verdicts inside the
    certificate; `run` raises on a failed verdict, `revalidate_certificate`
    reports it."""
    stage("check_all")
    report = check_all(candidate)
    cert = {"schema_version": weilcheck.SCHEMA_VERSION, "input": candidate.to_json(), "report": report.to_json()}
    if report.failures:
        cert.update(status=RunStatus.REJECTED.value, failed_properties=report.failures)
        return cert
    if not report.admissible:
        # no failure, so some verdict is Unknown (slope analysis)
        cert.update(status=RunStatus.UNKNOWN.value, reason="a property verdict is Unknown")
        return cert

    stage("weil_field")
    cm = weil_field(report.Q, candidate.chain)
    cert["field"] = cm.to_json()

    stage("build_extension")
    two_d = candidate.L.degree()
    degree = target(cm.field.degree) or two_d
    if degree < two_d or degree % cm.field.degree != 0:
        raise DomainError(
            f"extension target {degree} incompatible with degree {two_d} "
            f"and field degree {cm.field.degree}"
        )
    ext = build_extension(cm, candidate.p, degree)
    cert["extension"] = ext.to_json()
    if ext.kind == "unsupported":
        reason = ext.trace.get("reason", "construction regime unsupported")
        cert.update(status=RunStatus.EXISTENCE_ONLY.value, reason=reason, base_change_exponent=_UNRESOLVED)
        return cert

    stage("completion_degree")
    # expected completion degree scales with the extension beyond L = Q**e
    completion = completion_degree_check(ext, candidate.p, (report.h // report.e) * ext.e)
    cert["completion_degree"] = completion.to_json()
    if completion.status is Status.UNKNOWN:
        cert.update(status=RunStatus.UNKNOWN.value, reason="completion degree undecided")
        return cert

    d = degree // 2
    if d == 10:  # cm_to_k3's docstring says why no local condition is evaluated
        reason = "no scalar is constructed at d = 10 and no local condition is evaluated"
        cert["bayer"] = {"status": Status.UNKNOWN.value, "reason": reason}
        cert.update(status=RunStatus.EXISTENCE_ONLY.value, base_change_exponent=_UNRESOLVED)
        return cert

    stage("cm_to_k3")
    result = cm_to_k3(ext, lam, complement)
    # lambda has this signature: by find_lambda's construction, or, for a
    # given lambda, as signature_of reads it off the pivots of the trace
    # form's block T(2 lambda) in cm_to_k3
    sig = (1, d - 1)
    trace_inv, comp_inv = result.trace_invariants, result.complement_invariants
    cert["lambda"] = {"coefficients": result.trace.lam.to_strs(), "signature": list(sig)}
    cert["trace_form"] = result.trace.to_json()
    cert["trace_invariants"] = trace_inv.to_json()

    stage("disc_identity")
    cert["disc_identity"] = disc_identity_check(ext, trace_inv.det).to_json()
    stage("k3_sum_identity")
    # the trace form has twice the signature of lambda, and its sum with the
    # complement has the invariants of the K3 lattice
    trace_sig = list(trace_inv.signature)
    witness = {"lambda_signature": list(sig), "trace_form_signature": trace_sig}
    cert["signature_identity"] = _verdict(trace_sig == [2 * sig[0], 2 * sig[1]], witness)
    cert["complement"] = {"invariants": comp_inv.to_json(), "diagonal": result.complement.to_json()["diagonal"]}
    total, lattice = sum_invariants(trace_inv, comp_inv), k3_invariants()
    cert["k3_sum_identity"] = _verdict(total == lattice, {"sum": total.to_json(), "expected": lattice.to_json()})
    cert["bayer"] = {"status": Status.NOT_APPLICABLE.value, "reason": "d < 10"}
    cert.update(base_change_exponent=_UNRESOLVED, status=RunStatus.CONSTRUCTED.value)
    return cert


_VERDICTS = ("completion_degree", "disc_identity", "signature_identity", "k3_sum_identity")


def run(candidate: WeilCandidate, config: PipelineConfig | None = None) -> RunOutcome:
    """Execute the full construction pipeline on one candidate.

    A failed verdict in the certificate would be a fault of the program, not
    of the candidate, and raises ArithmeticError."""
    config = config or PipelineConfig()
    started = time.monotonic()
    counts_before = dict(COUNTERS)
    marks: list[tuple[str, float]] = []
    cert = _certificate(
        candidate,
        lambda _n: config.max_extension_degree,
        None,
        None,
        lambda name: marks.append((name, time.monotonic())),
    )
    ended = time.monotonic()
    failed = [key for key in _VERDICTS if key in cert and cert[key]["status"] == Status.FAIL.value]
    if failed:
        raise ArithmeticError(f"certificate verdicts failed: {failed}")
    ends = [t for _, t in marks[1:]] + [ended]
    stages = {name: round(end - t0, 6) for (name, t0), end in zip(marks, ends)}
    telemetry = {
        "stage_seconds": {**stages, "total": round(ended - started, 6)},
        "counters": {k: n - counts_before[k] for k, n in COUNTERS.items()},
    }
    return RunOutcome(RunStatus(cert["status"]), cert, telemetry)


def _differences(recorded, derived, path: str = "") -> list[str]:
    """Each key path where the recorded JSON value differs from the derived
    one.  Values are compared as JSON text, so 4.0 differs from 4 and true
    from 1; a list is one leaf."""
    if json.dumps(recorded) == json.dumps(derived):
        return []
    if not (isinstance(recorded, dict) and isinstance(derived, dict)):
        return [f"{path} changed on replay"]
    problems = []
    for key in [*derived, *(k for k in recorded if k not in derived)]:
        sub = f"{path}.{key}" if path else str(key)
        if key not in recorded:
            problems.append(f"{sub} missing from the certificate")
        elif key not in derived:
            problems.append(f"{sub} not derived on replay")
        else:
            problems += _differences(recorded[key], derived[key], sub)
    return problems or [f"key order of {path or 'the certificate'} changed on replay"]


# the recorded key that a DomainError in a derivation stage comes from
_RECORDED_KEY = {"check_all": "input", "build_extension": "extension", "cm_to_k3": "lambda"}


def revalidate_certificate(cert: dict) -> list[str]:
    """Derive the certificate again from its input with `run`'s own code and
    list every key path where the recorded one differs (empty means the
    certificate self-validates).

    The derivation takes from the certificate only its input, the relative
    degree `extension.e` (the extension degree is the derived field degree
    times e, so a tampered field degree is a difference), lambda and the
    complement diagonal; `cm_to_k3` checks lambda's signature, and the K3
    sum identity checks the complement.  A failed verdict is a difference
    like any other.  A recorded value outside the derivation's domain (a
    wrong JSON type, a zero denominator, a lambda that vanishes or has the
    wrong signature) is one discrepancy naming the key it came from."""
    stages = ["input"]
    try:
        candidate = WeilCandidate.from_json(json_field(cert, "input", dict))
        e = lam = complement = None
        if "extension" in cert:
            stages.append("extension")
            e = json_field(json_field(cert, "extension", dict), "e", int)
        if "lambda" in cert:
            stages.append("lambda")
            lam = Poly.from_strs(json_field(json_field(cert, "lambda", dict), "coefficients", list))
        if "complement" in cert:
            stages.append("complement")
            complement = QSpace.from_json(json_field(cert, "complement", dict))
        derived = _certificate(
            candidate,
            lambda n: None if e is None else PipelineConfig(n * e).max_extension_degree,
            lam,
            complement,
            stages.append,
        )
    except DomainError as exc:
        return [f"{_RECORDED_KEY.get(stages[-1], stages[-1])} cannot be replayed: {exc}"]
    return _differences(cert, derived)
