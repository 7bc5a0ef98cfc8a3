"""End-to-end pipeline runs, certificate reproducibility and self-validation."""

import json
from fractions import Fraction as F

import pytest

from httool.exactpoly import DomainError, Poly
from httool.pipeline import PipelineConfig, RunStatus, revalidate_certificate, run
from httool.weilcheck import WeilCandidate, check_all

HALF = F(1, 2)
QUARTIC = WeilCandidate(Poly([1, 0, HALF, 0, 1]), 2, 1)
QUADRATIC = WeilCandidate(Poly([1, -HALF, 1]), 2, 1)
CYCLOTOMIC = WeilCandidate(Poly([1, 1, 1]), 2, 1)


def test_run_quartic_constructed():
    outcome = run(QUARTIC)
    assert outcome.status is RunStatus.CONSTRUCTED
    cert = outcome.certificate
    assert (cert["report"]["h"], cert["report"]["d"], cert["report"]["e"]) == (2, 2, 1)
    assert cert["field"]["beta_minpoly"] == ["-3/2", "0", "1"]
    assert cert["lambda"]["signature"] == [1, 1]
    assert cert["complement"]["invariants"]["dim"] == 18
    assert cert["disc_identity"]["status"] == "pass"
    assert cert["signature_identity"]["status"] == "pass"
    assert cert["k3_sum_identity"]["status"] == "pass"
    assert cert["completion_degree"]["status"] == "pass"
    assert cert["bayer"]["status"] == "not_applicable"
    assert "unresolved" in cert["base_change_exponent"]


def test_run_rejected():
    outcome = run(CYCLOTOMIC)
    assert outcome.status is RunStatus.REJECTED
    assert "no_root_of_unity" in outcome.certificate["failed_properties"]
    assert "newton_shape" in outcome.certificate["failed_properties"]


@pytest.mark.parametrize(
    "candidate, failed",
    [
        # irreducible with the real roots (7 +- sqrt 33) / 4
        (WeilCandidate(Poly([1, F(-7, 2), 1]), 2, 1), ["unit_circle"]),
        # (1 - T/2 + T^2)(1 + T/2 + T^2): roots on the unit circle, none a
        # root of unity, but Q is reducible
        (WeilCandidate(Poly([1, 0, F(7, 4), 0, 1]), 2, 2), ["power_structure"]),
    ],
)
def test_run_rejects_before_the_cm_field(candidate, failed):
    # weil_field checks no CM axiom; check_all rejects real roots and a
    # reducible Q, so the run ends before the field is built
    outcome = run(candidate)
    assert outcome.status is RunStatus.REJECTED
    assert outcome.certificate["failed_properties"] == failed
    assert "field" not in outcome.certificate
    assert revalidate_certificate(outcome.certificate) == []


def test_run_forced_extension():
    outcome = run(QUADRATIC, PipelineConfig(max_extension_degree=4))
    assert outcome.status is RunStatus.CONSTRUCTED
    cert = outcome.certificate
    assert cert["extension"]["kind"] == "eisenstein_compositum"
    assert cert["extension"]["e"] == 2
    assert cert["completion_degree"]["witness"]["expected"] == 2
    assert cert["lambda"]["signature"] == [1, 1]
    assert cert["k3_sum_identity"]["status"] == "pass"


def test_run_default_extension_is_trivial():
    outcome = run(QUADRATIC)
    assert outcome.status is RunStatus.CONSTRUCTED
    assert outcome.certificate["extension"]["kind"] == "trivial"


def test_run_existence_only_when_regime_unsupported():
    outcome = run(QUARTIC, PipelineConfig(max_extension_degree=8))
    assert outcome.status is RunStatus.EXISTENCE_ONLY
    assert outcome.certificate["extension"]["kind"] == "unsupported"
    assert "unresolved" in outcome.certificate["base_change_exponent"]


def test_run_existence_only_at_d10():
    # no scalar and no local condition at d = 10: the block claims nothing
    outcome = run(QUADRATIC, PipelineConfig(max_extension_degree=20))
    assert outcome.status is RunStatus.EXISTENCE_ONLY
    cert = outcome.certificate
    assert list(cert["bayer"]) == ["status", "reason"]
    assert cert["bayer"]["status"] == "unknown"
    assert "pass" not in json.dumps(cert["bayer"])
    assert list(cert)[-3:] == ["bayer", "status", "base_change_exponent"]
    assert revalidate_certificate(cert) == []


def test_run_power_candidate_extends_through_eisenstein():
    # L = Q**2 at a = 2: the degree-2 field must be extended to degree 4 and
    # the expected completion degree follows h * e_ext / e
    candidate = WeilCandidate(Poly([1, -HALF, 1]) ** 2, 2, 2)
    outcome = run(candidate)
    assert outcome.status is RunStatus.CONSTRUCTED
    cert = outcome.certificate
    assert cert["report"]["e"] == 2
    assert cert["extension"]["kind"] == "eisenstein_compositum"
    assert cert["completion_degree"]["witness"]["expected"] == 2
    assert cert["k3_sum_identity"]["status"] == "pass"


def test_run_degree_14_compositum_constructs_and_revalidates():
    # its 173-digit discriminant is never factored: the disc identity is a
    # perfect-square test
    outcome = run(QUADRATIC, PipelineConfig(max_extension_degree=14))
    assert outcome.status is RunStatus.CONSTRUCTED
    cert = outcome.certificate
    assert cert["extension"]["trace"]["primitive_shift"] == 1
    assert cert["disc_identity"]["status"] == "pass"
    assert revalidate_certificate(cert) == []


def test_run_odd_extension_degree():
    outcome = run(QUADRATIC, PipelineConfig(max_extension_degree=6))
    assert outcome.status is RunStatus.CONSTRUCTED
    assert outcome.certificate["lambda"]["signature"] == [1, 2]
    assert outcome.certificate["k3_sum_identity"]["status"] == "pass"


def test_config_validation():
    with pytest.raises(DomainError):
        PipelineConfig(max_extension_degree=22)
    with pytest.raises(DomainError):
        PipelineConfig(max_extension_degree=3)


def test_certificates_are_byte_identical_without_telemetry():
    first = run(QUARTIC).certificate
    second = run(QUARTIC).certificate
    assert json.dumps(first, sort_keys=False) == json.dumps(second, sort_keys=False)


def test_certificate_self_validates():
    outcome = run(QUARTIC)
    assert revalidate_certificate(outcome.certificate) == []
    outcome2 = run(QUADRATIC)
    assert revalidate_certificate(outcome2.certificate) == []
    outcome3 = run(QUADRATIC, PipelineConfig(max_extension_degree=4))
    assert revalidate_certificate(outcome3.certificate) == []


def test_rejected_certificate_replays():
    outcome = run(CYCLOTOMIC)
    assert revalidate_certificate(outcome.certificate) == []
    replay = check_all(WeilCandidate.from_json(outcome.certificate["input"]))
    for name in outcome.certificate["failed_properties"]:
        assert name in replay.failures


def test_tampered_certificate_is_detected():
    outcome = run(QUARTIC)
    cert = json.loads(json.dumps(outcome.certificate))
    cert["complement"]["diagonal"][0] = "7"
    assert revalidate_certificate(cert) != []


def _tampered(cert: dict, path: tuple, value) -> dict:
    cert = json.loads(json.dumps(cert))
    target = cert
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return cert


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (("status",), "unknown", "status 'unknown' does not replay: expected 'constructed'"),
        (
            ("status",),
            "existence_only",
            "status 'existence_only' does not replay: expected 'constructed'",
        ),
        (("disc_identity", "status"), "fail", "disc_identity status is not pass"),
        (("completion_degree", "status"), "fail", "completion_degree status is not pass"),
        (("k3_sum_identity",), 5, "k3_sum_identity changed on replay"),
        (
            ("signature_identity", "witness", "lambda_signature"),
            [2, 0],
            "signature_identity changed on replay",
        ),
        (
            ("bayer", "status"),
            "unknown",
            "status 'constructed' does not replay: expected 'existence_only'",
        ),
        # x**2 - 3 keeps lambda = x at signature (1, 1)
        (("extension", "real_subfield", "defining"), ["-3", "0", "1"], "real subfield changed on replay"),
    ],
)
def test_tampered_verdict_is_detected(path, value, problem):
    # each of these once revalidated to []
    cert = run(QUARTIC).certificate
    assert revalidate_certificate(_tampered(cert, path, value)) == [problem]


@pytest.mark.parametrize(
    "candidate, degree, path, value, problem",
    [
        (
            QUADRATIC,
            20,
            ("status",),
            "constructed",
            "status 'constructed' does not replay: expected 'existence_only'",
        ),
        (
            QUADRATIC,
            20,
            ("bayer", "status"),
            "not_applicable",
            "status 'existence_only' does not replay: expected 'constructed'",
        ),
        (CYCLOTOMIC, None, ("status",), "unknown", "status 'unknown' does not replay: expected 'rejected'"),
        # the field block of an existence_only certificate; once revalidated to []
        (QUADRATIC, 20, ("field", "beta_minpoly"), ["7", "1"], "field data changed on replay"),
        # a compositum's real subfield is the Eisenstein search's; once revalidated to []
        (
            QUADRATIC,
            8,
            ("extension", "real_subfield", "defining"),
            ["388", "-400", "140", "-20", "1"],
            "real subfield changed on replay",
        ),
    ],
)
def test_tampered_status_of_other_outcomes_is_detected(candidate, degree, path, value, problem):
    cert = run(candidate, PipelineConfig(max_extension_degree=degree)).certificate
    assert revalidate_certificate(_tampered(cert, path, value)) == [problem]


def test_tampered_lambda_signature_is_detected_for_compositum():
    outcome = run(QUADRATIC, PipelineConfig(max_extension_degree=4))
    cert = json.loads(json.dumps(outcome.certificate))
    assert cert["extension"]["kind"] == "eisenstein_compositum"
    assert revalidate_certificate(cert) == []
    cert["lambda"]["signature"] = [2, 0]
    assert "lambda signature changed on replay" in revalidate_certificate(cert)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (
            ("extension", "real_subfield", "real_embeddings"),
            1,
            "signatures require a totally real field",
        ),
        (("lambda", "coefficients"), ["0"], "lambda vanishes"),
        # no real root: signature_of once counted over an empty isolation
        (
            ("extension", "real_subfield", "defining"),
            ["1", "0", "1"],
            "the field is not totally real of degree 2: 0 real roots",
        ),
    ],
)
def test_unreplayable_lambda_is_reported(path, value, message):
    # a tamper that takes lambda out of signature_of's domain is reported as
    # one discrepancy, not raised
    cert = json.loads(json.dumps(run(QUARTIC).certificate))
    target = cert
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert revalidate_certificate(cert) == [f"lambda signature cannot be replayed: {message}"]


def test_lambda_vanishing_at_a_real_embedding_is_reported():
    # the real subfield (x - 1)(x - 2) with lambda = x - 1: signature_of once
    # halved the interval around the root 1 forever
    cert = _tampered(run(QUARTIC).certificate, ("extension", "real_subfield", "defining"), ["2", "-3", "1"])
    cert = _tampered(cert, ("lambda", "coefficients"), ["-1", "1"])
    assert revalidate_certificate(cert) == [
        "lambda signature cannot be replayed: lambda vanishes at a real embedding"
    ]


@pytest.mark.parametrize(
    "path, value, part",
    [
        (("trace_invariants", "hasse"), ["4", "inf"], "invariants"),
        (("trace_invariants", "dim"), 4.0, "invariants"),
        (("trace_invariants", "det"), True, "invariants"),
        (("input", "p"), 2.0, "input"),
        (("complement", "diagonal"), [True] * 18, "invariants"),
        (("trace_form", "gram"), [["1/0", "3", "0", "-9/2"]] + [["0"] * 4] * 3, "trace form"),
        (("input", "L"), ["1", "0", "1/0", "0", "1"], "input"),
        # an extension degree of 44 would start the Eisenstein search there
        (("extension", "e"), 11, "real subfield"),
    ],
)
def test_out_of_domain_certificate_data_is_reported(path, value, part):
    # each of these once raised DomainError out of the verifier
    cert = json.loads(json.dumps(run(QUARTIC).certificate))
    target = cert
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    problems = revalidate_certificate(cert)
    assert len(problems) == 1 and problems[0].startswith(f"{part} cannot be replayed: ")


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (("trace_form", "gram"), 5, "trace form cannot be replayed: 'gram' must be a list, got int"),
        (("lambda",), None, "lambda signature cannot be replayed: missing key 'lambda'"),
        (("complement",), "x", "invariants cannot be replayed: 'complement' must be a dict, got str"),
        (("report",), None, "report cannot be replayed: missing key 'report'"),
        (("input",), [], "input cannot be replayed: 'input' must be a dict, got list"),
        (("input", "L"), 5, "input cannot be replayed: 'L' must be a list, got int"),
    ],
)
def test_malformed_certificate_structure_is_reported(path, value, problem):
    # each of these once raised TypeError or KeyError out of the verifier;
    # a value of None deletes the key
    cert = json.loads(json.dumps(run(QUADRATIC).certificate))
    target = cert
    for key in path[:-1]:
        target = target[key]
    if value is None:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    assert revalidate_certificate(cert) == [problem]


def test_telemetry_present_but_separate():
    outcome = run(QUARTIC)
    assert outcome.status is RunStatus.CONSTRUCTED
    stages = outcome.telemetry["stage_seconds"]
    assert {"total", "k3_sum_identity"} <= stages.keys()
    counters = outcome.telemetry["counters"]
    assert counters["factor_with_unit_calls"] > 0
    # check_all factors L through its transform H = x**2 - 3/2, a quadratic
    # decided by its discriminant: nothing is Hensel lifted (L itself has
    # Galois group C2 x C2, reducible mod every prime, so factoring it
    # directly lifts once)
    assert counters["hensel_lifts"] == 0
    assert counters["sturm_chain_builds"] > 0
    assert counters["pollard_rho_splits"] >= 0
    assert "telemetry" not in outcome.certificate
    certificate_text = json.dumps(outcome.certificate)
    assert "stage_seconds" not in certificate_text
    assert "counters" not in certificate_text and "sturm_chain_builds" not in certificate_text
    assert "pollard_rho_splits" not in certificate_text and "hensel_lifts" not in certificate_text
