"""End-to-end pipeline runs, certificate reproducibility and self-validation."""

import collections
import hashlib
import json
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest

from httool.exactpoly import DomainError, Poly, SturmChain
from httool.pipeline import PipelineConfig, RunStatus, revalidate_certificate, run
from httool.weilcheck import WeilCandidate, check_all

HALF = F(1, 2)
QUARTIC = WeilCandidate(Poly([1, 0, HALF, 0, 1]), 2, 1)
QUADRATIC = WeilCandidate(Poly([1, -HALF, 1]), 2, 1)
CYCLOTOMIC = WeilCandidate(Poly([1, 1, 1]), 2, 1)
# L = Q**2 for Q = 1 - T/2 + T**2 at q = 4: degree 4 over a quadratic CM field
SQUARE = WeilCandidate(Poly([1, -1, F(9, 4), -1, 1]), 2, 2)


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
    assert cert["lambda"]["coefficients"] == ["-13", "1"]
    assert revalidate_certificate(cert) == []


@pytest.mark.parametrize("degree, m", [(16, 15), (18, 17)])
def test_run_degree_16_and_18_composita_construct_and_revalidate(degree, m):
    # lambda = x - m, the simplest rational between the two largest roots;
    # the midpoint of their isolating intervals, x - 126240777/8388608 at
    # degree 16, gave trace-form pivots that Pollard rho did not factor
    # within a minute
    outcome = run(QUADRATIC, PipelineConfig(max_extension_degree=degree))
    assert outcome.status is RunStatus.CONSTRUCTED
    cert = outcome.certificate
    assert cert["lambda"]["coefficients"] == [str(-m), "1"]
    assert revalidate_certificate(cert) == []


def test_run_odd_extension_degree():
    outcome = run(QUADRATIC, PipelineConfig(max_extension_degree=6))
    assert outcome.status is RunStatus.CONSTRUCTED
    assert outcome.certificate["lambda"]["signature"] == [1, 2]
    assert outcome.certificate["k3_sum_identity"]["status"] == "pass"


def test_extension_target_below_2d_cannot_be_replayed():
    # e = 1 over the quadratic field of L = Q**2 asks for degree 2 < 4
    cert = run(SQUARE).certificate
    assert cert["extension"]["e"] == 2 and revalidate_certificate(cert) == []
    cert["extension"]["e"] = 1
    assert revalidate_certificate(cert) == [
        "extension cannot be replayed: extension target 2 incompatible with degree 4 and field degree 2"
    ]


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
    """A copy of cert with the value at path replaced; None deletes it."""
    cert = json.loads(json.dumps(cert))
    target = cert
    for key in path[:-1]:
        target = target[key]
    if value is None:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return cert


@pytest.mark.parametrize(
    "candidate, degree, path, value, problems",
    [
        pytest.param(QUARTIC, None, *case, id=name)
        for name, *case in [
            ("gram entry", ("trace_form", "gram", 0, 0), "5", ["trace_form.gram changed on replay"]),
            (
                "lambda x - 1",
                ("lambda", "coefficients"),
                ["-1", "1"],
                [
                    "trace_form.gram changed on replay",
                    "trace_form.lambda changed on replay",
                    "trace_invariants.hasse changed on replay",
                    "k3_sum_identity.status changed on replay",
                    "k3_sum_identity.witness.sum.hasse changed on replay",
                ],
            ),
            ("lambda signature", ("lambda", "signature"), [2, 0], ["lambda.signature changed on replay"]),
            (
                "quartic absolute",
                ("extension", "absolute"),
                ["1", "0", "3", "0", "1"],
                ["extension.absolute changed on replay"],
            ),
            (
                "complement entry",
                ("complement", "diagonal", 0),
                "7",
                [
                    "complement.invariants.det changed on replay",
                    "complement.invariants.hasse changed on replay",
                    "k3_sum_identity.status changed on replay",
                    "k3_sum_identity.witness.sum.det changed on replay",
                    "k3_sum_identity.witness.sum.hasse changed on replay",
                ],
            ),
            (
                "completion expected",
                ("completion_degree", "witness", "expected"),
                4,
                ["completion_degree.witness.expected changed on replay"],
            ),
            ("report h", ("report", "h"), 4, ["report.h changed on replay"]),
            ("report Q", ("report", "Q"), ["1", "1"], ["report.Q changed on replay"]),
            ("report admissible", ("report", "admissible"), False, ["report.admissible changed on replay"]),
            ("bayer pass", ("bayer", "status"), "pass", ["bayer.status changed on replay"]),
            ("base change", ("base_change_exponent",), "1", ["base_change_exponent changed on replay"]),
            ("status", ("status",), "rejected", ["status changed on replay"]),
            ("dim 4.0", ("trace_invariants", "dim"), 4.0, ["trace_invariants.dim changed on replay"]),
            ("extra key", ("note",), "x", ["note not derived on replay"]),
            # the extension degree is the derived field degree times e
            ("field degree", ("field", "field", "degree"), 6, ["field.field.degree changed on replay"]),
        ]
    ]
    + [
        pytest.param(QUADRATIC, 8, *case, id=name)
        for name, *case in [
            ("relative", ("extension", "relative"), ["1", "1"], ["extension.relative changed on replay"]),
            ("absolute", ("extension", "absolute"), ["1", "1"], ["extension.absolute changed on replay"]),
            ("trace M", ("extension", "trace", "M"), 5, ["extension.trace.M changed on replay"]),
            (
                "defining disc",
                ("disc_identity", "witness", "defining_disc"),
                "7",
                ["disc_identity.witness.defining_disc changed on replay"],
            ),
        ]
    ],
)
def test_tamper_table(candidate, degree, path, value, problems):
    # every leaf class of a constructed certificate is derived again, and
    # compared as JSON text: 4.0 is not 4
    cert = run(candidate, PipelineConfig(max_extension_degree=degree)).certificate
    assert revalidate_certificate(cert) == []
    assert revalidate_certificate(_tampered(cert, path, value)) == problems


def test_reordered_keys_are_detected():
    cert = run(QUARTIC).certificate
    assert revalidate_certificate(dict(reversed(cert.items()))) == ["key order of the certificate changed on replay"]


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (("status",), "unknown", "status changed on replay"),
        (("status",), "existence_only", "status changed on replay"),
        (("disc_identity", "status"), "fail", "disc_identity.status changed on replay"),
        (("completion_degree", "status"), "fail", "completion_degree.status changed on replay"),
        (("k3_sum_identity",), 5, "k3_sum_identity changed on replay"),
        (
            ("signature_identity", "witness", "lambda_signature"),
            [2, 0],
            "signature_identity.witness.lambda_signature changed on replay",
        ),
        (("bayer", "status"), "unknown", "bayer.status changed on replay"),
        # x**2 - 3 keeps lambda = x at signature (1, 1)
        (
            ("extension", "real_subfield", "defining"),
            ["-3", "0", "1"],
            "extension.real_subfield.defining changed on replay",
        ),
    ],
)
def test_tampered_verdict_is_detected(path, value, problem):
    # each of these once revalidated to []
    cert = run(QUARTIC).certificate
    assert revalidate_certificate(_tampered(cert, path, value)) == [problem]


@pytest.mark.parametrize(
    "candidate, degree, path, value, problem",
    [
        (QUADRATIC, 20, ("status",), "constructed", "status changed on replay"),
        (QUADRATIC, 20, ("bayer", "status"), "not_applicable", "bayer.status changed on replay"),
        (CYCLOTOMIC, None, ("status",), "unknown", "status changed on replay"),
        # the field block of an existence_only certificate; once revalidated to []
        (QUADRATIC, 20, ("field", "beta_minpoly"), ["7", "1"], "field.beta_minpoly changed on replay"),
        # a compositum's real subfield is the Eisenstein search's; once revalidated to []
        (
            QUADRATIC,
            8,
            ("extension", "real_subfield", "defining"),
            ["388", "-400", "140", "-20", "1"],
            "extension.real_subfield.defining changed on replay",
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
    assert revalidate_certificate(cert) == ["lambda.signature changed on replay"]


@pytest.mark.parametrize(
    "path, value, problem",
    [
        # the real subfield is derived, not read: a tampered one is a
        # difference, and lambda is checked in the derived field
        (
            ("extension", "real_subfield", "real_embeddings"),
            1,
            "extension.real_subfield.real_embeddings changed on replay",
        ),
        (("lambda", "coefficients"), ["0"], "lambda cannot be replayed: lambda vanishes"),
        (
            ("extension", "real_subfield", "defining"),
            ["1", "0", "1"],
            "extension.real_subfield.defining changed on replay",
        ),
        (
            ("lambda", "coefficients"),
            ["1"],
            "lambda cannot be replayed: lambda has signature (2, 0), not (1, 1)",
        ),
    ],
    ids=[
        "path0-1-real_embeddings changed on replay",
        "path1-value1-lambda vanishes",
        "path2-value2-defining changed on replay",
        "lambda of the wrong signature",
    ],
)
def test_unreplayable_lambda_is_reported(path, value, problem):
    # a tamper that takes lambda out of signature_of's domain is reported as
    # one discrepancy, not raised
    cert = _tampered(run(QUARTIC).certificate, path, value)
    assert revalidate_certificate(cert) == [problem]


def test_lambda_vanishing_at_a_real_embedding_is_reported():
    # the real subfield (x - 1)(x - 2) with lambda = x - 1: signature_of once
    # halved the interval around the root 1 forever.  The real subfield is
    # derived now, where x - 1 has signature (1, 1), so the tampered
    # subfield and everything that lambda changes are reported
    cert = _tampered(run(QUARTIC).certificate, ("extension", "real_subfield", "defining"), ["2", "-3", "1"])
    cert = _tampered(cert, ("lambda", "coefficients"), ["-1", "1"])
    assert revalidate_certificate(cert) == [
        "extension.real_subfield.defining changed on replay",
        "trace_form.gram changed on replay",
        "trace_form.lambda changed on replay",
        "trace_invariants.hasse changed on replay",
        "k3_sum_identity.status changed on replay",
        "k3_sum_identity.witness.sum.hasse changed on replay",
    ]


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (("trace_invariants", "hasse"), ["4", "inf"], "trace_invariants.hasse changed on replay"),
        (("trace_invariants", "dim"), 4.0, "trace_invariants.dim changed on replay"),
        (("trace_invariants", "det"), True, "trace_invariants.det changed on replay"),
        (("input", "p"), 2.0, "input cannot be replayed: p must be an integer, got 2.0"),
        (
            ("complement", "diagonal"),
            [True] * 18,
            "complement cannot be replayed: expected a rational string, got True",
        ),
        (
            ("trace_form", "gram"),
            [["1/0", "3", "0", "-9/2"]] + [["0"] * 4] * 3,
            "trace_form.gram changed on replay",
        ),
        (
            ("input", "L"),
            ["1", "0", "1/0", "0", "1"],
            "input cannot be replayed: invalid rational '1/0': Fraction(1, 0)",
        ),
        # an extension degree of 44 would start the Eisenstein search there
        (
            ("extension", "e"),
            11,
            "extension cannot be replayed: extension degree beyond 20 is outside desk limits",
        ),
    ],
    ids=[
        "path0-value0-invariants",
        "path1-4.0-invariants",
        "path2-True-invariants",
        "path3-2.0-input",
        "path4-value4-invariants",
        "path5-value5-trace form",
        "path6-value6-input",
        "path7-11-real subfield",
    ],
)
def test_out_of_domain_certificate_data_is_reported(path, value, problem):
    # each of these once raised DomainError out of the verifier
    assert revalidate_certificate(_tampered(run(QUARTIC).certificate, path, value)) == [problem]


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (("trace_form", "gram"), 5, "trace_form.gram changed on replay"),
        (("lambda",), None, "lambda missing from the certificate"),
        (("complement",), "x", "complement cannot be replayed: 'complement' must be a dict, got str"),
        (("report",), None, "report missing from the certificate"),
        (("input",), [], "input cannot be replayed: 'input' must be a dict, got list"),
        (("input", "L"), 5, "input cannot be replayed: 'L' must be a list, got int"),
    ],
    ids=[
        "path0-5-trace_form.gram changed on replay",
        "path1-None-lambda missing from the certificate",
        "path2-x-complement cannot be replayed: 'complement' must be a dict, got str",
        "path3-None-report missing from the certificate",
        "path4-value4-input cannot be replayed: 'input' must be a dict, got list",
        "path5-5-input cannot be replayed: 'L' must be a list, got int",
    ],
)
def test_malformed_certificate_structure_is_reported(path, value, problem):
    # each of these once raised TypeError or KeyError out of the verifier;
    # a value of None deletes the key
    assert revalidate_certificate(_tampered(run(QUADRATIC).certificate, path, value)) == [problem]


def test_telemetry_present_but_separate():
    # a fresh candidate: QUARTIC keeps the Sturm chain an earlier run built
    outcome = run(WeilCandidate(QUARTIC.L, QUARTIC.p, QUARTIC.a))
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
    # one chain, on H: weil_field hands it to the real subfield Q(sqrt 6),
    # where find_lambda reads it
    assert counters["sturm_chain_builds"] == 1
    assert counters["pollard_rho_splits"] >= 0
    assert "telemetry" not in outcome.certificate
    certificate_text = json.dumps(outcome.certificate)
    assert "stage_seconds" not in certificate_text
    assert "counters" not in certificate_text and "sturm_chain_builds" not in certificate_text
    assert "pollard_rho_splits" not in certificate_text and "hensel_lifts" not in certificate_text


# ---------------------------------------------------------------------------
# the pool certificates, pinned by one digest

ROOT = pathlib.Path(__file__).resolve().parent.parent
POOL_DIGEST = ROOT / "docs" / "golden" / "pool_certificates.json"


def pool_runs():
    """(candidate, extension degree) for every pool run: the pools of
    `perfbench/pools.json` sorted by (p, a, 2d), their members in order,
    each at its own degree and, for 2d = 2, also at 8, 10 and 12."""
    pools = json.loads((ROOT / "perfbench" / "pools.json").read_text())["pools"]
    for pool in sorted(pools, key=lambda e: (e["p"], e["a"], e["degree"])):
        for member in pool["members"]:
            candidate = WeilCandidate(Poly.from_strs(member), pool["p"], pool["a"])
            for degree in (None, 8, 10, 12) if pool["degree"] == 2 else (None,):
                yield candidate, degree


def pool_digest() -> dict:
    """One SHA-256 over the certificate, status and revalidation of every
    pool run, each as sorted-key JSON, and a second over the same records
    with `trace_form.gram` removed: the Gram depends on the basis of E, and
    everything else in a certificate on the field and lambda alone."""
    digest, without_gram, runs = hashlib.sha256(), hashlib.sha256(), 0
    for candidate, degree in pool_runs():
        outcome = run(candidate, PipelineConfig(degree))
        record = {"c": outcome.certificate, "s": outcome.status.value, "r": revalidate_certificate(outcome.certificate)}
        digest.update(json.dumps(record, sort_keys=True).encode())
        record = json.loads(json.dumps(record))
        record["c"].get("trace_form", {}).pop("gram", None)
        without_gram.update(json.dumps(record, sort_keys=True).encode())
        runs += 1
    return {"runs": runs, "sha256": digest.hexdigest(), "sha256_without_gram": without_gram.hexdigest()}


def test_pool_certificates_match_the_golden_digest():
    # regenerate on purpose only: PYTHONPATH=src:. python -c "import json, tests.test_pipeline as t; print(json.dumps(t.pool_digest()))"
    digest, golden = pool_digest(), json.loads(POOL_DIGEST.read_text())
    # a change of basis may move the Gram; nothing else may move with it
    assert digest["sha256_without_gram"] == golden["sha256_without_gram"]
    assert digest == golden


@pytest.mark.parametrize("path", sorted((ROOT / "docs" / "golden").glob("certificate_*.json")), ids=lambda path: path.stem)
def test_golden_certificate_revalidates(path):
    # each golden certificate derives again to itself, and a copy with
    # extension.absolute changed names that key alone
    cert = json.loads(path.read_text())["certificate"]
    assert revalidate_certificate(cert) == []
    cert["extension"]["absolute"] = ["1", "1"]
    assert revalidate_certificate(cert) == ["extension.absolute changed on replay"]


def test_each_derivation_builds_one_sturm_chain_per_polynomial(monkeypatch):
    # every pool run and the [1, -1/2, 1] ladder at 8..18, each on a fresh
    # candidate: a run, then its revalidation, builds the chain of a
    # polynomial at most once.  The real subfield takes check_all's chain on
    # H, and signature_of counts nothing, so a run at its own degree builds
    # one chain and its revalidation no other.  The one exception is a
    # compositum's Eisenstein P in a run: the search counts its real roots,
    # and find_lambda builds its chain again
    built = []
    build = SturmChain.__init__

    def recording_build(self, f):
        build(self, f)
        built.append(self.squarefree)

    monkeypatch.setattr(SturmChain, "__init__", recording_build)
    runs = [*pool_runs(), *((QUADRATIC, degree) for degree in range(8, 20, 2))]
    for candidate, degree in runs:
        built.clear()
        outcome = run(WeilCandidate(candidate.L, candidate.p, candidate.a), PipelineConfig(degree))
        in_run = collections.Counter(built)
        extension = outcome.certificate["extension"]
        eisenstein = extension["relative"] and Poly.from_strs(extension["relative"])
        assert all(n == 1 or (n == 2 and f == eisenstein) for f, n in in_run.items()), (candidate.L, degree)
        built.clear()
        assert revalidate_certificate(outcome.certificate) == []
        assert len(built) == len(set(built)) and set(built) <= set(in_run), (candidate.L, degree)
        if degree is None:
            assert len(in_run) == 1 and len(built) == 1, candidate.L
    assert len(runs) == 502 + 6


@pytest.mark.parametrize("candidate, degree", [(QUARTIC, None), (QUADRATIC, 8)], ids=["quartic", "extend8"])
@pytest.mark.parametrize("tamper", ["asymmetric", "unreduced", "off-block"])
def test_tampered_gram_entry_is_one_discrepancy(candidate, degree, tamper):
    # the recorded Gram is compared as text with the derived one, never
    # parsed: an off-diagonal entry changed on one side of the diagonal, an
    # entry written unreduced (as "4/2" for 2), or an entry of the zero
    # block between T(2 lambda) and T(-2 lambda delta) set to 1, is one
    # discrepancy
    cert = run(candidate, PipelineConfig(degree)).certificate
    gram = cert["trace_form"]["gram"]
    x = F(gram[0][1])
    column, value = {
        "asymmetric": (1, str(x + 1)),
        "unreduced": (1, f"{2 * x.numerator}/{2 * x.denominator}"),
        "off-block": (len(gram) // 2, "1"),
    }[tamper]
    assert gram[0][len(gram) // 2] == "0"
    assert revalidate_certificate(_tampered(cert, ("trace_form", "gram", 0, column), value)) == [
        "trace_form.gram changed on replay"
    ]


def test_degree_18_certificate_revalidates_in_a_fresh_process(tmp_path):
    # the run leaves its factorizations in the process's factor cache; each
    # revalidation runs in a new interpreter without them, as a user's would
    cert = run(QUADRATIC, PipelineConfig(18)).certificate
    assert cert["status"] == "constructed"
    tampered = _tampered(cert, ("complement", "diagonal", 0), "3")  # was "1"
    script = "import json, sys; from httool.pipeline import revalidate_certificate as r; print(json.dumps(r(json.load(open(sys.argv[1])))))"
    found = []
    for name, certificate in (("cert.json", cert), ("tampered.json", tampered)):
        (tmp_path / name).write_text(json.dumps(certificate))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / name)], capture_output=True, text=True, check=True)
        found.append(json.loads(proc.stdout))
    assert found[0] == []
    assert found[1] == [
        "complement.invariants.det changed on replay",
        "complement.invariants.hasse changed on replay",
        "k3_sum_identity.status changed on replay",
        "k3_sum_identity.witness.sum.det changed on replay",
        "k3_sum_identity.witness.sum.hasse changed on replay",
    ]
