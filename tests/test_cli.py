"""CLI surface: subcommands, exit codes, deterministic JSON, golden files."""

import io
import json
import pathlib
import shlex
import subprocess
import sys

import pytest

from httool import _intfactor, cli, weilcheck

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "docs" / "golden"


def run_cli(args, stdin: str | None = None):
    proc = subprocess.run(
        [sys.executable, "-m", "httool.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc


QUARTIC_JSON = '{"L": ["1", "0", "1/2", "0", "1"], "p": 2, "a": 1}'
CYCLOTOMIC_JSON = '{"L": ["1", "1", "1"], "p": 2, "a": 1}'
QUADRATIC_JSON = '{"L": ["1", "-1/2", "1"], "p": 2, "a": 1}'


def test_check_pass_exit_zero():
    proc = run_cli(["check"], QUARTIC_JSON)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["admissible"] is True
    assert report["h"] == 2


def test_check_fail_exit_one():
    proc = run_cli(["check"], CYCLOTOMIC_JSON)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["admissible"] is False


def test_internal_error_exit_four_without_traceback(monkeypatch, tmp_path, capsys):
    def broken(_candidate):
        raise ArithmeticError("factorization reconstruction failed")

    monkeypatch.setattr(weilcheck, "check_all", broken)
    source = tmp_path / "candidate.json"
    source.write_text(QUARTIC_JSON)
    assert cli.main(["check", "--input", str(source)]) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "httool: internal error: ArithmeticError: factorization reconstruction failed\n"
    )


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_exit_three(where, tmp_path, capsys):
    # the verdict was reached, but the file cannot be opened: an input
    # error, not a fault in httool
    source = tmp_path / "candidate.json"
    source.write_text(QUARTIC_JSON)
    output = tmp_path / "absent" / "report.json" if where == "missing directory" else tmp_path
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--input", str(source), "--output", str(output)])
    assert exc.value.code == cli.EXIT_USAGE == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("httool: cannot write output: ") and captured.err.count("\n") == 1


def test_malformed_json_exit_three_with_position():
    proc = run_cli(["check"], '{"L": [1,')
    assert proc.returncode == 3
    assert "line" in proc.stderr and "column" in proc.stderr


def test_usage_error_exit_three():
    proc = run_cli(["enumerate", "--q", "2"])
    assert proc.returncode == 3


def test_unknown_subcommand_exit_three():
    proc = run_cli(["frobnicate"])
    assert proc.returncode == 3


def test_enumerate_desk_bound_respected():
    proc = run_cli(["enumerate", "--q", "2", "--degree", "20"])
    assert proc.returncode == 3


@pytest.mark.parametrize(
    "args, message",
    [
        (["extend", "--n", "0"], "extension degree must be positive"),
        (["construct", "--max-extension-degree", "3"], "extension degree must be even and >= 2"),
        (["enumerate", "--q", "2", "--degree", "20"], "degree 20 exceeds the desk bound 8"),
        (["enumerate", "--q", "6", "--degree", "2"], "6 is not a prime power"),
        (["enumerate", "--q", "0", "--degree", "2"], "0 is not a prime power"),
        (["enumerate", "--q", "-4", "--degree", "2"], "-4 is not a prime power"),
        # the quartic's field has degree 4, which 6 is no multiple of
        (["construct", "--max-extension-degree", "6"], "extension target 6 incompatible with degree 4 and field degree 4"),
    ],
)
def test_domain_error_exit_three_with_one_line(args, message, tmp_path, capsys):
    source = tmp_path / "candidate.json"
    source.write_text(QUARTIC_JSON)
    if args[0] != "enumerate":
        args = [*args, "--input", str(source)]
    assert cli.main(args) == cli.EXIT_USAGE == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"httool: {message}\n"


def test_enumerate_refuses_a_composite_q_without_factoring_it(monkeypatch, capsys):
    # the product of the primes 10000000000000012363 and 30000000000000000797
    # once kept enumerate in Pollard rho for over 30 s
    def no_rho(n):
        raise AssertionError("q was factored")

    monkeypatch.setattr(_intfactor, "_pollard_rho", no_rho)
    q = "300000000000000378860000000000009853311"
    assert cli.main(["enumerate", "--q", q, "--degree", "2"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"httool: {q} is not a prime power\n"


@pytest.mark.parametrize("place", ["1", "4"])
def test_qform_construct_rejects_invalid_hasse_place(place, tmp_path, capsys):
    # a binary admissibility test at place 1 once looped forever, and place 4
    # was reported as inadmissible
    source = tmp_path / "invariants.json"
    source.write_text(json.dumps({"dim": 2, "signature": [1, 1], "det": "-2", "hasse": [place, "3"]}))
    assert cli.main(["qform", "construct", "--input", str(source)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"httool: {place} is not a valid place\n"


@pytest.mark.parametrize("hasse", [[2, "2"], ["inf", "3", "inf"]])
def test_qform_construct_rejects_a_repeated_hasse_place(hasse, tmp_path, capsys):
    # the Hasse set names each place once: a repeat was once merged, which
    # changed the set's parity and answered "not admissible"
    source = tmp_path / "invariants.json"
    source.write_text(json.dumps({"dim": 3, "signature": [3, 0], "det": "1", "hasse": hasse}))
    assert cli.main(["qform", "construct", "--input", str(source)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("httool: ") and "repeats" in captured.err


@pytest.mark.parametrize(
    "action, payload",
    [
        ("invariants", 5),
        ("invariants", {"diagonal": 5}),
        ("equivalent", {"first": 5, "second": {"diagonal": ["1"]}}),
        ("construct", {"dim": 3, "signature": 5, "det": "1", "hasse": []}),
        ("construct", {"dim": 3, "signature": [3, 0], "det": "1", "hasse": 7}),
    ],
)
def test_qform_wrong_typed_json_exit_three(action, payload, tmp_path, capsys):
    # well-formed JSON of the wrong type is an input error, not a fault
    source = tmp_path / "qform.json"
    source.write_text(json.dumps(payload))
    assert cli.main(["qform", action, "--input", str(source)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("httool: ") and "internal error" not in captured.err


def exit_code(args) -> int:
    """`cli.main`'s exit code, also when it leaves by `SystemExit`."""
    try:
        return cli.main(args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "args, payload",
    [
        (["check"], {"L": ["1", "0", "1"], "p": 2.5, "a": 1}),
        (["check"], {"L": ["1", "0", "1"], "p": 2, "a": 1.9}),
        (["check"], {"L": [True, "0", True], "p": 2, "a": 1}),
        (["qform", "invariants"], {"diagonal": [True, 2]}),
        (["qform", "construct"], {"dim": 2.5, "signature": [1, 1], "det": "-1", "hasse": []}),
        (["qform", "construct"], {"dim": 2, "signature": [1, 1.5], "det": "-1", "hasse": []}),
        (["qform", "construct"], {"dim": 2, "signature": [1, 1], "det": True, "hasse": []}),
        (["qform", "construct"], {"dim": 3, "signature": [2, 1], "det": "-1", "hasse": ["4", "inf"]}),
        (["check"], {"L": ["1", "1/0", "1"], "p": 2, "a": 1}),
        (["construct"], {"L": ["1", "1/0", "1"], "p": 2, "a": 1}),
        (["extend", "--n", "2"], {"L": ["1", "1/0", "1"], "p": 2, "a": 1}),
        (["qform", "invariants"], {"diagonal": ["1/0", "1"]}),
        (["qform", "invariants"], {"gram": [["1/0", "0"], ["0", "1"]]}),
        (["qform", "construct"], {"dim": 2, "signature": [1, 1], "det": "1/0", "hasse": []}),
        (["enumerate", "--q", "2", "--degree", "2", "--l1", "1/0"], None),
        (["enumerate", "--q", "2", "--degree", "2", "--not-lm1", "1/0"], None),
    ],
)
def test_json_integers_rationals_and_places_are_validated(args, payload, monkeypatch, capsys):
    # floats and bools once passed as integers or rationals (int(2.5) == 2,
    # True == 1), and "4" as a place, so each of these ran to exit 0 or 1;
    # a zero denominator ("1/0") left Fraction's ZeroDivisionError as exit 4
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert exit_code(args) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("httool: ") and "internal error" not in captured.err


@pytest.mark.parametrize(
    "args, payload, message",
    [
        (["check"], [], "expected an object with key 'L', got list"),
        (["check"], {"L": 5, "p": 2, "a": 1}, "'L' must be a list, got int"),
        (["check"], {"L": ["1", "0", "1"], "a": 1}, "missing key 'p'"),
        (["check"], {"L": ["1", "0", "1"], "p": "2", "a": 1}, "p must be an integer, got '2'"),
        (["qform", "invariants"], [], "expected an object with key 'diagonal', got list"),
        (["qform", "invariants"], {"diagonal": 5}, "'diagonal' must be a list, got int"),
        (["qform", "invariants"], {"gram": [["1"], 5]}, "'gram' must be a list of lists"),
        (["qform", "equivalent"], {"first": {"diagonal": ["1"]}}, "missing key 'second'"),
        (["qform", "equivalent"], {"second": {"diagonal": ["1"]}}, "missing key 'first'"),
        (
            ["qform", "construct"],
            {"dim": 1, "signature": [1], "det": "1", "hasse": []},
            "'signature' must be a pair, got [1]",
        ),
        (
            ["qform", "construct"],
            {"dim": 1, "signature": [1, 0], "det": "1", "hasse": ["abc"]},
            "place must be an integer, got 'abc'",
        ),
        (
            ["qform", "construct"],
            {"dim": 1, "signature": [1, 0], "det": "1", "hasse": 5},
            "'hasse' must be a list, got int",
        ),
    ],
)
def test_malformed_json_structure_exits_three_naming_the_key(args, payload, message, monkeypatch, capsys):
    # each of these once reached a handler of KeyError, TypeError and
    # ValueError, whose message could be just the missing key
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert exit_code(args) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"httool: {message}\n"


def readme_cli_examples() -> list[tuple[str | None, list[str]]]:
    """(stdin, arguments) of each command in the README's CLI block."""
    readme = (GOLDEN.parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            stdin = words[1] if words[:1] == ["echo"] and words[2] == "|" else None
            examples.append((stdin, words[words.index("httool") + 1 :]))
    return examples


def test_readme_cli_examples_exit_zero(monkeypatch, capsys):
    examples = readme_cli_examples()
    assert len(examples) == 9
    for stdin, args in examples:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        assert exit_code(args) == cli.EXIT_OK, args
        json.loads(capsys.readouterr().out)


def schema_versions(doc) -> list:
    """Every `schema_version` in a JSON document, at any depth."""
    if isinstance(doc, dict):
        own = [doc["schema_version"]] if "schema_version" in doc else []
        return own + [x for v in doc.values() for x in schema_versions(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in schema_versions(v)]
    return []


def test_every_document_writes_the_one_schema_version(monkeypatch, capsys):
    # the report, the run outcome, its certificate and the certificate's
    # report block, the census and the lattice all follow the one constant
    monkeypatch.setattr(weilcheck, "SCHEMA_VERSION", 2)
    for args, stdin, documents in (
        (["check"], QUARTIC_JSON, 1),
        (["construct"], QUARTIC_JSON, 3),
        (["enumerate", "--q", "2", "--degree", "2"], None, 1),
        (["lattice"], None, 1),
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        assert exit_code(args) == cli.EXIT_OK, args
        assert schema_versions(json.loads(capsys.readouterr().out)) == [2] * documents, args


def test_extend_matches_example():
    proc = run_cli(["extend", "--n", "2"], '{"L": ["1", "-1/2", "1"], "p": 2, "a": 1}')
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"L": ["1", "7/4", "1"], "p": 2, "a": 2}


def test_construct_rejected_exit_one():
    proc = run_cli(["construct"], CYCLOTOMIC_JSON)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "rejected"


def test_construct_factors_the_quartic_once():
    # check_all factors L, and weil_field builds the CM field from its
    # verdicts without factoring Q again
    proc = run_cli(["construct"], QUARTIC_JSON)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["telemetry"]["counters"]["factor_with_unit_calls"] == 1


def test_construct_existence_only_exit_zero():
    proc = run_cli(
        ["construct", "--max-extension-degree", "8"], QUARTIC_JSON
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "existence_only"


def test_construct_refuses_an_extension_target_below_2d_exit_three():
    # L = Q**2, Q = 1 - T/2 + T**2, has degree 4 over a quadratic field
    proc = run_cli(["construct", "--max-extension-degree", "2"], '{"L":["1","-1","9/4","-1","1"],"p":2,"a":2}')
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "httool: extension target 2 incompatible with degree 4 and field degree 2\n"


def test_construct_unknown_exit_two():
    # base extension of 1 - T/2 + T^2 by n = 2: the slope verdict is the
    # designated proper-power Unknown, so the run cannot certify
    payload = '{"L": ["1", "1", "1/4", "1", "1"], "p": 2, "a": 2}'
    proc = run_cli(["construct"], payload)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["status"] == "unknown"


def test_check_on_census_members_all_pass():
    proc = run_cli(["enumerate", "--q", "2", "--degree", "2"])
    census = json.loads(proc.stdout)
    assert census["count"] == 4
    for member in census["candidates"]:
        check = run_cli(["check"], json.dumps(member))
        assert check.returncode == 0
        assert json.loads(check.stdout)["admissible"] is True


def test_qform_invariants_accepts_gram():
    proc = run_cli(["qform", "invariants"], '{"gram": [["0", "1"], ["1", "0"]]}')
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["det"] == "-1" and out["hasse"] == []


def test_qform_equivalent():
    payload = '{"first": {"diagonal": ["2", "2"]}, "second": {"diagonal": ["1", "1"]}}'
    proc = run_cli(["qform", "equivalent"], payload)
    assert json.loads(proc.stdout) == {"equivalent": True}


def test_qform_construct_inadmissible_exit_one():
    payload = '{"dim": 3, "signature": [3, 0], "det": "-1", "hasse": []}'
    proc = run_cli(["qform", "construct"], payload)
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"admissible": False}


def test_qform_construct_beyond_the_scalar_pool():
    # admissible invariants whose binary block needs an auxiliary prime
    payload = json.dumps({"dim": 4, "signature": [2, 2], "det": str(10 * (10**12 + 39)), "hasse": ["2", "inf"]})
    proc = run_cli(["qform", "construct"], payload)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["admissible"] is True


def test_output_file_option(tmp_path):
    target = tmp_path / "out.json"
    proc = run_cli(["lattice", "--output", str(target)])
    assert proc.returncode == 0
    assert json.loads(target.read_text())["determinant"] == -1


# ---------------------------------------------------------------------------
# golden files


def test_golden_census():
    proc = run_cli(["enumerate", "--q", "2", "--degree", "2", "--pretty"])
    assert proc.stdout == (GOLDEN / "census_q2_degree2.json").read_text()


def test_golden_lattice():
    proc = run_cli(["lattice", "--pretty"])
    assert proc.stdout == (GOLDEN / "lattice.json").read_text()


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("report_*.json")), ids=lambda path: path.name)
def test_golden_check_report(golden):
    # `check --pretty` on each golden report's own candidate: the same
    # bytes, and exit 0 exactly when it is admissible
    expected = golden.read_text()
    report = json.loads(expected)
    proc = run_cli(["check", "--pretty"], json.dumps(report["candidate"]))
    assert proc.stdout == expected
    assert proc.returncode == (0 if report["admissible"] else 1)
    if golden.name == "report_product_sextics3.json":
        # three q = 3 sextic members: H of degree 9 has four factors mod 5,
        # lifted together to 5**8, and three factors over Z
        factors = report["properties"]["power_structure"]["witness"]["factors"]
        assert [len(g) for g, _ in factors] == [7, 7, 7]


def replay_certificate(args, candidate: str, golden: str):
    proc = run_cli(["construct", *args, "--pretty"], candidate)
    produced = json.loads(proc.stdout)
    del produced["telemetry"]
    expected = json.loads((GOLDEN / golden).read_text())
    assert produced == expected
    # byte-level determinism of two runs, telemetry aside
    again = json.loads(run_cli(["construct", *args, "--pretty"], candidate).stdout)
    del again["telemetry"]
    assert json.dumps(produced, sort_keys=False) == json.dumps(again, sort_keys=False)


def test_golden_certificate_modulo_telemetry():
    replay_certificate([], QUARTIC_JSON, "certificate_quartic.json")


def test_golden_extension_certificate_modulo_telemetry():
    replay_certificate(["--max-extension-degree", "8"], QUADRATIC_JSON, "certificate_extend8.json")


def test_golden_extension14_certificate_modulo_telemetry():
    # the longest binary-block scan of the degree ladder 8..18
    replay_certificate(["--max-extension-degree", "14"], QUADRATIC_JSON, "certificate_extend14.json")


def test_golden_unsupported_certificate_modulo_telemetry():
    # the quartic's real subfield is Q(sqrt 6), not Q: no extension to
    # degree 8 is built, and extension.relative and absolute are null
    replay_certificate(["--max-extension-degree", "8"], QUARTIC_JSON, "certificate_unsupported.json")
