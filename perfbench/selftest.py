"""Self-test of the benchmark's oracles and failure accounting.

    python3 perfbench/selftest.py

Feeds wrong verdicts, a raised exception and tampered certificates through
the same `Runner` the benchmark uses and checks that each one is counted as a
failed operation, while the untampered operations pass.  It also checks the
benchmark's own input arithmetic against the program's.  Exits 0 when every
check holds.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from fractions import Fraction

import run


def main() -> int:
    run.import_program()
    import workloads
    from httool import weilcheck

    pools = workloads.load_pools()
    problems: list[str] = []

    def expect(label: str, ops, failed: int) -> None:
        runner = run.Runner(None)
        for op in ops:
            runner.run_op(op)
        runner.judge()
        status = "ok" if len(runner.failures) == failed else "WRONG"
        print(f"{status:5} {label}: {len(runner.failures)} of {runner.attempted} failed, expected {failed}")
        for failure in runner.failures:
            print(f"        {failure}")
        if len(runner.failures) != failed:
            problems.append(label)

    def replace(op, result):
        return dataclasses.replace(op, primary=lambda: result)

    # census: a job that loses one candidate
    census = workloads.Census(0, pools)
    small = census.next_pass()[0]
    found = small.primary()
    expect("census, true and truncated answers", [replace(small, found), replace(small, found[:-1])], 1)

    # check: one operation of each kind, then each with a wrong verdict
    check = workloads.Check(7, pools)
    ops = [check._product(), check._base_extension(), check._perturbation()]
    reports = [op.primary() for op in ops]
    names = ("unit_circle", "no_root_of_unity", "ell_integrality", "newton_shape", "power_structure")
    passing = weilcheck.PropertyVerdict(weilcheck.Status.PASS, {})
    failing = weilcheck.PropertyVerdict(weilcheck.Status.FAIL, {"reason": "injected"})

    def all_pass(report):
        return dataclasses.replace(report, **{name: passing for name in names})

    def with_fail(report):
        return dataclasses.replace(report, power_structure=failing)

    product, extension, perturbation = reports
    wrong = [
        all_pass(product),
        with_fail(extension),
        with_fail(perturbation) if perturbation.admissible else all_pass(perturbation),
    ]
    expect("check, true verdicts", [replace(op, r) for op, r in zip(ops, reports)], 0)
    expect("check, wrong verdicts", [replace(op, r) for op, r in zip(ops, wrong)], 3)

    # a raised exception is a failed operation
    def boom():
        raise ArithmeticError("injected")

    expect("raised exception", [dataclasses.replace(ops[0], primary=boom)], 1)

    # construct: the true certificate, then tampered ones
    construct = workloads.Construct(3, pools)
    op = construct.next_pass()[1]
    outcome = op.primary()
    tampered = []
    for label, edit in (
        ("complement diagonal entry times 3", lambda c: c["complement"]["diagonal"].__setitem__(
            0, str(Fraction(c["complement"]["diagonal"][0]) * 3))),
        ("trace-form Gram entry plus 1", lambda c: c["trace_form"]["gram"][0].__setitem__(
            0, str(Fraction(c["trace_form"]["gram"][0][0]) + 1))),
        ("status", lambda c: None),
    ):
        bad = copy.deepcopy(outcome)
        edit(bad.certificate)
        if label == "status":
            bad.status = type(outcome.status)("existence_only")
        tampered.append(replace(op, bad))
        # the K3 sum identity alone, without revalidation
        if label != "status":
            reason = construct.oracle(bad, [])
            print(f"{'ok' if reason else 'WRONG':5} K3 recomputation on {label}: {reason}")
            if reason is None:
                problems.append(f"K3 recomputation on {label}")
    expect("construct, true certificate", [replace(op, outcome)], 0)
    expect("construct, tampered certificates", tampered, len(tampered))

    # the benchmark's input arithmetic agrees with the program's
    for key in sorted(pools):
        for member in pools[key][:3]:
            for n in (2, 3):
                mine = workloads.base_extension(member, n)
                theirs = weilcheck.base_extend(workloads.candidate(member, key[0], key[1]), n)
                if mine != tuple(theirs.L.coeffs):
                    problems.append(f"base extension of {member} by {n}")
    print(f"{'ok' if not problems else 'WRONG':5} base extensions agree with weilcheck.base_extend")

    print("selftest", "passed" if not problems else f"FAILED: {problems}")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
