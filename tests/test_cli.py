"""Command-line interface: exit codes, determinism, round trips."""

import json
import os
import re
import subprocess
import sys
import textwrap
import time

import pytest

import qlie
from qlie import cli, repbuild, table, tensorcg
from qlie.cli import main, parse_text_algebra
from qlie.qliealg import check_lr_identity
from qlie.table import QuantumLieAlgebra, same_algebra
from qlie.qring import RatFunc

from conftest import load_golden
from oracles import fraction_jacobi, replaced


@pytest.fixture(autouse=True)
def jacobi_against_fractions(monkeypatch):
    """Every classical-limit check run through the CLI here also holds its
    integer Jacobi flag against the Fraction sum of the oracle."""
    check = cli.check_classical_limit

    def checked(A, *args):
        rep = check(A, *args)
        if rep["regular_at_one"]:
            assert rep["jacobi"] is fraction_jacobi(A.constants)
        return rep

    monkeypatch.setattr(cli, "check_classical_limit", checked)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# -------------------------------------------------------------------- exit codes

def test_build_succeeds(capsys):
    code, out = run(capsys, "build", "--algebra", "A1", "--construction", "generic")
    assert code == 0 and out


def test_build_normalized_rank_one(capsys):
    code, out = run(capsys, "build", "--algebra", "A1", "--construction", "generic", "--normalize")
    assert code == 0
    assert "X_{(2)}" in out and "H_1" in out


def test_normalize_obstruction_is_a_computation_failure(capsys):
    code, out = run(capsys, "build", "--algebra", "A2", "--construction", "generic", "--normalize")
    assert code == 1


def test_degenerate_parameters_are_a_usage_error(capsys):
    code, out = run(capsys, "build", "--algebra", "A2", "--construction", "explicit-sln",
                    "--s", "1", "--t", "-1")
    assert code == 2


def test_unknown_algebra_is_a_usage_error(capsys):
    code, _ = run(capsys, "build", "--algebra", "Q7", "--construction", "generic")
    assert code == 2


def test_explicit_requires_type_a(capsys):
    code, _ = run(capsys, "build", "--algebra", "B2", "--construction", "explicit-sln")
    assert code == 2


def test_unknown_check_is_a_usage_error(capsys):
    code, _ = run(capsys, "verify", "--algebra", "A1", "--construction", "generic",
                  "--checks", "gradation,nonsense")
    assert code == 2


def test_budget_exceeded_is_a_computation_failure(capsys):
    code = main(["verify", "--algebra", "E6"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_large_rank_is_rejected_before_its_root_system_is_built(capsys):
    start = time.perf_counter()
    code = main(["verify", "--algebra", "A99"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert elapsed < 0.5


@pytest.mark.parametrize("construction", ["generic", "explicit-sln"])
def test_twenty_digit_rank_is_rejected_from_the_closed_form(capsys, construction):
    # an n x n Cartan matrix at this rank could not be allocated at all
    start = time.perf_counter()
    code = main(["build", "--algebra", "A12345678901234567890", "--construction", construction])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "exceeds budget 64" in err and err.count("\n") == 1
    assert elapsed < 0.5


def test_explicit_table_obeys_the_budget(capsys):
    # sl_3 has dimension 3^2 - 1 = 8
    code = main(["build", "--algebra", "A2", "--construction", "explicit-sln", "--budget-dim", "7"])
    assert code == 1 and "exceeds budget 7" in capsys.readouterr().err
    assert main(["build", "--algebra", "A2", "--construction", "explicit-sln",
                 "--budget-dim", "8"]) == 0


def test_division_by_zero_in_a_scalar_is_a_usage_error(capsys):
    code = main(["build", "--algebra", "A2", "--construction", "explicit-sln", "--s", "1/0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("command", ["build", "verify"])
def test_non_positive_budget_is_a_usage_error(capsys, command, budget):
    code = main([command, "--algebra", "A1", "--budget-dim", budget])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: --budget-dim must be a positive integer, got {budget}\n"


def test_budget_of_one_is_accepted_and_then_exceeded(capsys):
    code = main(["build", "--algebra", "A1", "--budget-dim", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "exceeds budget 1" in err and err.count("\n") == 1


@pytest.mark.parametrize("s,t", [("1/(q-1)", "1"), ("1", "-1"), ("q/(q^2-1)", "q")])
def test_sum_with_a_pole_or_zero_at_one_is_a_usage_error(capsys, s, t):
    code = main(["build", "--algebra", "A2", "--construction", "explicit-sln", "--s", s, "--t", t])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: s + t must be regular and nonzero at v = 1\n"


@pytest.mark.parametrize("extra", [["--normalize"], ["--construction", "explicit-sln"],
                                   ["--construction", "generic"]])
def test_compare_rejects_options_it_does_not_read(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--algebra", "A2", *extra])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(extra) in capsys.readouterr().err


@pytest.mark.parametrize("argv,unknown", [(["compare", "--algebra", "A2", "--normalize"], "--normalize"),
                                          (["build", "--bogus", "--algebra", "A2"], "--bogus")])
def test_unknown_option_shows_its_command_usage(capsys, argv, unknown):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qlie {argv[0]} [-h] --algebra ALGEBRA")
    assert err.endswith(f"qlie {argv[0]}: error: unrecognized arguments: {unknown}\n")


@pytest.mark.parametrize("argv", [["table", "--algebra", "A1", "--s", "7", "--t", "q"],
                                  ["build", "--algebra", "A1", "--t", "q"],
                                  ["verify", "--algebra", "A2", "--construction", "generic",
                                   "--s", "1"]])
def test_scalars_without_the_explicit_family_are_a_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --s and --t apply only to --construction explicit-sln\n"


@pytest.mark.parametrize("checks", [",", "", " , ,"])
def test_a_checks_list_naming_no_check_is_a_usage_error(capsys, checks):
    code = main(["verify", "--algebra", "A1", "--checks", checks])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: --checks names no check; choose from gradation")
    assert captured.err.count("\n") == 1


def test_check_names_are_read_before_the_table_is_built(capsys):
    # E6 exceeds the default budget, which would be exit 1
    code = main(["verify", "--algebra", "E6", "--checks", "gradation,nonsense"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: unknown check 'nonsense'")


def test_budget_default_is_the_library_default(monkeypatch, capsys):
    assert cli.DEFAULT_DIM_BUDGET is repbuild.DEFAULT_DIM_BUDGET
    monkeypatch.setattr(cli, "DEFAULT_DIM_BUDGET", 2)
    code = main(["build", "--algebra", "A1"])
    err = capsys.readouterr().err
    assert code == 1 and "exceeds budget 2" in err


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_verify_passes_for_generic(capsys):
    code, out = run(capsys, "verify", "--algebra", "A1", "--construction", "generic")
    assert code == 0
    assert "result: PASS" in out


@pytest.mark.parametrize("name", ["A4", "B3", "C3", "D4", "F4", "E6"])
def test_verify_passes_end_to_end_for_larger_types(capsys, name):
    """build_generic, then the default check set of `qlie verify`; E6's
    78-dimensional adjoint needs a budget above the default 64."""
    budget = ("--budget-dim", "78") if name == "E6" else ()
    code, out = run(capsys, "verify", "--algebra", name, *budget, "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["pass"]
    assert sorted(report["checks"]) == ["ad-invariance", "antisymmetry", "classical-limit",
                                        "gradation", "lr-identity"]
    assert all(rep["ok"] is True for rep in report["checks"].values())


def test_verify_fails_for_bar_breaking_parameters(capsys):
    code, out = run(capsys, "verify", "--algebra", "A2", "--construction", "explicit-sln",
                    "--s", "1", "--t", "q", "--checks", "antisymmetry")
    assert code == 1
    assert "antisymmetry: FAIL" in out


def test_lr_identity_witness_names_the_cartan_element(capsys, monkeypatch, generics):
    # [X_a, H_1] corrupted: the witness is the pair of basis indices (a, H_1)
    A = generics["A2"]
    x, h = A.x_indices()[0], A.h_indices()[0]
    constants = dict(A.constants)
    constants[(x, h, x)] = constants.get((x, h, x), RatFunc(0)) + RatFunc(1)
    bad = replaced(A, constants=constants)
    assert check_lr_identity(bad) == {"ok": False, "witness": [x, h]}
    monkeypatch.setattr(cli, "build_algebra", lambda args: bad)
    code, out = run(capsys, "verify", "--algebra", "A2", "--checks", "lr-identity")
    assert code == 1
    assert out.splitlines()[0] == "lr-identity: FAIL  witness X_{(1,1)},H_1"
    # a witness that is not a list of basis indices is printed as it is
    code, out = run(capsys, "verify", "--algebra", "A2", "--checks", "ad-invariance")
    assert (code, out.splitlines()[0]) == (1, "ad-invariance: FAIL  witness ['E', 0]")


def test_classical_limit_failure_names_its_failing_flags(capsys, monkeypatch):
    # a report without a witness: the line names every flag that is False
    report = {"regular_at_one": True, "antisymmetric": True, "jacobi": False,
              "cartan_abelian": True, "l_equals_r": True, "kappa": None,
              "roots_classical": False, "oracle_match": None, "all": False}
    monkeypatch.setattr(cli, "check_classical_limit", lambda A, *args: dict(report))
    code, out = run(capsys, "verify", "--algebra", "A1", "--checks", "classical-limit")
    assert code == 1
    assert out.splitlines() == ["classical-limit: FAIL  failing: jacobi, roots_classical",
                                "result: FAIL"]


def test_verify_tau_splits_on_parameters(capsys):
    code, out = run(capsys, "verify", "--algebra", "A2", "--construction", "explicit-sln",
                    "--s", "1", "--t", "1", "--checks", "tau")
    assert code == 0 and "tau: PASS" in out
    code, out = run(capsys, "verify", "--algebra", "A2", "--construction", "explicit-sln",
                    "--s", "1", "--t", "0", "--checks", "tau")
    assert code == 1 and "tau: FAIL" in out


def test_verify_skips_inapplicable_checks(capsys):
    code, out = run(capsys, "verify", "--algebra", "A2", "--checks", "tau")
    assert code == 0
    assert "SKIP" in out


@pytest.mark.parametrize("algebra", ["A1", "A2", "A3"])
def test_verify_checks_ad_invariance_of_an_explicit_table(capsys, algebra):
    # the table is moved onto the pipeline's basis; it used to be a SKIP
    code, out = run(capsys, "verify", "--algebra", algebra, "--construction", "explicit-sln",
                    "--s", "1", "--t", "q", "--checks", "ad-invariance")
    assert (code, out) == (0, "ad-invariance: PASS\nresult: PASS\n")


def test_compare_match(capsys):
    code, out = run(capsys, "compare", "--algebra", "A2")
    assert code == 0
    assert "match: True" in out


def test_compare_with_pinned_mismatch(capsys):
    code, out = run(capsys, "compare", "--algebra", "A2", "--s", "1", "--t", "1")
    assert code == 1
    assert "match: False" in out


@pytest.mark.parametrize("t,code,line", [
    ("q^3/(q^6+q^4+q^2+1)", 0, "fitted t: (q^3) / (q^6 + q^4 + q^2 + 1)"),
    ("1", 1, "mismatch: Cartan action row 0 unfittable"),
])
def test_compare_with_pinned_parameters(capsys, t, code, line):
    # pinned (s, t) solve for the Cartan change of basis alone; the fitted
    # epsilon of A2 matches and t = s does not
    got, out = run(capsys, "compare", "--algebra", "A2", "--s", "1", "--t", t)
    assert got == code
    assert out.splitlines()[0] == f"match: {code == 0}"
    assert line in out.splitlines()


def test_compare_json_report_parses(capsys):
    code, out = run(capsys, "compare", "--algebra", "A2", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["match"] is True
    assert report["epsilon"] == "(q^3) / (q^6 + q^4 + q^2 + 1)"


def test_compare_needs_both_parameters(capsys):
    code, _ = run(capsys, "compare", "--algebra", "A2", "--s", "1")
    assert code == 2


def test_compare_outside_type_a_is_a_usage_error(capsys):
    code, _ = run(capsys, "compare", "--algebra", "B2")
    assert code == 2


# ---------------------------------------------------------------- refusal order

SHOW = ("build", "table", "limit", "verify")  # the commands that build a table
EVERY = SHOW + ("compare",)


def _lines(commands, algebras, *options):
    return [[cmd, "--algebra", alg, *options] for cmd in commands for alg in algebras]


# (mistake, exit code, command lines): each mistake on an A, a B/C/D and an
# E/F/G algebra where it applies, some of them over the default budget too
REFUSALS = [
    ("budget-below-one", 2, _lines(EVERY, ("A2", "B2", "G2", "E8"), "--budget-dim", "0")),
    ("unknown-check", 2, _lines(("verify",), ("A2", "A99", "B9", "E8"),
                                "--checks", "gradation,nonsense")),
    ("no-check-named", 2, _lines(("verify",), ("A2", "B9", "E8"), "--checks", ",")),
    ("malformed-algebra", 2, _lines(EVERY, ("A", "2B", "E-8"))),
    ("rank-outside-series", 2, _lines(EVERY, ("A0", "B1", "D2", "E9", "F3", "G3", "Z3"))),
    ("explicit-outside-type-a", 2, _lines(SHOW, ("B2", "D40", "E8", "G2"),
                                          "--construction", "explicit-sln")),
    ("compare-outside-type-a", 2, _lines(("compare",), ("B2", "B9", "E8", "G2"))
     + _lines(("compare",), ("B2", "G2"), "--budget-dim", "5")),
    ("scalars-without-explicit", 2, _lines(SHOW, ("A2", "A99", "B9", "E8"), "--s", "1")),
    ("compare-one-scalar", 2, _lines(("compare",), ("A2", "A99"), "--s", "1")),
    ("malformed-scalar", 2, _lines(SHOW, ("A2", "A99"), "--construction", "explicit-sln",
                                   "--s", "(q")
     + _lines(("compare",), ("A6", "A99"), "--s", "(q", "--t", "1")),
    ("sum-vanishing-at-one", 2, _lines(SHOW, ("A2", "A99"), "--construction", "explicit-sln",
                                       "--s", "1", "--t", "-1")
     + _lines(("compare",), ("A2", "A99"), "--s", "1", "--t", "-1")),
    ("budget-exceeded", 1, _lines(SHOW, ("A99", "B9", "D40", "E8"))
     + _lines(SHOW, ("A2", "B2", "G2"), "--budget-dim", "5")
     + _lines(SHOW, ("A2", "A99"), "--construction", "explicit-sln", "--budget-dim", "5")
     + _lines(("compare",), ("A6", "A99"), "--budget-dim", "5")),
]


@pytest.fixture
def nothing_built(monkeypatch):
    """Fail at once if the command builds a Cartan datum or a table."""
    def refuse(name):
        def spy(*args, **kwargs):
            raise AssertionError(f"{name} ran for a refused command line")
        return spy

    for name in ("build_generic", "build_sln_explicit", "build_cartan"):
        monkeypatch.setattr(cli, name, refuse(name))


@pytest.mark.parametrize("mistake,code,argvs", REFUSALS, ids=[m for m, _, _ in REFUSALS])
def test_a_mistake_is_refused_alike_on_every_series_before_any_construction(
        capsys, nothing_built, mistake, code, argvs):
    for argv in argvs:
        got = main(argv)
        captured = capsys.readouterr()
        assert (got, captured.out) == (code, ""), argv
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv


def test_refusals_come_in_one_order(capsys, nothing_built):
    # one command line with every mistake: mending each shows the next
    steps = [
        (["--algebra", "Z3", "--checks", "nonsense", "--budget-dim", "0"],
         2, "--budget-dim must be a positive integer, got 0"),
        (["--algebra", "Z3", "--checks", "nonsense"], 2, "unknown check 'nonsense'"),
        (["--algebra", "Z3"], 2, "unknown series 'Z'"),
        (["--algebra", "E8", "--construction", "explicit-sln", "--s", "(q"],
         2, "explicit-sln requires an A-series algebra"),
        (["--algebra", "A99", "--construction", "explicit-sln", "--s", "(q"],
         2, "parse error in '(q'"),
        (["--algebra", "A99", "--construction", "explicit-sln", "--s", "1", "--t", "-1"],
         2, "s + t must be regular and nonzero at v = 1"),
        (["--algebra", "A99", "--construction", "explicit-sln", "--s", "1", "--t", "1"],
         1, "dim of the adjoint module of A99 = 9999 exceeds budget 64"),
    ]
    for options, code, message in steps:
        assert main(["verify", *options]) == code, options
        assert capsys.readouterr().err.startswith("error: " + message), options


# ------------------------------------------------------------------ determinism

def test_json_output_is_byte_deterministic(capsys):
    argv = ("build", "--algebra", "A2", "--construction", "explicit-sln",
            "--s", "1", "--t", "q", "--format", "json")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second
    assert first.endswith("\n")


def test_text_output_is_byte_deterministic(capsys):
    argv = ("build", "--algebra", "A1", "--construction", "generic", "--normalize")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_json_is_compact_and_sorted(capsys):
    _, out = run(capsys, "build", "--algebra", "A1", "--construction", "generic",
                 "--format", "json")
    blob = json.loads(out)
    assert json.dumps(blob, sort_keys=True, separators=(",", ":")) + "\n" == out


# ------------------------------------------------------------------- round trips

def test_text_round_trip(capsys):
    _, out = run(capsys, "build", "--algebra", "A2", "--construction", "explicit-sln",
                 "--s", "1", "--t", "q")
    parsed = parse_text_algebra(out)
    _, again = run(capsys, "build", "--algebra", "A2", "--construction", "explicit-sln",
                   "--s", "1", "--t", "q", "--format", "json")
    direct = QuantumLieAlgebra.from_json(json.loads(again))
    assert same_algebra(parsed, direct)


@pytest.fixture(scope="module")
def sl3_text():
    A = cli.build_sln_explicit(3, RatFunc(1), RatFunc(0))
    return cli.build_text(A)


SL3_BASIS = "X_{12} | X_{13} | X_{21} | X_{23} | X_{31} | X_{32} | H_q | H_2"

# (old, new, the line as the test's id names it, the whole message it must reach)
MALFORMED_LINES = [
    ("# params s = 1 ; t = 0", "# params s = 1, t = 0", "# params s = 1, t = 0",
     "cannot parse params line '# params s = 1, t = 0'"),
    ("| H_1 |", "| H_q |", "# basis ",
     f"cannot parse line '# basis {SL3_BASIS}': invalid literal for int() with base 10: 'q'"),
    ("]^{H_1} = ", "]^{H_1} = 1/0 + ", "f[",
     "cannot parse line 'f[X_{12},X_{21}]^{H_1} = 1/0 + 1': division by zero in '1/0 + 1'"),
    ("f[X_{12},X_{21}]^{H_1} = 1", "f[X_{12},X_{21}]^{H_1} := 1", "f[X_{12},X_{21}]^{H_1} := 1",
     "cannot parse table line 'f[X_{12},X_{21}]^{H_1} := 1'"),
    ("f[X_{12},X_{21}]^{H_1} = 1", "f[X_{12},X_{21}]^{H_9} = 1", "f[X_{12},X_{21}]^{H_9} = 1",
     "unknown basis labels in line 'f[X_{12},X_{21}]^{H_9} = 1'"),
    ("f[X_{12},X_{21}]^{H_1} = 1", "f[X_{12},X_{99}]^{H_1} = 1", "f[X_{12},X_{99}]^{H_1} = 1",
     "unknown basis labels in line 'f[X_{12},X_{99}]^{H_1} = 1'"),
]


@pytest.mark.parametrize("old,new,message", [(old, new, message)
                                             for old, new, _, message in MALFORMED_LINES],
                         ids=["-".join(case[:3]) for case in MALFORMED_LINES])
def test_malformed_text_table_names_its_line(sl3_text, old, new, message):
    # the whole message, so each line is pinned to the refusal it reaches
    assert old in sl3_text
    text = sl3_text.replace(old, new, 1)
    with pytest.raises(cli.InvalidParams, match="^" + re.escape(message) + "$"):
        parse_text_algebra(text)


ONE_LABEL = "# algebra {}\n# construction generic-pipeline\n# normalized no\n# basis H_1\n"


@pytest.mark.parametrize("algebra,dim", [("A1500", 2253000), ("D40", 3160), ("G2", 14)])
def test_text_table_basis_must_span_the_adjoint(monkeypatch, algebra, dim):
    # the basis length is compared with the closed-form adjoint dimension
    # before any Cartan matrix is built, exceptional or not
    built = []
    true_build = table.build_cartan
    monkeypatch.setattr(table, "build_cartan", lambda *a: built.append(a) or true_build(*a))
    with pytest.raises(cli.InvalidParams, match=rf"^{algebra} has a {dim}-dimensional adjoint "
                                               "module, but the table has 1 basis vectors$"):
        parse_text_algebra(ONE_LABEL.format(algebra))
    assert built == []


def test_text_table_with_an_unknown_type_names_its_line():
    with pytest.raises(cli.InvalidParams, match=r"^cannot parse line '# algebra E9'"):
        parse_text_algebra(ONE_LABEL.format("E9"))


@pytest.mark.parametrize("algebra,construction,old,new,message", [
    ("A1", "generic", "X_{(-2)}", "X_{(4)}",
     "^the X labels of the basis are not the roots, each once$"),
    # before the check, this loaded and check_classical_limit reported all: True
    ("A1", "generic", "H_1", "H_5",
     r"^the H labels of the basis are not H_1 \.\. H_1, each once$"),
    ("A2", "explicit-sln", "X_{12}", "X_{79}",
     "^the X labels of the basis are not the roots, each once$"),
    ("A2", "explicit-sln", "X_{12}", "X_{(2,-1)}",
     r"^X_\{\(2,-1\)\} of an explicit-sln table has no ij$"),
    ("B2", "generic", "# construction generic-pipeline", "# construction explicit-sln",
     "^an explicit-sln table must be on an A-series algebra, not B2$"),
], ids=["root", "cartan-slot", "ij-out-of-range", "no-ij", "explicit-b2"])
def test_text_table_labels_are_checked_like_stored_json(capsys, algebra, construction, old,
                                                       new, message):
    _, text = run(capsys, "build", "--algebra", algebra, "--construction", construction)
    assert old in text
    with pytest.raises(cli.InvalidParams, match=message):
        parse_text_algebra(text.replace(old, new))


@pytest.mark.parametrize("construction,old,new,message", [
    # all but the last loaded before the one stored-table constructor; the
    # last keeps naming its line now that the constructor refuses the type
    ("generic", "# construction generic-pipeline", "# construction pipeline",
     "^the construction 'pipeline' is not one of generic-pipeline, explicit-sln$"),
    ("generic", "# normalized no", "# normalized maybe",    # read as "no"
     "^the normalized flag 'maybe' is not a bool"),
    ("generic", "# normalized no\n", "", "^text table lacks its header lines$"),
    ("explicit-sln", "# params s = 1 ; t = 0\n", "",
     re.escape("explicit-sln tables have the params ['s', 't'], not None") + "$"),
    ("generic", "# basis ", "# params s = 1 ; t = 0\n# basis ",
     re.escape("generic-pipeline tables have the params None, not ['s', 't']")),
    ("generic", "# algebra A2", "# algebra Z2",
     "^cannot parse line '# algebra Z2': unknown series 'Z'$"),
], ids=["provenance", "normalized-word", "no-normalized", "no-params", "generic-params",
        "series-Z"])
def test_text_table_refuses_each_malformed_field(capsys, construction, old, new, message):
    _, text = run(capsys, "build", "--algebra", "A2", "--construction", construction)
    assert old in text
    with pytest.raises(cli.InvalidParams, match=message):
        parse_text_algebra(text.replace(old, new))


def test_json_round_trip(capsys):
    _, out = run(capsys, "build", "--algebra", "B2", "--construction", "generic",
                 "--format", "json")
    A = QuantumLieAlgebra.from_json(json.loads(out))
    assert A.dim == 10


def test_golden_cli_output(capsys, golden_dir):
    _, out = run(capsys, "build", "--algebra", "A1", "--construction", "generic",
                 "--normalize", "--format", "json")
    assert json.loads(out) == load_golden(golden_dir, "sl2q.json")


def test_out_flag_writes_a_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code = main(["build", "--algebra", "A1", "--construction", "generic",
                 "--format", "json", "--out", str(target)])
    assert code == 0
    blob = json.loads(target.read_text())
    assert blob["basis"]


def test_unwritable_output_file_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = main(["build", "--algebra", "A1", "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_failed_self_check_is_a_computation_failure(monkeypatch, capsys):
    true_bracket = tensorcg._bracket_from_covector

    def corrupted(V, top):
        bmat = true_bracket(V, top)
        key = min(bmat)
        bmat[key] = -bmat[key]
        return bmat

    monkeypatch.setattr(tensorcg, "_bracket_from_covector", corrupted)
    code = main(["build", "--algebra", "A1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def _singular(*args):
    raise ZeroDivisionError("singular matrix")


@pytest.mark.parametrize("module,name,patch,message", [
    (tensorcg, "solve", lambda real: _singular, "singular matrix"),
    (repbuild, "weyl_dim", lambda real: lambda *args: real(*args) + 1,
     "built dim 3, Weyl dim 4"),
], ids=["singular-cg-system", "miscounted-module"])
def test_failed_construction_check_is_a_computation_failure(monkeypatch, capsys, module, name,
                                                            patch, message):
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    code = main(["build", "--algebra", "A1"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_oversized_scalar_is_a_usage_error(capsys):
    code = main(["build", "--algebra", "A2", "--construction", "explicit-sln",
                 "--s", "(q+1)^10000"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_huge_integer_power_is_a_prompt_usage_error(capsys):
    start = time.perf_counter()
    code = main(["build", "--algebra", "A2", "--construction", "explicit-sln",
                 "--s", "(" + "9" * 1000 + ")^1024"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert elapsed < 0.2


@pytest.mark.parametrize("s", ["(" + "9" * 1000 + ")^1024", "(q+" + "9" * 1000],
                         ids=["power", "unclosed"])
def test_long_scalar_input_gives_a_short_error_line(capsys, s):
    code = main(["build", "--algebra", "A2", "--construction", "explicit-sln", "--s", s])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200


@pytest.mark.parametrize("argv", [["--s", "(" * 400 + "1" + ")" * 400],
                                  ["--s=" + "-" * 3000 + "1"]],
                         ids=["parentheses", "signs"])
def test_deeply_nested_scalar_gives_a_short_error_line(capsys, argv):
    code = main(["build", "--algebra", "A2", "--construction", "explicit-sln"] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nests deeper" in err and len(err) < 200


# ---------------------------------------------------------------- small commands

def test_table_command(capsys):
    code, out = run(capsys, "table", "--algebra", "A1", "--construction", "generic",
                    "--normalize")
    assert code == 0
    assert "H_1" in out


def test_limit_command_shows_classical_values(capsys):
    code, out = run(capsys, "limit", "--algebra", "A1", "--construction", "generic",
                    "--normalize")
    assert code == 0
    assert "2" in out and "-2" in out


def test_limit_json(capsys):
    code, out = run(capsys, "limit", "--algebra", "A2", "--construction", "explicit-sln",
                    "--s", "1", "--t", "1", "--format", "json")
    assert code == 0
    json.loads(out)


# --------------------------------------------------------------------- start-up

def test_cli_import_loads_no_dataclasses_or_inspect():
    """Every command is a fresh process: importing qlie.cli without
    bytecode must not pull in dataclasses or inspect (which brings ast, dis
    and tokenize), unless the bare interpreter had loaded them already."""
    script = textwrap.dedent("""
        import sys
        heavy = {"dataclasses", "inspect"}
        before = heavy & set(sys.modules)
        import qlie.cli
        print(sorted(heavy & set(sys.modules) - before))
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qlie.__file__)),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
