"""Command-line interface: exit codes, determinism, round trips."""

import dataclasses
import json
import re
import time

import pytest

from qlie import cli, qliealg, repbuild, tensorcg
from qlie.cli import main, parse_text_algebra
from qlie.qliealg import QuantumLieAlgebra, check_lr_identity, same_algebra
from qlie.qring import RatFunc

from conftest import load_golden
from oracles import fraction_jacobi


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
    bad = dataclasses.replace(A, constants=constants)
    assert check_lr_identity(bad) == {"ok": False, "witness": [x, h]}
    monkeypatch.setattr(cli, "build_algebra", lambda args: bad)
    code, out = run(capsys, "verify", "--algebra", "A2", "--checks", "lr-identity")
    assert code == 1
    assert out.splitlines()[0] == "lr-identity: FAIL  witness X_{(1,1)},H_1"


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
    code, out = run(capsys, "verify", "--algebra", "A2", "--construction", "explicit-sln",
                    "--checks", "ad-invariance")
    assert code == 0
    assert "SKIP" in out


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


@pytest.mark.parametrize("old,new,line", [
    ("# params s = 1 ; t = 0", "# params s = 1, t = 0", "# params s = 1, t = 0"),
    ("| H_1 |", "| H_q |", "# basis "),
    ("]^{H_1} = ", "]^{H_1} = 1/0 + ", "f["),
])
def test_malformed_text_table_names_its_line(sl3_text, old, new, line):
    assert old in sl3_text
    text = sl3_text.replace(old, new, 1)
    with pytest.raises(cli.InvalidParams, match=r"line '" + re.escape(line)):
        parse_text_algebra(text)


ONE_LABEL = "# algebra {}\n# construction generic-pipeline\n# normalized no\n# basis H_1\n"


@pytest.mark.parametrize("algebra,dim", [("A1500", 2253000), ("D40", 3160), ("G2", 14)])
def test_text_table_basis_must_span_the_adjoint(monkeypatch, algebra, dim):
    # the basis length is compared with the closed-form adjoint dimension
    # before a classical Cartan matrix is built
    built = []
    true_build = qliealg.build_cartan
    monkeypatch.setattr(qliealg, "build_cartan", lambda *a: built.append(a) or true_build(*a))
    with pytest.raises(cli.InvalidParams, match=rf"^{algebra} has a {dim}-dimensional adjoint "
                                               "module, but the table has 1 basis vectors$"):
        parse_text_algebra(ONE_LABEL.format(algebra))
    assert built == ([] if algebra != "G2" else [("G", 2)])


def test_text_table_with_an_unknown_type_names_its_line():
    with pytest.raises(cli.InvalidParams, match=r"^cannot parse line '# algebra E9'"):
        parse_text_algebra(ONE_LABEL.format("E9"))


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
