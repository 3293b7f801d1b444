"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from genexpr import PREAMBLE

import nsakit
from nsakit import load_fixture, print_document
from nsakit.cli import main

PACKAGE = Path(nsakit.__file__).parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fixture_path(tmp_path):
    def write(name):
        target = tmp_path / name
        target.write_text(print_document(load_fixture(name)))
        return str(target)

    return write


@pytest.fixture
def doc_path(tmp_path):
    def write(text, name="input.nsa"):
        target = tmp_path / name
        target.write_text(text)
        return str(target)

    return write


def test_adjoint_plain(capsys, fixture_path):
    code, out, err = run(capsys, "adjoint", fixture_path("type-5-II.nsa"))
    assert code == 0
    assert out == (
        "status: computed\n"
        "adjoint: -a*u*v_xxx - c*u^2*v_x - d*v_xxxxx - v_t = 0\n"
    )
    assert err == ""


def test_adjoint_json(capsys, fixture_path):
    code, out, _ = run(
        capsys, "adjoint", fixture_path("type-5-II.nsa"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "computed"
    assert payload["adjoint"].endswith("= 0")


def test_check_nsa_verified(capsys, fixture_path):
    code, out, _ = run(capsys, "check-nsa", fixture_path("W31.nsa"))
    assert code == 0
    assert out == (
        "status: verified\nlambda: 0\nresidual: 0\n"
        "classification: nonlinear\n"
    )


def test_check_nsa_reports_symbolic_multiplier(capsys, fixture_path):
    code, out, _ = run(capsys, "check-nsa", fixture_path("type-3-III.nsa"))
    assert code == 0
    assert "lambda: c1*u^-2\n" in out
    assert "classification: quasi\n" in out


def test_check_nsa_refuted(capsys, fixture_path):
    code, out, _ = run(
        capsys, "check-nsa", fixture_path("W31.nsa"), "--json", "--phi", "u"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload == {
        "status": "refuted",
        "lambda": "-1",
        "residual": "-6*u_x*u_xx",
        "classification": "none",
        "nonzero_partials": "u",
    }


def test_determining_output(capsys, fixture_path):
    code, out, _ = run(capsys, "determining", fixture_path("W31.nsa"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "status: computed"
    assert lines[1] == "lambda: -phi_u"
    assert lines[2] == "equations: 6"
    assert lines[3] == "  t*phi_x*u^2 + phi_t + phi_xxx*u = 0"
    assert all(line.endswith("= 0") for line in lines[3:])


def test_conslaw_normalized(capsys, fixture_path):
    code, out, _ = run(
        capsys,
        "conslaw",
        fixture_path("W31.nsa"),
        "--symmetry",
        "scaling",
        "--normalize",
    )
    assert code == 0
    assert "c0: u\n" in out
    assert "c1: 1/3*t*u^3 + u*u_xx - 1/2*u_x^2\n" in out
    assert "divergence_residual: 0\n" in out


def test_conslaw_raw_keeps_transferable_terms(capsys, fixture_path):
    code, out, _ = run(
        capsys, "conslaw", fixture_path("W31.nsa"), "--symmetry", "scaling"
    )
    assert code == 0
    assert "transfer: 0\n" in out
    assert "divergence_residual: 0\n" in out


def test_conslaw_inline_symmetry_and_phi(capsys, fixture_path):
    code, out, _ = run(
        capsys,
        "conslaw",
        fixture_path("W31.nsa"),
        "--symmetry",
        "tau = t; xi = 0; eta = -u",
        "--phi",
        "1",
        "--normalize",
    )
    assert code == 0
    assert "status: verified" in out


def test_conslaw_bad_substitution_is_refuted(capsys, fixture_path):
    code, out, _ = run(
        capsys,
        "conslaw",
        fixture_path("W31.nsa"),
        "--symmetry",
        "scaling",
        "--phi",
        "u",
    )
    assert code == 1
    assert "status: refuted" in out
    assert "divergence_residual: 0" not in out


def test_check_symmetry_paths(capsys, fixture_path):
    code, out, _ = run(
        capsys,
        "check-symmetry",
        fixture_path("W31.nsa"),
        "--symmetry",
        "scaling",
    )
    assert code == 0
    assert out == "status: verified\nresidual: 0\n"

    code, out, _ = run(
        capsys,
        "check-symmetry",
        fixture_path("W31.nsa"),
        "--symmetry",
        "tau = t; xi = 0; eta = 0",
    )
    assert code == 1
    assert out == "status: refuted\nresidual: 2*t*u^2*u_x + u*u_xxx\n"


def test_catalog_verify_single(capsys):
    code, out, _ = run(capsys, "catalog", "verify", "W31")
    assert code == 0
    assert out.startswith("entry W31")
    assert out.rstrip().endswith("status: verified")
    assert "FAIL" not in out


def test_catalog_verify_all_json(capsys):
    code, out, _ = run(capsys, "catalog", "verify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "verified"
    assert len(payload["entries"]) == 14
    assert all(entry["ok"] for entry in payload["entries"])


def test_catalog_verify_unknown_id(capsys):
    for entry_id in ("nope", ""):
        code, out, err = run(capsys, "catalog", "verify", entry_id)
        assert code == 2
        assert out == ""
        assert err == f"error: unknown catalog entry {entry_id!r}\n"


def test_fmt_is_idempotent(capsys, fixture_path, tmp_path):
    path = fixture_path("W33.nsa")
    code, out, _ = run(capsys, "fmt", path)
    assert code == 0
    again = tmp_path / "again.nsa"
    again.write_text(out)
    code, out2, _ = run(capsys, "fmt", str(again))
    assert code == 0
    assert out2 == out


def test_fmt_prints_the_deepest_nesting_accepted(capsys, doc_path):
    """100 open parentheses or ln( parse, and fmt prints them."""
    code, out, err = run(
        capsys, "fmt", doc_path("u_t + " + "(" * 100 + "u" + ")" * 100 + "*u_x = 0;")
    )
    assert (code, out, err) == (0, "u*u_x + u_t = 0;\n", "")

    nested = "ln(2*" * 100 + "u" + ")" * 100
    code, out, err = run(capsys, "fmt", doc_path(f"u_t + {nested}*u_x = 0;"))
    assert (code, out, err) == (0, f"u_x*{nested} + u_t = 0;\n", "")
    code, again, _ = run(capsys, "fmt", doc_path(out, "again.nsa"))
    assert (code, again) == (0, out)


def _python(*argv, **options):
    """A fresh interpreter that imports this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    return subprocess.Popen([sys.executable, *argv], env=env, **options)


def test_a_reader_that_leaves_early_gets_no_traceback(doc_path):
    """A reader that closes stdout after one byte, as ``| head -c 1`` does,
    is no error: nothing on stderr, and the command's own exit code.  The
    large document prints about 100 kB, more than a pipe holds, so the
    writer is still writing when the reader leaves."""
    body = " + ".join(f"{i}{10**30 + 7}/7*x^{i}*u_x" for i in range(1, 2001))
    big = doc_path(f"u_t + {body} = 0;\n", "big.nsa")
    for argv in (["catalog", "verify", "--json"], ["fmt", big, "--json"],
                 ["fmt", big]):
        proc = _python("-m", "nsakit.cli", *argv, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, bufsize=0)
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (0, 1, 2, 3), argv
        assert b"Traceback" not in err and b"Error" not in err, (argv, err)


# each process prints {argv: [exit code, stdout]} for the commands it is given
_RUN_IN_ORDER = """
import contextlib, io, json, sys
from nsakit.cli import main
out = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        out[" ".join(argv)] = [main(argv), buf.getvalue()]
print(json.dumps(out))
"""


def test_outputs_do_not_depend_on_the_order_of_commands(fixture_path):
    """The per-atom derivative memo and the per-equation caches only store
    values: two interpreters running the same commands in opposite orders
    print the same thing for each."""
    commands = [["catalog", "verify", "W31"]]
    for name in sorted(resources.files("nsakit").joinpath("fixtures").iterdir()):
        doc = load_fixture(name.name)
        path = fixture_path(name.name)
        commands += [["adjoint", path], ["check-nsa", path], ["determining", path]]
        for sym in doc.symmetries:
            commands.append(
                ["conslaw", path, "--symmetry", sym.name, "--normalize", "--json"]
            )
    outputs = []
    for order in (commands, commands[::-1]):
        proc = _python("-c", _RUN_IN_ORDER, json.dumps(order),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outputs.append(json.loads(out))
    forward, backward = outputs
    assert len(forward) == len(commands)
    assert forward == backward


def test_runs_are_byte_deterministic(capsys, fixture_path):
    path = fixture_path("W33.nsa")
    first = run(capsys, "conslaw", path, "--symmetry", "scaling",
                "--normalize", "--json")
    second = run(capsys, "conslaw", path, "--symmetry", "scaling",
                 "--normalize", "--json")
    assert first == second


def test_exit_2_input_errors(capsys, doc_path, tmp_path):
    code, out, err = run(capsys, "adjoint", doc_path("u_t + q*u_x = 0;\n"))
    assert (code, out) == (2, "")
    assert err == "error: 1:7: undeclared identifier 'q'\n"

    code, _, err = run(capsys, "adjoint", doc_path("param c1;\nphi = c1;\n"))
    assert code == 2
    assert err == "error: the document contains no equation\n"

    code, out, err = run(
        capsys, "adjoint", doc_path("u_t + u_x = 0;\nu_t + u_xx = 0;\n")
    )
    assert (code, out) == (2, "")
    assert err == "error: 2:1: duplicate equation\n"

    code, _, err = run(capsys, "adjoint", str(tmp_path / "missing.nsa"))
    assert code == 2
    assert err.startswith("error: cannot read ")

    code, out, err = run(capsys, "adjoint", doc_path("u_t + ²*u_x = 0;\n"))
    assert (code, out, err) == (2, "", "error: 1:7: unexpected character '²'\n")

    long_literal = "u_t + " + "1" * 5000 + "*u_x = 0;\n"
    code, out, err = run(capsys, "adjoint", doc_path(long_literal))
    assert (code, out) == (2, "")
    assert err == "error: 1:7: integer literal has more than 4300 digits\n"

    deep = "u_t + " + "(" * 1200 + "u" + ")" * 1200 + " = 0;\n"
    code, out, err = run(capsys, "adjoint", doc_path(deep))
    assert (code, out) == (2, "")
    assert err == "error: 1:107: expression nested deeper than 100 levels\n"

    undecodable = tmp_path / "latin1.nsa"
    undecodable.write_bytes(b"u_t + u_x = 0; # \xff\n")
    code, out, err = run(capsys, "adjoint", str(undecodable))
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot read {undecodable}: 'utf-8' codec can't decode byte"
        " 0xff in position 17: invalid start byte\n"
    )

    code, _, err = run(
        capsys, "check-nsa", doc_path("u_t + u*u_x = 0;"), "--phi", "0"
    )
    assert code == 2
    assert err == "error: phi = 0 is excluded\n"

    code, _, err = run(capsys, "check-nsa", doc_path("u_t + u*u_x = 0;"))
    assert code == 2
    assert err == "error: no substitution in the document; pass --phi\n"

    # a differential substitution is not a phi(x, t, u)
    code, out, err = run(
        capsys, "check-nsa", doc_path("u_t + u*u_x + u_xxx = 0;"),
        "--phi", "u_xx + 1/2*u^2",
    )
    assert (code, out) == (2, "")
    assert err == "error: phi may depend on x, t, u only (found u_xx)\n"

    code, _, err = run(
        capsys,
        "check-symmetry",
        doc_path("u_t + u*u_x = 0;"),
        "--symmetry",
        "tau = t; xi = 0",
    )
    assert code == 2

    code, out, err = run(
        capsys,
        "check-symmetry",
        doc_path("u_t + u*u_x = 0;"),
        "--symmetry",
        "tau = 0; xi = 1; eta = 0; } anything",
    )
    assert (code, out) == (2, "")
    assert err == "error: 1:27: expected one of tau, xi, eta\n"

    sym_error = "symmetry component tau may depend on x, t, u only (found u_x)"
    for text, message in (
        ("u_t + u*u_xy = 0;\n", "1:9: jet subscript of u may contain only t and x"),
        ("u_t + u*u_xxx + ln(ln(u))*u = 0;\n",
         "1:17: directly nested ln is not supported"),
        ("u_t + u*u_xxx = 0;\nsymmetry bad { tau = u_x; xi = 0; eta = 0; }\n",
         f"2:1: {sym_error}"),
    ):
        code, out, err = run(capsys, "adjoint", doc_path(text))
        assert (code, out, err) == (2, "", f"error: {message}\n"), text
    # an inline symmetry is not part of the document, so it is unlocated
    code, out, err = run(
        capsys,
        "check-symmetry",
        doc_path("u_t + u*u_xxx = 0;"),
        "--symmetry",
        "tau = u_x; xi = 0; eta = 0",
    )
    assert (code, out, err) == (2, "", f"error: {sym_error}\n")


def test_t_derivative_inside_ln_is_refused(capsys, doc_path):
    """u_t inside a ln is refused like any u_t outside the leading term."""
    message = "error: 1:1: t-derivative u_t may only appear as the bare leading term\n"
    for text in ("u_t + u*u_t = 0;\n", "u_t + u_x*ln(u_t) = 0;\n"):
        path = doc_path(text)
        for argv in (
            ("adjoint", path),
            ("conslaw", path, "--phi", "1", "--symmetry", "tau=0;xi=1;eta=0"),
            ("check-symmetry", path, "--symmetry", "tau=t;xi=0;eta=0"),
        ):
            assert run(capsys, *argv) == (2, "", message), (text, argv[0])


def test_exit_2_json_error_goes_to_stdout(capsys, doc_path):
    code, out, err = run(
        capsys, "adjoint", doc_path("u_t + q*u_x = 0;\n"), "--json"
    )
    assert code == 2
    assert err == ""
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert "undeclared identifier" in payload["message"]


def test_usage_errors_keep_the_error_contract(capsys):
    """A missing argument, an unknown option and an invalid command exit
    2 with one ``error:`` line on stderr, or with --json a JSON error on
    stdout; -h still prints the usage on stdout and exits 0."""
    cases = (
        (("check-nsa",),
         "nsakit check-nsa: the following arguments are required: file"),
        (("catalog", "verify", "--nope"),
         "nsakit: unrecognized arguments: --nope"),
        (("bogus",), "nsakit: argument command: invalid choice: "),
    )
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, argv
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (2, ""), argv
        payload = json.loads(out)
        assert payload.keys() == {"status", "message"}, argv
        assert payload["status"] == "error", argv
        assert payload["message"].startswith(message), argv
    with pytest.raises(SystemExit) as exit_info:
        main(["check-nsa", "-h"])
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: nsakit check-nsa ") and err == ""


def test_a_rule_that_primes_its_own_function_is_refused(capsys, doc_path):
    """A function with a declared derivative takes no primes, in its own
    rule too; the refusal is at the ``func`` token."""
    path = doc_path("param p;\nfunc a(t) deriv = p*a';\nu_t + a*u_x = 0;\n")
    code, out, err = run(capsys, "check-symmetry", path,
                         "--symmetry", "tau = 1; xi = 0; eta = 0")
    assert (code, out) == (2, "")
    assert err == "error: 2:1: 'a' has a declared derivative; primes do not apply\n"


def test_exit_3_unsupported_inputs(capsys, doc_path):
    """Unsupported input exits 3.  An error found while the document is read
    is located; a refusal from a later computation is not."""
    cap = "jet of u exceeds the order cap 12"
    invertible = "only single-monomial expressions are invertible"
    for text, want_code, message in (
        ("u_t + u_xxxxxxxxxxxxx = 0;\n", 3, f"1:1: {cap}"),
        ("u_t + u_tx = 0;\n", 3,
         "1:1: derivative u_tx is outside the supported evolution class"),
        ("func f(t) deriv = u_xxxxxxxxxxxxx;\nu_t + f*u_x = 0;\n", 3,
         f"1:1: {cap}"),
        ("u_t + (u+1)^-1 = 0;\n", 2, f"1:1: {invertible}"),
        ("func f(t) deriv = (t+1)^-1;\nu_t + f*u_x = 0;\n", 2,
         f"1:1: {invertible}"),
        ("u_t + 2^20000*u_x = 0;\n", 3,
         "1:8: '^' gives a coefficient of more than 4300 digits"),
        ("u_t + 7^30000000*u_x = 0;\n", 3,
         "1:8: '^' gives a coefficient of more than 4300 digits"),
        # a number computed by the engine is refused where it is printed
        ("u_t + " + "9" * 4300 + "*u_x^2 = 0;\n", 3,
         "result has a number of more than 4300 digits"),
    ):
        code, out, err = run(capsys, "adjoint", doc_path(text))
        assert (code, out, err) == (want_code, "", f"error: {message}\n"), text
    # the prolongation of a twelfth-order equation needs a jet of order 13
    code, out, err = run(
        capsys,
        "check-symmetry",
        doc_path("u_t + u_xxxxxxxxxxxx = 0;\n"),
        "--symmetry",
        "tau = 0; xi = 1; eta = 0",
    )
    assert (code, out, err) == (3, "", f"error: {cap}\n")
    # ln of a sum has no derivative: its chain rule needs arg^-1
    sym_doc = doc_path(
        "u_t + u*u_xxx = 0;\nsymmetry s { tau = 0; xi = 1; eta = 0; }\n",
        "sym.nsa",
    )
    for argv, ln_text in (
        (("adjoint", doc_path("u_t + ln(x+t)*u_x^2 = 0;\n")), "ln(t + x)"),
        (("conslaw", sym_doc, "--symmetry", "s", "--phi", "ln(x+1)"),
         "ln(1 + x)"),
        (("check-symmetry", sym_doc, "--symmetry",
          "tau = ln(x+t); xi = 0; eta = 0"), "ln(t + x)"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (
            3, "", f"error: cannot differentiate {ln_text}: its argument is a sum\n"
        ), argv
    # a determining system not polynomial in the jets cannot be collected
    for text, message in (
        ("u_t + u_x^-1 = 0;\n", "u_x occurs with negative exponent"),
        ("u_t + ln(u_x)*u_xxx = 0;\n", "u_x occurs with negative exponent"),
        ("u_t + ln(2*u_x)*u_xx = 0;\n", "u_x occurs inside ln(2*u_x)"),
    ):
        code, out, err = run(capsys, "determining", doc_path(text))
        assert (code, out, err) == (3, "", f"error: {message}\n"), text
    long_sum = "u_t + " + "9" * 4300 + "*u_x + u_x = 0;\n"
    code, out, err = run(capsys, "fmt", doc_path(long_sum))
    assert (code, out) == (3, "")
    assert err == "error: result has a number of more than 4300 digits\n"


def test_warnings_are_printed_as_warning_lines(capsys, doc_path):
    """A parser warning is one stderr line; stdout is as without it."""
    path = doc_path("u_t + u*u_xxx = 0; conserved { c0 = u_xt; c1 = 0; }\n")
    warning = "warning: 1:37: jet subscript u_xt reordered to u_tx\n"
    code, out, err = run(capsys, "fmt", path)
    assert (code, out, err) == (
        0, "u*u_xxx + u_t = 0;\nconserved { c0 = u_tx; c1 = 0; }\n", warning
    )
    code, out, err = run(capsys, "fmt", path, "--json")
    assert (code, err) == (0, warning)
    assert json.loads(out)["formatted"].endswith("{ c0 = u_tx; c1 = 0; }\n")


def test_conslaw_beyond_fifth_order(capsys, doc_path):
    code, out, _ = run(
        capsys,
        "conslaw",
        doc_path("u_t + u_xxxxxx = 0; phi = 1;"),
        "--symmetry",
        "tau = 0; xi = 1; eta = 0",
    )
    assert code == 0
    assert out.startswith("status: verified\n")

    seventh = doc_path(
        "u_t + u_xxxxxxx + u*u_x = 0;\n"
        "phi = u;\n"
        "symmetry scal { tau = 7*t; xi = x; eta = -6*u; }\n"
    )
    code, out, _ = run(capsys, "check-symmetry", seventh, "--symmetry", "scal")
    assert (code, out) == (0, "status: verified\nresidual: 0\n")
    code, out, _ = run(capsys, "conslaw", seventh, "--symmetry", "scal", "--normalize")
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["status: verified", "c0: 11/2*u^2"]
    assert lines[-1] == "divergence_residual: 0"


_FUZZ_JETS = ("u", "u_x", "u_xx", "u_xxx", "x", "t", "p", "a", "f", "ln(u)",
              "ln(2*u_x)", "ln(x + t)")
# t-derivatives are refused in an equation's right side, so they come rarely
_FUZZ_T = ("u_t", "u_tx", "u_xt")
_FUZZ_POINT = ("u", "x", "t", "p", "ln(u)")
_FUZZ_DAMAGE = "();{}=+-*^/,"


def _fuzz_expr(rng, atoms, max_terms=3):
    """A sum of 1..max_terms monomials; never starts with '-', so an option
    value is not taken for an option."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        factors = [str(rng.randint(1, 9))]
        for _ in range(rng.randint(0, 3)):
            factors.append(rng.choice(atoms) + rng.choice(("", "^2", "^3", "^-1")))
        terms.append("*".join(factors))
    return " + ".join(terms)


def _fuzz_symmetry(rng):
    return "; ".join(
        f"{name} = {_fuzz_expr(rng, _FUZZ_POINT, 2) if rng.random() < 0.6 else 0}"
        for name in ("tau", "xi", "eta")
    )


def _fuzz_document(rng):
    rhs = _fuzz_expr(rng, _FUZZ_JETS, 4)
    if rng.random() < 0.15:
        rhs += f" + {rng.choice(_FUZZ_T)}*u"
    lines = [PREAMBLE, f"u_t + {rhs} = 0;"]
    if rng.random() < 0.6:
        lines.append(f"phi = {_fuzz_expr(rng, _FUZZ_POINT, 2)};")
    if rng.random() < 0.6:
        lines.append(f"symmetry s {{ {_fuzz_symmetry(rng)}; }}")
    if rng.random() < 0.3:
        c0, c1 = (_fuzz_expr(rng, _FUZZ_JETS + _FUZZ_T, 2) for _ in range(2))
        lines.append(f"conserved {{ c0 = {c0}; c1 = {c1}; }}")
    text = "\n".join(lines) + "\n"
    if rng.random() < 0.2:
        at = rng.randrange(len(text))
        text = text[:at] + rng.choice(_FUZZ_DAMAGE) + text[at:]
    return text


def test_every_command_keeps_the_output_contract(capsys, doc_path):
    """Seeded documents, damaged or not, through every file command: the
    exit code is 0-3, --json parses, and an error is one stderr line."""
    rng = random.Random(2012)
    for i in range(320):
        path = doc_path(_fuzz_document(rng), f"fuzz{i}.nsa")
        sym = rng.choice(("s", "nosuch", _fuzz_symmetry(rng)))
        phi = ["--phi", _fuzz_expr(rng, _FUZZ_POINT, 2)] if rng.random() < 0.5 else []
        argv = rng.choice((
            ["adjoint", path],
            ["check-nsa", path, *phi],
            ["determining", path],
            ["check-symmetry", path, "--symmetry", sym],
            ["conslaw", path, "--symmetry", sym, *phi],
            ["conslaw", path, "--symmetry", sym, "--normalize", *phi],
            ["fmt", path],
        ))
        if rng.random() < 0.5:
            argv.append("--json")
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3), argv
        errors = [line for line in err.splitlines()
                  if not line.startswith("warning: ")]
        if "--json" in argv:
            assert "status" in json.loads(out), argv
            assert errors == [], argv
        elif code >= 2:
            assert out == "", argv
            assert len(errors) == 1 and errors[0].startswith("error: "), argv
        else:
            assert errors == [], argv
