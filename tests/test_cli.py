import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import divconv.eta as eta_module
import divconv.modforms as modforms_module
import divconv.qseries as qseries_module
import divconv.representations as representations_module
from conftest import run_cli as run
from divconv.cli import main
from divconv.convolution import derive_formula, verify_formula
from divconv.eta import search_eta_quotients
from divconv.modforms import SEARCH_CAP, Unsolvable
from divconv.representations import SUPPORTED_PAIRS, octonary_convolution
from reference import reference_csv

A2_QUOTIENT = '{"level": 14, "exponents": {"1": 2, "2": 2, "7": 2, "14": 2}}'
LONG = "1" * 5000  # more digits than int reads by default (4300)
NINES = "9" * 4300  # int reads it, but sum d*r_d has 4301 digits


def test_expand_leading_coefficients(tmp_path):
    result = run("--truncation", "64", "expand", A2_QUOTIENT)
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["coeffs"][:3] == ["0/1", "0/1", "1/1"]


def test_expand_cache_is_byte_identical(tmp_path):
    cache = str(tmp_path / "cache")
    first = run("--truncation", "64", "--cache-dir", cache, "expand", A2_QUOTIENT)
    second = run("--truncation", "64", "--cache-dir", cache, "expand", A2_QUOTIENT)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    assert len(list((tmp_path / "cache").iterdir())) == 1


def test_expand_cache_key_includes_truncation(tmp_path):
    """An entry written at one truncation is not read back at another."""
    cache = str(tmp_path / "cache")
    assert run("--truncation", "64", "--cache-dir", cache, "expand", A2_QUOTIENT).exit_code == 0
    result = run("--truncation", "32", "--cache-dir", cache, "expand", A2_QUOTIENT)
    assert result.exit_code == 0
    assert len(json.loads(result.output)["coeffs"]) == 33
    assert len(list((tmp_path / "cache").iterdir())) == 2


def test_expand_cache_file_name_is_stable(tmp_path):
    """The entry keeps the name earlier versions gave it, so existing caches stay readable."""
    cache = tmp_path / "cache"
    quotient = '{"level": 14, "exponents": {"1": 5, "2": -1, "7": 5, "14": -1}}'
    assert run("--truncation", "64", "--cache-dir", str(cache), "expand", quotient).exit_code == 0
    assert [entry.name for entry in cache.iterdir()] == ["8b55bfae4a0ae109.json"]


def test_expand_ignores_unreadable_manifest(tmp_path):
    """A manifest.json left in the cache directory is not the cache's: the
    entry is written and the series printed as without a cache."""
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "manifest.json").write_text("{")
    cached = run("--truncation", "64", "--cache-dir", str(cache), "expand", A2_QUOTIENT)
    plain = run("--truncation", "64", "expand", A2_QUOTIENT)
    assert cached.exit_code == 0, cached.output
    assert cached.stdout == plain.stdout


@pytest.mark.parametrize(
    "args,message",
    [
        (
            ("--truncation", "64", "expand", '{"level": 1, "exponents": {"1": 1}}'),
            "sum of d*r_d = 1 is not divisible by 24; no integral q-expansion",
        ),
        (("expand", '{"level": 14, "exponents": {"1": -24}}'), "leading exponent -1 is negative"),
        (("expand", "@MISSING"), "[Errno 2] No such file or directory: 'MISSING'"),
        (("derive", "--alpha", "2", "--beta", "4"), "alpha and beta must be coprime, got (2, 4)"),
        (("derive", "--alpha", "7", "--beta", "2"), "derivation requires 1 <= alpha < beta, got (7, 2)"),
        (("rep", "--a", "1", "--b", "5", "--nmax", "3"), "no formula for (a, b) = (1, 5)"),
        (("expand", "[" * 5000 + "]" * 5000), "quotient JSON is nested too deeply"),
    ],
    ids=[
        "fractional-leading-exponent", "negative-leading-exponent", "missing-file", "not-coprime",
        "unordered-pair", "unsupported-rep-pair", "nested-json",
    ],
)
def test_input_error_exits_2_with_its_message(tmp_path, args, message):
    missing = str(tmp_path / "missing.json")
    result = run(*(arg.replace("MISSING", missing) for arg in args))
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == f"error: {message.replace('MISSING', missing)}\n"


def test_expand_rejects_malformed_json():
    result = run("expand", "{not json")
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "garbage",
    [
        '{"version": 1, "kind": "qseries", "truncation": 64, "coeffs": ["0/1"',
        "garbage",
        "[1, 2]",
        '{"version": 1, "kind": "qseries", "truncation": 0, "coeffs": ["1/0"]}',
        "[" * 100000,
        '{"version": 1, "kind": "qseries", "truncation": 1, "coeffs": ["0/1", "0/1"]}',
    ],
    ids=["truncated", "not-json", "not-a-series", "zero-denominator", "nested", "wrong-truncation"],
)
def test_expand_rejects_corrupt_cache_entry(tmp_path, garbage):
    cache = tmp_path / "cache"
    assert run("--truncation", "64", "--cache-dir", str(cache), "expand", A2_QUOTIENT).exit_code == 0
    (entry,) = cache.iterdir()
    entry.write_text(garbage)
    result = run("--truncation", "64", "--cache-dir", str(cache), "expand", A2_QUOTIENT)
    assert result.exit_code == 2
    assert result.stdout == "" and entry.name in result.stderr


@pytest.mark.parametrize("command", ["expand", "ligozat"])
@pytest.mark.parametrize(
    "quotient,named",
    [
        ("[]", ""),
        ("7", ""),
        ('{"level": 14, "exponents": [1, 2]}', ""),
        ('{"level": "14", "exponents": {"1": 2, "2": 2, "7": 2, "14": 2}}', ""),
        ('{"level": 14, "exponents": null}', ""),
        ('{"level": 14, "exponents": {"1": 2.5, "2": 2, "7": 2, "14": 2}}', ""),
        ('{"level": 14, "exponents": {"0": 8}}', ""),
        ('{"level": 2, "exponents": {"1": 24, "1": -12}}', "'1' twice"),
        ('{"level": 2, "level": 2, "exponents": {"1": 24}}', "'level' twice"),
        ('{"level": 2, "exponents": {"\\u0661": 24}}', "'\u0661'"),
        ('{"level": 2, "exponents": {"\\uff12": 24}}', "'\uff12'"),
        ('{"level": 2, "exponents": {"1": 24}, "weight": 4}', "'weight'"),
        (f'{{"level": 2, "exponents": {{"{LONG}": 24}}}}', "key '1111111111...' of 5000 digits"),
        (f'{{"level": 2, "exponents": {{"1": -{LONG}}}}}', "key '1' an integer too long"),
        (f'{{"level": {LONG}, "exponents": {{"1": 24}}}}', "key 'level' an integer too long"),
        (f'{{"level": 2, "exponents": {{"1": 24, "2": {NINES}}}}}', "exponent of divisor 2 must be in"),
    ],
    ids=[
        "array", "number", "exponents-array", "level-string", "exponents-null", "fractional-exponent",
        "divisor-zero", "repeated-divisor", "repeated-level", "arabic-indic-digit", "fullwidth-digit", "unknown-key",
        "long-divisor", "long-exponent", "long-level", "huge-exponent",
    ],
)
def test_malformed_quotient_is_input_error(capsys, command, quotient, named):
    """A repeated key, a divisor in digits other than ASCII (int reads them),
    an unknown key and a number too long for int are refused too, each by
    name, and not with int's advice to raise its limit."""
    assert main(["--truncation", "64", command, quotient], standalone_mode=False) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and named in captured.err
    assert "set_int_max_str_digits" not in captured.err


@pytest.mark.parametrize("command", ["expand", "ligozat"])
def test_quotient_naming_a_divisor_twice_is_input_error(command):
    """"1" and "01" name one divisor; neither value may silently win."""
    result = run(command, '{"level": 2, "exponents": {"1": 24, "01": -12}}')
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == "error: divisor 1 is given twice, as '1' and '01'\n"


def test_ligozat_report():
    result = run("ligozat", '{"level": 14, "exponents": {"1": 5, "2": -1, "7": 5, "14": -1}}')
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["cond_v_prime"] is True and report["weight"] == "4/1"


# sha256 of the raw ligozat stdout of the four registered level-14 quotients
# and eta(z)^3 / eta(7z)^2 (weight 1/2, negative orders), concatenated in
# this order; computed with every report field rendered by name
LIGOZAT_SHA256 = "5142e3a6ae16e7802516949128a46160fd9789d1a0403f8c82289fe9b5b383e2"


def test_ligozat_output_is_unchanged(capsys):
    quotients = [json.dumps(q.to_json_dict()) for q in modforms_module.registered_cusp_quotients(14)]
    digest = hashlib.sha256()
    for quotient in [*quotients, '{"level": 14, "exponents": {"1": 3, "7": -2}}']:
        assert main(["ligozat", quotient], standalone_mode=False) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == LIGOZAT_SHA256


def test_search_contains_family():
    result = run("--bound", "6", "search", "--level", "14")
    assert result.exit_code == 0
    found = [tuple(sorted((int(d), r) for d, r in q["exponents"].items()))
             for q in json.loads(result.output)]
    assert ((1, 5), (2, -1), (7, 5), (14, -1)) in found


def test_search_bound_defaults_to_search_cap():
    result = run("search", "--level", "14")
    assert result.exit_code == 0
    assert json.loads(result.output) == [q.to_json_dict() for q in search_eta_quotients(14, SEARCH_CAP)]


@pytest.mark.parametrize("option", [("--weight", "4"), ("--strict",)], ids=["weight", "strict"])
def test_search_takes_only_level(option):
    result = run("search", "--level", "14", *option)
    assert result.exit_code == 2 and f"unrecognized arguments: {' '.join(option)}" in result.output


def test_basis_output():
    result = run("basis", "--level", "14")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["sturm_bound"] == 8 and data["dim_M4"] == 8
    assert [e["id"] for e in data["elements"]] == [
        "E1", "E2", "E7", "E14", "S14.1", "S14.2", "S14.3", "S14.4",
    ]
    assert all(len(e["coeffs"]) == 9 for e in data["elements"])


def test_level_1_basis_is_E4_alone():
    # the Sturm bound 4*mu/12 = 1/3 floors to 0: E4 is determined by q^0
    result = run("basis", "--level", "1")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["sturm_bound"] == 0 and data["dim_M4"] == 1
    assert [(e["id"], e["coeffs"]) for e in data["elements"]] == [("E1", ["1"])]


def test_short_basis_shows_dim_M4():
    result = run("basis", "--level", "33")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["elements"]) == 11 and data["dim_M4"] == 14


def test_derive_formula_json():
    result = run("--truncation", "64", "derive", "--alpha", "2", "--beta", "7")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["sigma3"]["1"] == "1/600"
    assert data["cusp"][1] == ["S14.2", "-1/4200"]


def test_verify_clean_run():
    result = run("--truncation", "64", "verify", "--alpha", "2", "--beta", "7", "--nmax", "64")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["checked"] == 64 and data["mismatches"] == []


def test_verify_nmax_is_independent_of_truncation():
    result = run("--truncation", "64", "verify", "--alpha", "2", "--beta", "7", "--nmax", "100")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["checked"] == 100 and data["mismatches"] == []


def test_verify_json_states_its_certificate():
    result = run("verify", "--alpha", "1", "--beta", "26", "--nmax", "50")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert (data["sturm_bound"], data["basis_rank"], data["dim_M4"], data["checked"]) == (14, 13, 13, 50)


def test_rep_csv():
    result = run("rep", "--a", "1", "--b", "1", "--nmax", "4")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "n,formula_value,oracle_value,match"
    assert lines[2].startswith("2,112,112,true")


def test_rep_exits_1_on_a_mismatch(monkeypatch):
    table = representations_module.octonary_formula_table

    def off_at_3(a, b, n_max):
        return [v + (n == 3) for n, v in enumerate(table(a, b, n_max))]

    monkeypatch.setattr(representations_module, "octonary_formula_table", off_at_3)
    result = run("rep", "--a", "1", "--b", "1", "--nmax", "4")
    assert result.exit_code == 1
    assert [line.rsplit(",", 1)[1] for line in result.stdout.splitlines()[1:]] == ["true", "true", "false", "true"]


def test_rep_rows_match_per_n_counts():
    result = run("rep", "--a", "2", "--b", "3", "--nmax", "80")
    assert result.exit_code == 0
    counts = [octonary_convolution(2, 3, n) for n in range(1, 81)]
    assert result.output.strip().splitlines()[1:] == [f"{n},{c},{c},true" for n, c in enumerate(counts, 1)]


def test_pipeline_commands_build_no_qseries(monkeypatch):
    """table, derive, basis, verify (whose level-22 quotients take a divide
    pass) and rep run on plain integer lists: with QSeries construction made
    to raise, each exits 0. The cached pass terms and bases are emptied
    first, so nothing an earlier test built hides a path."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("a pipeline command built a QSeries")

    monkeypatch.setattr(qseries_module.QSeries, "__init__", refuse)
    eta_module._pass_terms.cache_clear()
    modforms_module.level_basis.cache_clear()
    for args in (
        ("table",),
        ("derive", "--alpha", "2", "--beta", "7"),
        ("basis", "--level", "22"),
        ("verify", "--alpha", "1", "--beta", "22", "--nmax", "300"),
        ("rep", "--a", "1", "--b", "3", "--nmax", "50"),
    ):
        result = run(*args)
        assert result.exit_code == 0, (args, result.stderr)


# sha256 of the rep CSV at --nmax 2000 of the four pairs, concatenated in this
# order; computed with both tables formed by the spread-then-multiply product
REP_2000_SHA256 = "e9e05998e76c745910acb8c8be4542a1bbe921de9932850dcb0220f83d056dbc"


def test_rep_output_is_unchanged():
    digest = hashlib.sha256()
    for a, b in ((1, 1), (1, 3), (2, 3), (1, 9)):
        result = run("rep", "--a", str(a), "--b", str(b), "--nmax", "2000")
        assert result.exit_code == 0
        digest.update(result.stdout.encode())
    assert digest.hexdigest() == REP_2000_SHA256


def test_table_csv():
    result = run("--truncation", "64", "table", "--pairs", "2,7")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "alpha,beta,term,coefficient"
    assert "2,7,sigma3(n/1),1/600" in lines
    assert "2,7,cusp.S14.4,-1/42" in lines


@pytest.mark.parametrize("pairs", ["", "2,7;", "a,b", "1,2,3", "2", "2,7;1"])
def test_table_names_malformed_pair(pairs):
    bad = pairs.split(";")[-1]
    result = run("table", "--pairs", pairs)
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == f"error: --pairs entry {bad!r}: expected alpha,beta\n"


def test_basis_does_not_depend_on_truncation():
    plain = run("basis", "--level", "14")
    short = run("--truncation", "7", "basis", "--level", "14")
    assert plain.exit_code == short.exit_code == 0
    assert plain.output == short.output


def test_refusal_exits_3_without_standalone_mode(capsys):
    # level 21 has no weight-4 eta quotient at all
    args = ["--bound", "4", "verify", "--alpha", "3", "--beta", "7", "--nmax", "10"]
    assert main(args, standalone_mode=False) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: level 21")


def test_refusal_says_why():
    no_quotient = run("verify", "--alpha", "1", "--beta", "21", "--nmax", "10")
    assert no_quotient.exit_code == 3
    assert "level 21: no weight-4 eta quotient exists (4*mu/12 = 32/3 is not an integer)" in no_quotient.output
    short = run("derive", "--alpha", "1", "--beta", "11")
    assert short.exit_code == 3
    assert "level 11: E4(q^t) and the eta quotients with exponents in [-9, 9] reach rank 3 of dim M4 = 4" in short.output
    assert "--bound" not in short.output


@pytest.mark.parametrize("alpha,beta", [(2, 3), (2, 5), (3, 4), (4, 5), (3, 5), (1, 16), (2, 9), (1, 11)])
def test_derive_ignores_bound(alpha, beta):
    pair = ("derive", "--alpha", str(alpha), "--beta", str(beta))
    plain = run(*pair)
    for bound in ("1", "4"):
        bounded = run("--bound", bound, *pair)
        assert (bounded.exit_code, bounded.output) == (plain.exit_code, plain.output)


# sha256 of the derive JSON, as the CLI prints it, of the 66 pairs that derive
# in test_coverage_up_to_level_60, concatenated in its order; computed with
# the elimination over Fraction rows
DERIVE_UP_TO_60_SHA256 = "1d84a6087e9c2a7a9af069521b5d9a262ba7d68edc5f97e7e92302cc64b7608b"

# sha256 of the basis JSON, as the CLI prints it, at levels 14, 22 and 26
# (registered families), 33 (short of dim M4) and 36 (walk picks),
# concatenated in this order; computed with every series a QSeries
BASIS_LEVELS_SHA256 = "17b4aaddea6ef663f55ffe24cef16c75234d184c3fdb13a73bf17acfb77e399a"


def test_basis_output_is_unchanged():
    digest = hashlib.sha256()
    for level in (14, 22, 26, 33, 36):
        result = run("basis", "--level", str(level))
        assert result.exit_code == 0
        digest.update(result.stdout.encode())
    assert digest.hexdigest() == BASIS_LEVELS_SHA256


def test_coverage_up_to_level_60():
    """Every coprime pair alpha < beta with alpha*beta <= 60 verifies to 300
    or is refused with exit 3 for want of a basis spanning the target, and
    the formulas are byte for byte those of DERIVE_UP_TO_60_SHA256."""
    refused = set()
    derived = hashlib.sha256()
    for level in range(2, 61):
        for alpha in (a for a in range(1, level) if level % a == 0 and a * a < level):
            beta = level // alpha
            if gcd(alpha, beta) != 1:
                continue
            try:
                formula = derive_formula(alpha, beta)
                assert verify_formula(formula, 300).ok, (alpha, beta)
                derived.update((json.dumps(formula.to_json_dict(), indent=2) + "\n").encode())
            except Unsolvable:
                refused.add(level)
                result = run("verify", "--alpha", str(alpha), "--beta", str(beta), "--nmax", "300")
                assert result.exit_code == 3 and result.output.startswith(f"error: level {level}: ")
    assert refused == {7, 11, 13, 17, 19, 21, 23, 29, 31, 33, 37, 38, 39, 41, 43, 46, 47, 49, 51, 53, 55, 57, 58, 59}
    assert derived.hexdigest() == DERIVE_UP_TO_60_SHA256


def test_level_without_eta_quotients_derives_from_E4_alone():
    # dim M4(3) = 2 is spanned by E4(q) and E4(q^3); at level 7 they reach
    # rank 2 of 3 and the target lies outside their span
    spanned = run("verify", "--alpha", "1", "--beta", "3", "--nmax", "300")
    assert spanned.exit_code == 0 and json.loads(spanned.output)["mismatches"] == []
    short = run("derive", "--alpha", "1", "--beta", "7")
    assert short.exit_code == 3
    assert "level 7: no weight-4 eta quotient exists (4*mu/12 = 8/3 is not an integer)" in short.output
    assert "E4(q^t) alone reach rank 2 of dim M4 = 3" in short.output


def test_outputs_are_deterministic():
    a = run("--truncation", "64", "derive", "--alpha", "2", "--beta", "7")
    b = run("--truncation", "64", "derive", "--alpha", "2", "--beta", "7")
    assert a.output == b.output


def test_rep_nmax_must_be_positive():
    assert run("rep", "--a", "1", "--b", "1", "--nmax", "0").exit_code == 2


@pytest.mark.parametrize("command", ["search", "basis"])
@pytest.mark.parametrize("level", ["0", "-3"])
def test_level_must_be_positive(command, level):
    result = run(command, "--level", level)
    assert result.exit_code == 2
    assert "argument --level: " in result.output


MERSENNE_61 = str(2**61 - 1)  # a prime: trial division to its square root takes minutes


@pytest.mark.parametrize(
    "args,message",
    [
        (("ligozat", f'{{"level": {MERSENNE_61}, "exponents": {{"1": 24}}}}'), "level must be in 1..1000000"),
        (("expand", f'{{"level": {MERSENNE_61}, "exponents": {{"1": 24}}}}'), "level must be in 1..1000000"),
        (("search", "--level", MERSENNE_61), "is not in the range 1<=x<=1000000"),
        (("basis", "--level", MERSENNE_61), "is not in the range 1<=x<=1000000"),
        (("derive", "--alpha", "1", "--beta", MERSENNE_61), "level alpha*beta must be at most 1000000"),
        (("verify", "--alpha", "1", "--beta", MERSENNE_61, "--nmax", "10"), "level alpha*beta must be at most 1000000"),
        (("table", "--pairs", f"1,{MERSENNE_61}"), "level alpha*beta must be at most 1000000"),
    ],
    ids=["ligozat", "expand", "search", "basis", "derive", "verify", "table"],
)
def test_level_above_the_ceiling_exits_2_before_factoring(args, message):
    result = run(*args)
    assert result.exit_code == 2 and result.stdout == ""
    assert message in result.stderr and "Traceback" not in result.stderr


def test_wide_slot_expansion_is_unchanged():
    """eta(z)^240 / eta(2z)^120 to q^1000 runs multiply passes with every
    slot width from 16 bits to over 400; its output is pinned by the sha256
    of what the list-loop multiply pass printed (108524 bytes)."""
    result = run("--truncation", "1000", "expand", '{"level": 2, "exponents": {"1": 240, "2": -120}}')
    assert result.exit_code == 0 and len(result.stdout) == 108524
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "d857ebdf172d9f1a3ce18fa411533158679e4e8221e641ed76e41f0344f35e55"
    )


def test_search_bound_must_be_positive():
    assert run("--bound", "0", "derive", "--alpha", "2", "--beta", "3").exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ("--truncation", "1000000000000", "expand", '{"level": 1, "exponents": {"1": 24}}'),
        ("verify", "--alpha", "1", "--beta", "2", "--nmax", "1000000000000"),
        ("rep", "--a", "1", "--b", "1", "--nmax", "1000000000000"),
    ],
    ids=["truncation", "verify-nmax", "rep-nmax"],
)
def test_impossible_size_is_input_error(args):
    result = run(*args)
    assert result.exit_code == 2
    assert "is not in the range 1<=x<=1000000" in result.output and "Traceback" not in result.output


def test_readme_examples_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in cli_block.splitlines() if line.startswith("divconv ")]
    assert len(commands) >= 8
    for args in commands:
        result = run(*args)
        assert result.exit_code == 0, (args, result.output)


def test_module_entry_point_lists_every_command():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-m", "divconv.cli", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    listing = result.stdout.split("Commands:", 1)[1].splitlines()
    commands = [line.split()[0] for line in listing if line.strip()]
    assert commands == ["basis", "derive", "expand", "ligozat", "rep", "search", "table", "verify"]


def test_startup_loads_no_expand_only_module():
    """Importing the CLI loads what table, verify, derive and rep run, and
    not the expand-only cache (with hashlib, and so OpenSSL), QSeries or
    dataclasses; expand imports them when it runs. Nor does it load click or
    the modules click brings (inspect, uuid, platform, datetime), nor csv,
    since the CSV commands join their rows as text."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import divconv.cli, sys; print(' '.join(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "divconv.convolution" in loaded
    assert loaded & {"hashlib", "_hashlib", "dataclasses", "divconv.cache", "divconv.qseries"} == set()
    assert loaded & {"click", "inspect", "uuid", "platform", "datetime", "csv", "_csv"} == set()


def test_closed_stdout_is_not_an_error():
    """`divconv rep ... | head -1` once head has exited: the output has no
    reader, which is not an input error, so the command exits 0 and writes
    nothing to stderr. The pipe's read end is closed before the command
    starts, so the first write fails whatever the pipe's capacity."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "divconv.cli", "rep", "--a", "1", "--b", "1", "--nmax", "20000"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, b"")


@pytest.mark.parametrize(
    "args,sha256",
    [
        (("table",), "c39426f653897efd86d459cc8818306057ef41a8b767a5c2451d03801ea82033"),
        (
            ("rep", "--a", "1", "--b", "3", "--nmax", "50"),
            "59030a092ed910daac9ec0dbb0b6da668291820a03cec69cc6b6d9d8f5a3c177",
        ),
    ],
    ids=["table", "rep"],
)
def test_csv_commands_write_the_same_bytes(args, sha256):
    """The raw stdout of a CSV command, "\\r\\n" line ends included, as a
    console script writes it: run_cli reads "\\r\\n" as "\\n", so the pins
    above would not see a change of line terminator."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-m", "divconv.cli", *args], env=env, capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert b"\r\n" in result.stdout
    assert hashlib.sha256(result.stdout).hexdigest() == sha256


def table_rows(pairs):
    """The rows of table for the pairs, as tuples of the values the csv module formats."""
    rows = [("alpha", "beta", "term", "coefficient")]
    for alpha, beta in pairs:
        terms = derive_formula(alpha, beta).rendered_terms()
        rows += [(alpha, beta, f"sigma3(n/{d})", c) for d, c in terms["sigma3"].items()]
        for d, (c0, c1) in terms["sigma"].items():
            rows += [(alpha, beta, f"sigma(n/{d}).const", c0), (alpha, beta, f"sigma(n/{d}).linear", c1)]
        rows += [(alpha, beta, f"cusp.{eid}", c) for eid, c in terms["cusp"]]
    return rows


def rep_rows(a, b, nmax):
    """The rows of rep, from the two tables that the command reads."""
    formula = representations_module.octonary_formula_table(a, b, nmax)
    oracle = representations_module.octonary_count_table(a, b, nmax)
    return [("n", "formula_value", "oracle_value", "match")] + [
        (n, formula[n], oracle[n], str(formula[n] == oracle[n]).lower()) for n in range(1, nmax + 1)
    ]


def assert_writes_csv(args, rows, code=0):
    """The command exits with code and prints what csv.writer makes of the
    rows, none of whose fields holds a character that it would quote."""
    assert not any(set(str(field)) & set(',"\r\n') for row in rows for field in row), args
    out = io.StringIO()  # no newline translation, so the "\r\n" stay as written
    with contextlib.redirect_stdout(out):
        assert main(args, standalone_mode=False) == code, args
    assert out.getvalue() == reference_csv(rows), args


def test_csv_commands_write_what_the_csv_module_writes(monkeypatch):
    """table and rep join their rows as text; what they print, "\\r\\n" line
    ends included, is what csv.writer makes of the same rows, and no field
    holds a character (, " \\r \\n) that the csv module would quote, so the
    join never needs quoting. table is checked with the default pairs, one
    pair and a repeated pair; rep at --nmax 1, 2 and 50, and with a formula
    value put off by one, which writes a false row."""
    assert_writes_csv(["table"], table_rows([(2, 7), (1, 22), (2, 11), (1, 26), (2, 13)]))
    assert_writes_csv(["table", "--pairs", "2,7"], table_rows([(2, 7)]))
    assert_writes_csv(["table", "--pairs", "2,7;1,26;2,7"], table_rows([(2, 7), (1, 26), (2, 7)]))
    for a, b in SUPPORTED_PAIRS:
        for nmax in (1, 2, 50):
            assert_writes_csv(["rep", "--a", str(a), "--b", str(b), "--nmax", str(nmax)], rep_rows(a, b, nmax))
    formula = representations_module.octonary_formula_table
    monkeypatch.setattr(representations_module, "octonary_formula_table", lambda a, b, n: formula(a, b, n)[:7] + [0])
    rows = rep_rows(1, 3, 7)
    assert [row[3] for row in rows[1:]] == ["true"] * 6 + ["false"]
    assert_writes_csv(["rep", "--a", "1", "--b", "3", "--nmax", "7"], rows, code=1)


def test_exponent_past_the_ceiling_is_refused_by_its_divisor():
    """An exponent that int reads but that is past -10^6..10^6 is refused
    where the quotient is read, naming its divisor, before any message
    formats a number too long to print; the ceiling itself is accepted."""
    result = run("--truncation", "10", "expand", f'{{"level": 2, "exponents": {{"1": 24, "2": {NINES}}}}}')
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == "error: the exponent of divisor 2 must be in -1000000..1000000\n"
    result = run("ligozat", '{"level": 2, "exponents": {"1": 1000000, "2": -1000001}}')
    assert result.exit_code == 2 and "exponent of divisor 2" in result.stderr
    result = run("ligozat", '{"level": 2, "exponents": {"1": 1000000, "2": -1000000}}')
    assert result.exit_code == 0 and json.loads(result.output)["weight"] == "0/1"
