import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flatperm import (bijections, cli, closed_forms, recurrences,
                      verification)
from flatperm.cli import main
from flatperm.perm_core import (CycleForm, VincularPattern3, _count_word,
                                flatten_cycle_form)
from flatperm.qpoly import IdentityViolation
from flatperm.recurrences import ALL_PATTERNS, PatternId

PAT_23_1 = VincularPattern3.from_string("23-1")
PAT_32_1 = VincularPattern3.from_string("32-1")


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_distribution_both_json(capsys):
    status, out, _ = run(capsys, "distribution", "--pattern", "12-3",
                         "--n", "3", "--method", "both", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["coefficients"] == {"0": "2", "1": "4"}
    assert payload["match"] is True


def test_distribution_n2_all_patterns(capsys):
    for pattern in ("12-3", "21-3", "23-1", "32-1", "31-2"):
        status, out, _ = run(capsys, "distribution", "--pattern", pattern,
                             "--n", "2", "--format", "json")
        assert status == 0
        assert json.loads(out)["coefficients"] == {"0": "2"}


def test_distribution_usage_errors(capsys):
    status, _, err = run(capsys, "distribution", "--pattern", "31-2", "--n", "0")
    assert status == 2 and "positive" in err
    with pytest.raises(SystemExit) as exc:
        run(capsys, "distribution", "--pattern", "14-2", "--n", "3")
    assert exc.value.code == 2


def test_distribution_brute_cap(capsys):
    status, _, err = run(capsys, "distribution", "--pattern", "31-2",
                         "--n", "12", "--method", "brute")
    assert status == 2 and "cap" in err and "10" in err


def test_recurrence_cap(capsys):
    status, _, err = run(capsys, "distribution", "--pattern", "31-2",
                         "--n", "201")
    assert status == 2 and "200" in err
    status, _, err = run(capsys, "table", "--n-max", "201")
    assert status == 2 and "200" in err


def test_verify_oracle_example(capsys):
    status, out, _ = run(capsys, "verify", "--suite", "oracle", "--n-max", "7")
    assert status == 0
    lines = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(lines) == 5  # one line per pattern
    assert "FAIL" not in out


def test_distribution_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("FLATPERM_MAX_N", "4")
    status, _, err = run(capsys, "distribution", "--pattern", "31-2",
                         "--n", "5", "--method", "brute")
    assert status == 2 and "cap is 4" in err
    monkeypatch.setenv("FLATPERM_MAX_N", "5")
    status, out, _ = run(capsys, "distribution", "--pattern", "31-2",
                         "--n", "5", "--method", "brute", "--format", "csv")
    assert status == 0
    assert out.splitlines()[0] == "pattern,n,source,exponent,coefficient"


def test_table_csv(capsys):
    status, out, _ = run(capsys, "table", "--n-max", "4", "--format", "csv")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "pattern,n,avoiders,average_num,average_den"
    rows = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in lines[1:]}
    assert rows[("31-2", "4")] == ["20", "1", "6"]
    assert rows[("23-1", "4")] == rows[("32-1", "4")]
    for pattern in ("13-2", "31-2", "21-3", "32-1", "23-1", "12-3"):
        assert rows[(pattern, "1")] == ["1", "0", "1"]


def test_series_outputs(capsys):
    status, out, _ = run(capsys, "series", "--which", "g31_2_r0", "--order", "6")
    assert status == 0
    values = [line.split(": ")[1] for line in out.splitlines()[1:]]
    assert values == ["0", "0", "0", "6", "20", "70"]
    status, out, _ = run(capsys, "series", "--which", "egf_21_3",
                         "--order", "3", "--format", "json")
    assert json.loads(out)["coefficients"] == ["2/1", "6/1", "10/1"]
    status, _, err = run(capsys, "series", "--which", "egf_12_3", "--order", "0")
    assert status == 2 and "positive" in err
    status, _, err = run(capsys, "series", "--which", "egf_12_3", "--order", "65")
    assert status == 2 and "cap" in err


def test_verify_suite_pass(capsys):
    status, out, _ = run(capsys, "verify", "--suite", "bijections",
                         "--n-max", "5")
    assert status == 0
    assert "PASS" in out and "FAIL" not in out
    status, out, _ = run(capsys, "verify", "--suite", "refined",
                         "--n-max", "5", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(check["passed"] for check in payload["checks"])


def _first_source(n, predicate):
    """The first 23-1 avoider, in the bijection suite's order of marked
    partitions of {2,...,n}, whose flattened word satisfies predicate."""
    for mp in bijections.enumerate_marked_partitions(n):
        cf = bijections.partition_to_23_1_avoider(mp)
        if predicate(flatten_cycle_form(cf).word):
            return cf
    raise AssertionError("no such source")


def test_verify_failure_names_the_counterexample(capsys, monkeypatch):
    # failure text is built only when a check fails; it must still name
    # the input that broke the round trip.  The reversal check reverses
    # each source's word and then the image's, so the reversal is broken
    # on the first word that contains 23-1: no source's word does, so
    # only the round trip reads it
    original = bijections._chain_reversal
    broken = []

    def reverse(word):
        if not broken and _count_word(word, PAT_23_1):
            broken.append(tuple(original(word)))
            return list(range(1, len(word) + 1))
        return original(word)

    monkeypatch.setattr(bijections, "_chain_reversal", reverse)
    status, out, _ = run(capsys, "verify", "--suite", "bijections",
                         "--n-max", "4")
    assert status == 1
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    source = _first_source(4, broken[0].__eq__)
    assert fails == [
        "FAIL  [bijections] 23-1 avoiders <-> 32-1 avoiders: "
        f"n=4: round trip failed for {source}"]
    assert lines[-1] == "2/3 checks passed"


def _bijection_lines(capsys, n_max):
    status, out, _ = run(capsys, "verify", "--suite", "bijections",
                         "--n-max", str(n_max))
    assert status == 1
    lines = out.splitlines()
    assert lines[-1] == "2/3 checks passed"
    return [line for line in lines if line.startswith("FAIL")]


def test_reversal_image_that_contains_32_1_fails_by_name(capsys,
                                                         monkeypatch):
    # a reversal that changes nothing maps each source to itself, which
    # is a valid cycle form with its letters in place; the first source
    # whose word contains 32-1 must fail, before the round trip
    monkeypatch.setattr(bijections, "_chain_reversal", list)
    source = _first_source(4, lambda word: _count_word(word, PAT_32_1))
    assert _bijection_lines(capsys, 4) == [
        "FAIL  [bijections] 23-1 avoiders <-> 32-1 avoiders: "
        f"n=4: image contains 32-1: {source}"]


def test_reversal_that_moves_letters_across_cycles_fails_by_name(
        capsys, monkeypatch):
    # swapping the words 132 and 123 keeps every image a valid 32-1
    # avoider and every round trip intact, but (1,3)(2) maps to (1,2)(3)
    original = bijections._chain_reversal
    swap = {(1, 3, 2): [1, 2, 3], (1, 2, 3): [1, 3, 2]}
    monkeypatch.setattr(bijections, "_chain_reversal",
                        lambda word: swap.get(word) or original(word))
    assert _bijection_lines(capsys, 4) == [
        "FAIL  [bijections] 23-1 avoiders <-> 32-1 avoiders: "
        "n=3: letters changed cycle in (1,3)(2)"]


def test_partition_round_trip_failure_names_the_partition(capsys,
                                                          monkeypatch):
    # the partition check compares the inverse's fields with the source
    # partition's; inverted marks at n = 3 must name the first source
    original = bijections._runs_partition

    def runs_partition(c, word):
        blocks, marks = original(c, word)
        if len(word) == 3:
            marks = tuple(not m for m in marks)
        return blocks, marks

    monkeypatch.setattr(bijections, "_runs_partition", runs_partition)
    assert _bijection_lines(capsys, 4) == [
        "FAIL  [bijections] marked partitions <-> 23-1 avoiders: "
        "n=3: round trip failed for MarkedPartition(blocks=((3, 2),), "
        "marks=(False,))"]


def test_partition_image_size_must_equal_the_avoider_count(capsys,
                                                           monkeypatch):
    # every record passes; only the cardinality at n = 3 is off
    original = closed_forms.avoiders
    monkeypatch.setattr(closed_forms, "avoiders", lambda pattern, n: original(
        pattern, n) + (pattern == "23-1" and n == 3))
    assert _bijection_lines(capsys, 4) == [
        "FAIL  [bijections] marked partitions <-> 23-1 avoiders: "
        "n=3: image size 6 != avoider count"]


def test_broken_partition_map_fails_both_checks_that_share_it(capsys,
                                                               monkeypatch):
    # both bijection checks read one set of partition-map images; breaking
    # the map must fail each of them with its own counterexample, map each
    # marked partition once, and leave the third check running
    original = bijections.partition_to_23_1_avoider
    calls = []
    broken = []

    def forward(mp):
        calls.append(mp)
        image = original(mp)
        n = mp.n
        identity = CycleForm(tuple((x,) for x in range(1, n + 1)))
        if n == 3 and image != identity:
            broken.append(mp)
            return identity
        return image

    monkeypatch.setattr(bijections, "partition_to_23_1_avoider", forward)
    status, out, _ = run(capsys, "verify", "--suite", "bijections",
                         "--n-max", "4")
    assert status == 1
    lines = out.splitlines()
    assert lines[:3] == [
        "FAIL  [bijections] marked partitions <-> 23-1 avoiders: "
        f"n=3: ascent count != block count for {broken[0]}",
        "FAIL  [bijections] 23-1 avoiders <-> 32-1 avoiders: "
        "n=3: not a bijection onto the 32-1 avoiders: (1)(2)(3) maps to "
        "(1)(2)(3), as the earlier source (1)(2)(3) does",
        "PASS  [bijections] 31-2 avoidance equals 3-1-2 avoidance: "
        "flattened 31-2 avoidance == classical 3-1-2 avoidance, n=1..5"]
    assert lines[3:] == ["1/3 checks passed"]
    # both checks stop at n = 3, so n = 4 is never mapped
    assert sorted(mp.n for mp in calls) == [1] + [2] * 2 + [3] * 6
    assert len(set(calls)) == len(calls)


def test_partition_map_outside_the_domain_fails_both_checks(capsys,
                                                           monkeypatch):
    # an image that contains 23-1 fails the partition check by name, and
    # the reversal check with the forward map's own ValueError text, which
    # the suite raises itself from the count it stored
    original = bijections.partition_to_23_1_avoider
    calls = []

    def forward(mp):
        calls.append(mp)
        if mp.n == 4:
            return CycleForm(((1, 3, 4, 2),))
        return original(mp)

    monkeypatch.setattr(bijections, "partition_to_23_1_avoider", forward)
    status, out, _ = run(capsys, "verify", "--suite", "bijections",
                         "--n-max", "5")
    assert status == 1
    assert out.splitlines() == [
        "FAIL  [bijections] marked partitions <-> 23-1 avoiders: n=4: "
        "image contains 23-1: MarkedPartition(blocks=((4, 3, 2),), "
        "marks=(False,))",
        "FAIL  [bijections] 23-1 avoiders <-> 32-1 avoiders: "
        "flattened form contains 23-1; not in the bijection's domain",
        "PASS  [bijections] 31-2 avoidance equals 3-1-2 avoidance: "
        "flattened 31-2 avoidance == classical 3-1-2 avoidance, n=1..6",
        "1/3 checks passed"]
    # one sweep per n serves both checks; both stop at n = 4
    assert sorted(mp.n for mp in calls) == [1] + [2] * 2 + [3] * 6 + [4] * 22
    assert len(set(calls)) == len(calls)


#: SHA-256 of `verify --suite bijections --n-max 8 --format text` stdout,
#: recorded while each check still called the public maps on every source.
#: n = 8 is one past the default bound that VERIFY_ALL_SHA256 covers.
VERIFY_BIJECTIONS_N8_SHA256 = \
    "496d7537f50d63eca5ef44026f57cf7cf65104a3659406fc20c2a50dcf4abf29"


def test_verify_bijections_past_the_default_bound_is_pinned(capsys):
    status, out, _ = run(capsys, "verify", "--suite", "bijections",
                         "--n-max", "8")
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() \
        == VERIFY_BIJECTIONS_N8_SHA256


@pytest.mark.parametrize("name", ["avoiders", "total_occurrences"])
def test_distribution_checks_the_closed_forms(capsys, monkeypatch, name):
    # every recurrence result also meets the avoider count and the
    # occurrence total; a closed form off by one must stop the command.
    # Only the pattern's own value is shifted: the 12-3 and 21-3 totals
    # subtract an auxiliary total, which shifted too would cancel out
    original = getattr(closed_forms, name)
    monkeypatch.setattr(closed_forms, name, lambda pattern, n: original(
        pattern, n) + isinstance(pattern, PatternId))
    for pattern in PatternId:
        with pytest.raises(IdentityViolation) as exc:
            run(capsys, "distribution", "--pattern", pattern.value,
                "--n", "12")
        assert str(exc.value).startswith(f"{pattern.value}, n=12: ")
    assert capsys.readouterr().out == ""
    if name == "total_occurrences":
        # below n = 3 there is no occurrence total to compare
        status, _, _ = run(capsys, "distribution", "--pattern", "23-1",
                           "--n", "2")
        assert status == 0


#: SHA-256 of `series --which W --order 64 --format F` stdout, recorded
#: when the series were still expanded over Fraction throughout.
SERIES_ORDER_64_SHA256 = {
    ("g31_2_r0", "text"): "a0bccfb76a4ee69c34a9edc5984b5954a96104db91ff57115db3bf51b62dec7b",
    ("g31_2_r0", "json"): "7b78a377919bbe3ca2e56129646fd8acb74a0dd174bce1bf0d23e330a319c79d",
    ("g31_2_r0", "csv"): "74994fe63ad8815bb3df0fa5f90ab177c89b4f044a6d7f34a14917201f93f0d3",
    ("g31_2_r1", "text"): "8049c0a14572ea7231dd8d23619b6de93f9828f93a96434ec9c5adef1a2c96a7",
    ("g31_2_r1", "json"): "1141570e0e136d824afcfcde42ee18a0e8da884b2c6e16e13aa08ceec95756ca",
    ("g31_2_r1", "csv"): "fb2cfa89bf3c2113074f9f9c2adf1adc4346c3e73e9baa97fb7ce906fd775b9e",
    ("g31_2_r2", "text"): "5dc7ac7679f777bdcb91e9d277b7eea2bed4f11ce0208c09d4de39b7e2990e50",
    ("g31_2_r2", "json"): "225efc65b56e388f1d1f3e538c37fc6f5aa08a0f0859be3b0dcd530f27e18f53",
    ("g31_2_r2", "csv"): "7ebaf94f853a099ce08fdb6ab8644682e22f330c1e1460b24d9226c35a5a7212",
    ("g31_2_r3", "text"): "bb317f37a739c74afd939215b544cafe7214af44c23d1a1b8a569c360cd9c640",
    ("g31_2_r3", "json"): "eaf963e270ce2e22612730bd7bd9d693e444f0334582e95cced396d5903f3a1c",
    ("g31_2_r3", "csv"): "b8131022f8d167af61a3fd85a40d3021a525626dd43455a1d469ab16efb1b25e",
    ("egf_21_3", "text"): "ebb68c33b6096a3beacb308febdb9cdce858cb0e54e171cf973872c599629872",
    ("egf_21_3", "json"): "4c66b65710f4747b5fa9aaf51c14e666728b0d762700d99002096ce57df182cb",
    ("egf_21_3", "csv"): "5c3fd075e10d3d7bf160bb086fd14b1ed91e87624f3797cbd56c8da9572bb678",
    ("egf_12_3", "text"): "5e81aa0a3430b2e156f74c4a457d80344d427c6eb89676253b1f11e842936d49",
    ("egf_12_3", "json"): "d0112b361efeb37a4371929749418193bf84fc97f969c67e1c70dcf6fa063860",
    ("egf_12_3", "csv"): "7290603f671b39eb1c7aa5402798db6b3bc0f3b1a5034ca64cd16afbea6a41c0",
}


@pytest.mark.parametrize("which,fmt", sorted(SERIES_ORDER_64_SHA256))
def test_series_order_64_output_is_pinned(capsys, which, fmt):
    status, out, _ = run(capsys, "series", "--which", which, "--order", "64",
                         "--format", fmt)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() \
        == SERIES_ORDER_64_SHA256[which, fmt]


#: SHA-256 of `verify --suite all --format F` stdout.  The acceptance tests
#: assert on verify's results, so a narrowed bound or a changed check must
#: show here.
VERIFY_ALL_SHA256 = {
    "text": "8a6bdf3735f50ccef75b3b09a3faa3d78769b7e1cfb14ca4a97881ec35086c3b",
    "json": "cd57680b58805d362f9d4c9561dfff63ee7b2fabef41cdec2a956566e68a8c63",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_ALL_SHA256))
def test_verify_all_output_is_pinned(capsys, fmt):
    status, out, _ = run(capsys, "verify", "--suite", "all", "--format", fmt)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256[fmt]


def _benchmark_reference():
    path = Path(__file__).parents[1] / "perfbench" / "reference.json"
    return json.loads(path.read_text())


def test_verify_all_pin_matches_the_benchmark_reference():
    pinned = _benchmark_reference()["stdout_sha256"]
    assert pinned["verify --suite all"] == VERIFY_ALL_SHA256["text"]


# The production route past n = 40, where the coefficient-table check stops,
# against the digests that the benchmark checks every pass against.

@pytest.mark.parametrize("pattern", [p.value for p in ALL_PATTERNS])
def test_distribution_n_50_matches_the_benchmark_reference(capsys, pattern):
    argv = ("distribution", "--pattern", pattern, "--n", "50",
            "--format", "json")
    status, out, err = run(capsys, *argv)
    assert (status, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() \
        == _benchmark_reference()["stdout_sha256"][" ".join(argv)]


def test_table_n_200_matches_the_benchmark_reference(capsys):
    argv = ("table", "--n-max", "200")
    status, out, err = run(capsys, *argv)
    assert (status, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() \
        == _benchmark_reference()["stdout_sha256"][" ".join(argv)]


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_refined_rows_match_the_benchmark_reference(pattern):
    # digested as perfbench/child.py's _row_digest does
    pinned = _benchmark_reference()["refined_row_sha256"]
    for n in range(2, 41):
        row = [recurrences.refined_g1k(pattern, n, k) for k in range(2, n + 1)]
        text = "\n".join(",".join(map(str, v.coeffs)) for v in row)
        assert hashlib.sha256(text.encode()).hexdigest() \
            == pinned[f"{pattern} n={n}"]


def test_verify_rejects_non_positive_n_max(capsys):
    for n_max in ("0", "-2"):
        status, out, err = run(capsys, "verify", "--suite", "bijections",
                               "--n-max", n_max)
        assert (status, out) == (2, "")
        assert err == f"error: n_max must be positive, got {n_max}\n"


def test_verify_refuses_n_max_past_the_suite_limit(capsys):
    # the oracle refuses S_n past 10, so "all" takes that limit
    status, out, err = run(capsys, "verify", "--suite", "all", "--n-max", "11")
    assert (status, out) == (2, "")
    assert err == "error: n_max=11 exceeds the limit 10 of suite 'all'\n"
    # series expands to order n_max + 1, at most 64
    status, out, _ = run(capsys, "verify", "--suite", "series",
                         "--n-max", "63")
    assert status == 0 and "FAIL" not in out
    status, out, err = run(capsys, "verify", "--suite", "series",
                           "--n-max", "64")
    assert (status, out) == (2, "")
    assert "limit 63" in err


@pytest.mark.parametrize("n_max", ["1", "2"])
def test_verify_series_below_the_31_2_minimum_order(capsys, n_max):
    # the 31-2 closed forms assemble at order 4 or more, past n_max + 1 here
    status, out, _ = run(capsys, "verify", "--suite", "series",
                         "--n-max", n_max)
    assert status == 0
    assert out.count("PASS  ") == 4 and out.endswith("4/4 checks passed\n")
    status, out, _ = run(capsys, "verify", "--suite", "all", "--n-max", n_max)
    assert status == 0 and "FAIL" not in out


#: The checks of `verify --suite all` whose range of n is empty at small
#: bounds: each still passes, and its detail says that it compared nothing.
EMPTY_AT_N_MAX = {
    1: {f"[refined] {p} g_n(1k) == brute force": "n=2..1" for p in ALL_PATTERNS}
    | {"[refined] prefix-12 relations": "n=2..1",
       "[series] 31-2 generating functions vs the table": "n=3..1",
       "[series] avoider EGFs vs closed forms": "n=2..1",
       "[identities] occurrence totals vs brute force": "n=3..1",
       "[identities] occurrence-total pairing identities": "n=3..1"},
    2: {"[series] 31-2 generating functions vs the table": "n=3..2",
        "[identities] occurrence totals vs brute force": "n=3..2",
        "[identities] occurrence-total pairing identities": "n=3..2"},
}


@pytest.mark.parametrize("n_max", sorted(EMPTY_AT_N_MAX))
def test_verify_checks_that_compare_nothing_say_so(capsys, n_max):
    status, out, _ = run(capsys, "verify", "--suite", "all",
                         "--n-max", str(n_max))
    assert status == 0
    lines = out.splitlines()
    assert lines[-1] == "31/31 checks passed"
    empty = {}
    for line in lines[:-1]:
        assert line.startswith("PASS  ")
        name, _, detail = line[len("PASS  "):].partition(": ")
        if "no n compared" in detail:
            empty[name] = detail
    assert empty == {name: f"no n compared: {span} is empty"
                     for name, span in EMPTY_AT_N_MAX[n_max].items()}


def test_closed_stdout_exits_1_without_a_traceback():
    # table --n-max 200 writes 262 kB, past a 64 kB pipe buffer, so the
    # write fails once the reader has closed its end
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen([sys.executable, "-m", "flatperm.cli", "table",
                           "--n-max", "200"], env=env,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(10) == b"pattern   "
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait()
    assert (status, err) == (1, b"")


def test_verify_limit_is_checked_before_any_check(monkeypatch):
    def no_check(report, n_max):
        raise AssertionError("a suite ran")

    for name in verification.SUITES:
        monkeypatch.setitem(verification._SUITE_RUNNERS, name, no_check)
    with pytest.raises(ValueError, match="limit 10 of suite 'bijections'"):
        verification.run_suite("bijections", 11)


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--suite", "everything")
    assert exc.value.code == 2


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "table", "--n-max", "5", "--format", "json")
    _, second, _ = run(capsys, "table", "--n-max", "5", "--format", "json")
    assert first == second


def test_main_reuses_one_parser(capsys):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    # a parse that fails leaves the shared parser as it was
    with pytest.raises(SystemExit):
        main(["distribution", "--pattern", "13-2", "--n", "3"])
    with pytest.raises(SystemExit):
        main(["verify"])
    capsys.readouterr()
    status, out, _ = run(capsys, "distribution", "--pattern", "12-3",
                         "--n", "3", "--format", "json")
    assert status == 0 and json.loads(out)["coefficients"] == {"0": "2",
                                                                "1": "4"}


def test_json_round_trip_idempotent(capsys):
    _, out, _ = run(capsys, "distribution", "--pattern", "23-1", "--n", "4",
                    "--method", "both", "--format", "json")
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    status, out, _ = run(capsys, "table", "--n-max", "3", "--format", "json",
                         "--out", str(target))
    assert status == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["n_max"] == 3


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_out_path_that_cannot_be_written_exits_2(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x.txt" if where == "missing-dir" \
        else tmp_path
    status, out, err = run(capsys, "table", "--n-max", "3",
                           "--out", str(target))
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert err.count("\n") == 1


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # start-up: the value classes are plain __slots__ classes and no
    # annotation needs typing, so a bare interpreter imports neither
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = (f"import sys; sys.path.insert(0, {src!r})\n"
             "import flatperm.cli\n"
             "print(sorted({'dataclasses', 'inspect', 'typing'}"
             " & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["[]"]
