import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from mirigs.cli import main
from mirigs.expressions import MAX_NESTING
from mirigs.monoid import (
    MAX_GENERATORS,
    MAX_RENDER_ALPHABET,
    letter,
    parse_word,
    render_tree,
    tree_of_word,
)
from mirigs.quotients import MAX_CAMPION_MONOID_SIZE
from mirigs.subsemigroups import RepleteSubsemigroup
from mirigs.triples import MAX_EVAL_N
from mirigs.verify import PINNED

from conftest import random_expression

SRC = Path(__file__).resolve().parents[1] / "src"
CENSUS_SCRIPT = SRC.parent / "scripts" / "census.py"
CHILD_ADDRESS_SPACE = 1 << 30
ALL_LETTERS = "+".join(letter(g) for g in range(MAX_EVAL_N))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _limit_child_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def run_child(*argv, command=("-m", "mirigs")):
    """Run the CLI (or another command) in a fresh interpreter with a 1 GiB
    address-space limit and a 60 s timeout, so that a regression fails
    instead of exhausting the machine."""
    return subprocess.run(
        [sys.executable, *command, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=_limit_child_memory,
    )


class TestWordCommands:
    def test_word_normalize(self, capsys):
        code, out, _ = run(capsys, "word-normalize", "bcac")
        assert code == 0
        assert "tree: (((() b b ()) c b (() c c ())) a b ((() c c ()) a a (() c c ())))" in out
        assert "shortest: bcac" in out

    def test_word_normalize_shortens(self, capsys):
        code, out, _ = run(capsys, "word-normalize", "abab")
        assert code == 0 and "shortest: ab" in out

    def test_word_normalize_json(self, capsys):
        code, out, _ = run(capsys, "word-normalize", "--format", "json", "aa")
        data = json.loads(out)
        assert code == 0 and data == {"tree": "(() a a ())", "shortest": "a"}

    def test_word_normalize_past_shortest_cap(self, capsys):
        tree = render_tree(tree_of_word(parse_word("abcd")))
        code, out, _ = run(capsys, "word-normalize", "abcd")
        assert code == 0 and out == f"tree: {tree}\n"
        code, out, _ = run(capsys, "word-normalize", "--format", "json", "abcd")
        assert code == 0 and json.loads(out) == {"tree": tree, "shortest": None}

    def test_word_eq(self, capsys):
        assert run(capsys, "word-eq", "abc", "abcbabc")[1].strip() == "equal"
        assert run(capsys, "word-eq", "ab", "ba")[1].strip() == "different"

    def test_out_of_range_is_domain_error(self, capsys):
        code, _, err = run(capsys, "word-eq", "--n", "2", "abc", "ab")
        assert code == 1 and "out of range" in err

    def test_bad_letter_exits_2(self, capsys):
        code, out, err = run(capsys, "word-eq", "abc", "a\u00e9")
        assert code == 2 and not out and "at byte 1" in err


class TestExpressionCommands:
    def test_eval_text(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "2", "a+b")
        assert code == 0
        assert "S = {ab, aba, bab, ba}" in out
        assert "D = {a, b}" in out

    def test_eval_json_schema(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "2", "--format", "json", "a*b")
        data = json.loads(out)
        assert code == 0 and set(data) == {"S", "D", "p"}
        assert data["D"] == ["((() a a ()) b a (() b b ()))"]
        assert data["p"] == [3]

    def test_eq(self, capsys):
        code, out, _ = run(capsys, "eq", "--n", "2", "(a+b)*(a+b)", "a+b")
        assert code == 0 and out.strip() == "equal"
        code, out, _ = run(capsys, "eq", "--n", "2", "a*b", "b*a")
        assert code == 0 and out.strip() == "different"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "2", "a+")
        assert code == 2 and "byte 2" in err

    @pytest.mark.parametrize("text,offset", [("\u00b2", 0), ("a+\u0663", 2)])
    def test_non_ascii_digit_exits_2(self, capsys, text, offset):
        code, out, err = run(capsys, "eval", "--n", "2", text)
        assert code == 2 and not out and f"byte {offset}" in err

    def test_constants_past_the_int_digit_limit(self, capsys):
        odd, even = "9" * 5000, "0" * 5000 + "1" + "0" * 5000
        code, out, _ = run(capsys, "eq", "--n", "2", f"a*{odd}+b", "3*a+b")
        assert code == 0 and out.strip() == "equal"
        code, out, _ = run(capsys, "eq", "--n", "2", f"{even}*a", "2*a")
        assert code == 0 and out.strip() == "equal"
        code, out, _ = run(capsys, "eq", "--n", "2", f"{even}*a", "3*a")
        assert code == 0 and out.strip() == "different"

    def test_eval_json_pinned_past_the_tree_reference(self, capsys):
        # The tree reference stops at n = 3, so eval's output on seeded
        # expressions at four to six generators is pinned instead.
        rng = random.Random(46)
        digest = hashlib.sha256()
        for n in (4, 5, 6):
            for _ in range(40):
                code, out, _ = run(capsys, "eval", "--n", str(n), "--format", "json",
                                   random_expression(rng, n))
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "c7a4d4ca6ffbf9292deb0d03f059249ce134d6f3898af054dbbc5d1a09abee13"
        )

    def test_stdin_payload(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a+b\n"))
        code, out, _ = run(capsys, "eval", "--n", "2", "-")
        assert code == 0 and "D = {a, b}" in out


class TestCounts:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("count", "monoid", "--n", "3"), "160"),
            (("count", "mirig", "--n", "2"), "284"),
            (("count", "mirig", "--n", "2", "--strategy", "triples"), "284"),
            (("count", "replete", "--n", "3"), "18030"),
            (("count", "uniform", "--n", "2"), "12"),
            (("count", "variant", "--n", "3", "--variant", "21"), "40601"),
            (("count", "variant", "--n", "3", "--variant", "boolean_semiring"), "775"),
            (("count", "variant", "--n", "5", "--variant", "boolean_semiring"), "42122976711"),
            (("count", "replete", "--n", "4"), str(PINNED["censuses n=4"]["replete"])),
            (("count", "variant", "--n", "4", "--variant", "21"), str(PINNED["censuses n=4"]["21"])),
            (("count", "variant", "--n", "4", "--variant", "12"), str(PINNED["censuses n=4"]["12"])),
        ],
    )
    def test_values(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.strip() == expected

    def test_variant_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["count", "variant", "--n", "3"])
        assert info.value.code == 2 and "--variant" in capsys.readouterr().err

    def test_capacity_error_names_bound(self, capsys):
        code, _, err = run(capsys, "count", "mirig", "--n", "9")
        assert code == 1 and "n <= 4" in err


class TestFailFast:
    @pytest.mark.parametrize(
        "argv,limit",
        [
            (("count", "uniform", "--n", "5"), "n <= 4"),
            (("count", "uniform", "--n", "6"), "n <= 4"),
            (("count", "monoid", "--n", "14"), "n <= 13"),
            (("count", "variant", "--variant", "02", "--n", "14"), "n <= 13"),
            (("bounds", "--n", "4"), "n <= 3"),
            (("count", "variant", "--variant", "boolean_semiring", "--n", "6"), "n <= 5"),
            (("count", "mirig", "--n", "5"), "free mirig census supported for n <= 4"),
            (("count", "variant", "--variant", "12", "--n", "5"), "variant 12 census supported for n <= 4"),
            (("campion", "--monoid", "free:4"), "free idempotent monoid table supported for n <= 3"),
            (("count", "replete", "--n", "5"), "replete census supported for n <= 4"),
            (("count", "variant", "--variant", "21", "--n", "5"), "variant 21 census supported for n <= 4"),
            (("count", "variant", "--variant", "11", "--n", "5"), "variant 11 census supported for n <= 4"),
            (
                ("count", "mirig", "--strategy", "triples", "--n", "4"),
                "free mirig census by the triples strategy supported for n <= 3",
            ),
            (("enumerate", "replete", "--n", "4"), "replete enumeration supported for n <= 3"),
        ],
    )
    def test_census_past_capacity_exits_1(self, argv, limit):
        proc = run_child(*argv)
        assert proc.returncode == 1
        assert limit in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "monoid"),
            ("count", "mirig"),
            ("count", "mirig", "--strategy", "triples"),
            ("count", "replete"),
            ("count", "uniform"),
            ("count", "variant", "--variant", "11"),
            ("count", "variant", "--variant", "21"),
            ("count", "variant", "--variant", "12"),
            ("count", "variant", "--variant", "02"),
            ("count", "variant", "--variant", "boolean_semiring"),
            ("enumerate", "replete"),
            ("enumerate", "replete", "--json"),
            ("bounds",),
            ("eval", "a"),
            ("eq", "a", "a"),
        ],
        ids=" ".join,
    )
    def test_negative_n_exits_1(self, argv):
        proc = run_child(*argv, "--n", "-1")
        assert proc.returncode == 1 and not proc.stdout
        assert "n must be nonnegative" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("spec,offset", [("free:x", 5), ("free:", 5)])
    def test_campion_bad_free_monoid_exits_2(self, spec, offset):
        proc = run_child("campion", "--monoid", spec)
        assert proc.returncode == 2 and not proc.stdout
        assert f"at byte {offset}" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "table,fault",
        [
            ({"elements": ["1", "x"], "mul": [[0, 1], [1, 1]], "one": -2}, "one must be an int in 0..1"),
            ({"elements": ["1", "x"], "mul": [[0, 1], [1, 1]], "one": True}, "one must be an int in 0..1"),
            ({"elements": ["1", "x"], "one": 0}, "missing mul"),
            ([["1", "x"], [[0, 1], [1, 1]], 0], "expected a JSON object"),
            ({"elements": ["1", "x"], "mul": [[0, 1], [1]], "one": 0}, "mul row 1 must be a list of 2 entries"),
            ({"elements": ["1", "x"], "mul": [[0, 1]], "one": 0}, "mul must be a list of 2 rows"),
            ({"elements": ["1", "x"], "mul": [[0, 1], [1, 2]], "one": 0}, "mul row 1 has an entry"),
            ({"elements": ["1", "x"], "mul": [[0, 1], [1, -1]], "one": 0}, "mul row 1 has an entry"),
            ({"elements": ["1", 2], "mul": [[0, 1], [1, 1]], "one": 0}, "elements must be a list of strings"),
        ],
        ids=[
            "negative-one", "bool-one", "missing-mul", "top-level-list", "ragged-mul",
            "short-mul", "entry-past-end", "negative-entry", "non-string-element",
        ],
    )
    def test_campion_malformed_table_exits_1(self, tmp_path, table, fault):
        path = tmp_path / "monoid.json"
        path.write_text(json.dumps(table))
        proc = run_child("campion", "--monoid", str(path))
        assert proc.returncode == 1 and not proc.stdout
        assert f"error: monoid table: {fault}" in proc.stderr and "Traceback" not in proc.stderr

    def test_campion_past_table_capacity_exits_1(self, tmp_path):
        # A semilattice with a unit: a well-formed idempotent monoid, one
        # element past the cap, refused before the cubic checks start.
        size = MAX_CAMPION_MONOID_SIZE + 1
        mul = [[max(i, j) for j in range(size)] for i in range(size)]
        path = tmp_path / "monoid.json"
        path.write_text(json.dumps({"elements": [str(i) for i in range(size)], "mul": mul, "one": 0}))
        proc = run_child("campion", "--monoid", str(path))
        assert proc.returncode == 1 and not proc.stdout
        assert f"at most {MAX_CAMPION_MONOID_SIZE} elements" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_campion_negative_free_monoid_exits_1(self):
        proc = run_child("campion", "--monoid", "free:-1")
        assert proc.returncode == 1 and not proc.stdout
        assert "n must be nonnegative" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "uniform", "--n", "4"),
            ("count", "monoid", "--n", "13"),
            ("count", "variant", "--variant", "02", "--n", "13"),
            ("bounds", "--n", "3"),
            ("count", "variant", "--variant", "boolean_semiring", "--n", "5"),
        ],
    )
    def test_largest_census_answers(self, argv):
        proc = run_child(*argv)
        assert proc.returncode == 0 and proc.stdout.strip() and not proc.stderr

    def test_free_mirig_at_four_generators(self):
        # The largest n of the grouped census answers within the 1 GiB
        # address space, in tens of megabytes: the child reports its peak
        # RSS (KB) on stderr.  It reads VmHWM, the peak of its own memory
        # map, as ru_maxrss would count the pages of the forked test process
        # before the exec.
        report = (
            "import re, sys; from mirigs.cli import main; code = main(sys.argv[1:]); "
            "status = open('/proc/self/status').read(); "
            "print(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1), file=sys.stderr); "
            "sys.exit(code)"
        )
        proc = run_child("count", "mirig", "--n", "4", command=("-c", report))
        assert proc.returncode == 0
        assert proc.stdout.strip() == str(PINNED["censuses n=4"]["mirig"])
        assert int(proc.stderr) < 64 * 1024

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("eq", "--n", "4", "(a+b+c+d)*(a+b+c+d)", "a+b+c+d"), "equal"),
            (("eq", "--n", "4", "a*b+c*d", "c*d+a*b+a*b*c*d"), "different"),
            (("eq", "--n", "5", "(a+b+c+d+e)*(a+b+c+d+e)", "a+b+c+d+e"), "equal"),
            (("eq", "--n", str(MAX_EVAL_N), f"({ALL_LETTERS})*({ALL_LETTERS})", ALL_LETTERS), "equal"),
        ],
        ids=["n4-equal", "n4-different", "n5-equal", "largest-n"],
    )
    def test_eq_answers(self, argv, expected):
        proc = run_child(*argv)
        assert proc.returncode == 0 and proc.stdout.strip() == expected and not proc.stderr

    def test_eval_json_n4_answers(self):
        proc = run_child("eval", "--n", "4", "--format", "json", "a*b+c*d")
        assert proc.returncode == 0 and not proc.stderr
        data = json.loads(proc.stdout)
        assert data["S"]["alphabets"] == [15] and data["p"] == [3, 12]
        assert data["D"] == ["((() a a ()) b a (() b b ()))", "((() c c ()) d c (() d d ()))"]

    def test_eval_json_largest_n_answers(self):
        # (a+b+...)*(a*b+c*d+...) on MAX_EVAL_N letters: S's alphabets are
        # the unions of the alphabets of the expanded monomials.
        pairs = [range(g, min(g + 2, MAX_EVAL_N)) for g in range(0, MAX_EVAL_N, 2)]
        expr = f"({ALL_LETTERS})*({'+'.join('*'.join(letter(g) for g in p) for p in pairs)})"
        proc = run_child("eval", "--n", str(MAX_EVAL_N), "--format", "json", expr)
        assert proc.returncode == 0 and not proc.stderr
        family = {1 << g | sum(1 << h for h in p) for g in range(MAX_EVAL_N) for p in pairs}
        while len(unions := family | {a | b for a in family for b in family}) > len(family):
            family = unions
        data = json.loads(proc.stdout)
        assert data["S"]["alphabets"] == sorted(family) and data["D"] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--n", str(MAX_EVAL_N + 1), "--format", "json", "a"),
            ("eq", "--n", str(MAX_EVAL_N + 1), "a", "a"),
        ],
        ids=["eval", "eq"],
    )
    def test_eval_past_capacity_exits_1(self, argv):
        proc = run_child(*argv)
        assert proc.returncode == 1
        assert f"n <= {MAX_EVAL_N}" in proc.stderr and "Traceback" not in proc.stderr

    def test_text_eval_past_shortest_cap_exits_1(self):
        proc = run_child("eval", "--n", "4", "a*b+c*d")
        assert proc.returncode == 1
        assert "--format json" in proc.stderr and "Traceback" not in proc.stderr

    def test_deep_nesting_exits_2(self):
        depth = 3000
        proc = run_child("eval", "--n", "1", "(" * depth + "a" + ")" * depth)
        assert proc.returncode == 2
        assert f"at byte {MAX_NESTING}" in proc.stderr and "Traceback" not in proc.stderr

    @staticmethod
    def long_word(k, seed):
        """A fixed 1000-letter word that uses each of the first k letters."""
        rng = random.Random(seed)
        word = "".join(letter(rng.randrange(k)) for _ in range(1000))
        assert len(set(word)) == k
        return word

    def test_word_eq_answers_on_26_letters(self):
        word = self.long_word(MAX_GENERATORS, 11)
        other = "a" if word[0] != "a" else "b"
        proc = run_child("word-eq", word, word + word)
        assert proc.returncode == 0 and proc.stdout == "equal\n"
        proc = run_child("word-eq", word, other + word)
        assert proc.returncode == 0 and proc.stdout == "different\n"

    def test_word_normalize_answers_at_render_cap(self):
        word = self.long_word(MAX_RENDER_ALPHABET, 12)
        proc = run_child("word-normalize", "--format", "json", word)
        assert proc.returncode == 0 and not proc.stderr
        tree = render_tree(tree_of_word(parse_word(word)))
        assert len(tree) == 9 * 2**MAX_RENDER_ALPHABET - 7
        assert json.loads(proc.stdout) == {"tree": tree, "shortest": None}

    def test_word_normalize_past_render_cap_exits_1(self):
        word = self.long_word(MAX_GENERATORS, 11)
        proc = run_child("word-normalize", "--format", "json", word)
        assert proc.returncode == 1 and not proc.stdout
        assert f"at most {MAX_RENDER_ALPHABET} generators" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "expression,expected",
        [
            ("+".join(["a"] * 3000), "S = {a}\nD = {}\nodd parities = {}\n"),
            ("*".join(["a"] * 1500), "S = {}\nD = {a}\nodd parities = {a}\n"),
        ],
        ids=["sum-3000", "product-1500"],
    )
    def test_long_chains_answer(self, expression, expected):
        proc = run_child("eval", "--n", "1", expression)
        assert proc.returncode == 0 and proc.stdout == expected


class TestEnumerate:
    def test_json_lines_roundtrip(self, capsys):
        code, out, _ = run(capsys, "enumerate", "replete", "--n", "2", "--json")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 42
        for line in lines:
            data = json.loads(line)
            RepleteSubsemigroup.from_json(data)

    def test_deterministic(self, capsys):
        first = run(capsys, "enumerate", "replete", "--n", "2", "--json")[1]
        second = run(capsys, "enumerate", "replete", "--n", "2", "--json")[1]
        assert first == second


class TestBoundsAndCampion:
    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "2")
        assert code == 0 and "crude: 16384" in out and "refined: 6283" in out

    def test_campion_trivial(self, capsys):
        code, out, _ = run(capsys, "campion", "--monoid", "trivial")
        assert code == 0
        assert "characteristic: (2, 1)" in out and "axioms ok: True" in out

    def test_campion_free2_json(self, capsys):
        code, out, _ = run(capsys, "campion", "--monoid", "free:2", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert len(data["elements"]) == 9
        assert data["axioms_ok"] and not data["commutative"]

    def test_campion_json_file(self, capsys, tmp_path):
        path = tmp_path / "monoid.json"
        path.write_text(json.dumps({"elements": ["1"], "mul": [[0]], "one": 0}))
        code, out, _ = run(capsys, "campion", "--monoid", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["characteristic"] == [2, 1]

    def test_campion_rejects_group(self, capsys, tmp_path):
        path = tmp_path / "z2.json"
        path.write_text(json.dumps({"elements": ["1", "g"], "mul": [[0, 1], [1, 0]], "one": 0}))
        code, _, err = run(capsys, "campion", "--monoid", str(path))
        assert code == 1 and "idempotent" in err


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "quick")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows and all(row["pass"] for row in rows)
        assert {"check", "reference", "expected", "computed", "pass"} <= set(rows[0])

    def test_deterministic_output(self, capsys):
        first = run(capsys, "verify", "--suite", "quick")[1]
        second = run(capsys, "verify", "--suite", "quick")[1]
        assert first == second


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["count", "nonsense", "--n", "1"])
        assert info.value.code == 2


class TestCensusScript:
    @pytest.mark.parametrize(
        "max_n,row", [("2", "n=2: 284 | 284"), ("5", "n=3: 515861 | 515861")]
    )
    def test_runs_past_every_census_limit(self, max_n, row):
        # Each row stops at its own limit: --max-n 5 is past the uniform,
        # replete and bounds censuses.
        proc = run_child("--max-n", max_n, command=(str(CENSUS_SCRIPT),))
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        assert row in proc.stdout
