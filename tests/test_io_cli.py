"""Matrix file format and the command-line interface."""

import json
import random
import subprocess
import sys
import time

import pytest

from troprank import cli
from troprank.cli import main
from troprank.core import DissimilarityMatrix, SymmetricMatrix, frac, principal_submatrix
from troprank.decomposition import TREE
from troprank.deficiency import build_deficiency, chromatic_number
from troprank.generators import generate, max_tree_rank_table, random_matrix, tr6_matrix
from troprank.matrixio import MatrixFormatError, parse_matrix, serialize_matrix
from troprank.membership import PLUECKER
from troprank.rank import upper_size

from conftest import random_dissimilarity, random_finite_symmetric, random_symmetric


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "troprank.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )


class TestMatrixFormat:
    def test_parse_symmetric(self):
        text = "symmetric 2\n0 1/2\n1/2 0\n"
        m = parse_matrix(text)
        assert isinstance(m, SymmetricMatrix)
        assert m[(1, 2)] == frac("1/2")

    def test_parse_dissimilarity_star_diagonal(self):
        text = "dissimilarity 3\n* 1 2\n1 * 3\n2 3 *\n"
        m = parse_matrix(text)
        assert isinstance(m, DissimilarityMatrix)
        assert m[(2, 3)] == 3

    def test_roundtrip_exact(self, rng):
        for _ in range(10):
            m = random_symmetric(rng, 4)
            assert parse_matrix(serialize_matrix(m)) == m
            d = random_dissimilarity(rng, 5)
            assert parse_matrix(serialize_matrix(d)) == d

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nsymmetric 2\n0 1\n1 0\n"
        assert parse_matrix(text)[(1, 2)] == 1

    def test_rejects_misplaced_star(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("dissimilarity 3\n* * 2\n1 * 3\n2 3 *\n")
        with pytest.raises(MatrixFormatError):
            parse_matrix("symmetric 2\n* 1\n1 0\n")

    def test_rejects_bad_shapes(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("symmetric 3\n0 1\n1 0\n")
        with pytest.raises(MatrixFormatError):
            parse_matrix("triangular 3\n0 1 1\n1 0 1\n1 1 0\n")
        with pytest.raises(MatrixFormatError):
            parse_matrix("symmetric 2\n0 x\nx 0\n")


class TestGenerators:
    def test_known_shapes(self):
        assert generate("intro-exs").n == 4
        assert generate("min", 6)[(2, 5)] == 2
        assert generate("tr6").n == 9
        assert generate("tr6-blocks", 2).n == 18
        assert generate("sym6-remark").to_rows()[0] == [frac(0), frac(0), frac(1), frac(2)]
        assert generate("cycle", 5)[(1, 2)] == 0
        assert generate("identity-pattern", 4)[(1, 1)] == 0
        bip = generate("bipartite", 5)
        assert bip[(1, 4)] == 0 and bip[(1, 2)] == 1

    def test_random_is_seeded(self):
        a = random_matrix("dissimilarity", 5, 0, 9, seed=4)
        b = random_matrix("dissimilarity", 5, 0, 9, seed=4)
        assert a == b

    def test_bad_names_and_arity(self):
        with pytest.raises(ValueError):
            generate("mystery")
        with pytest.raises(ValueError):
            generate("min")
        with pytest.raises(ValueError):
            generate("tr6", 5)

    def test_table_rows(self):
        rows = max_tree_rank_table()
        by_n = {row["n"]: row for row in rows}
        assert by_n[9]["max_tree_rank"] == 6
        assert by_n[10]["status"] == "undetermined"

    @pytest.mark.parametrize("n", [7, 8])
    def test_tr6_submatrix_witnesses_reach_the_bound(self, n):
        # chi of the named principal submatrix of tr6 equals the tree upper
        # bound n - 3, so its tree rank is n - 3.
        row = {row["n"]: row for row in max_tree_rank_table()}[n]
        assert len(row["indices"]) == n
        m = principal_submatrix(tr6_matrix(), row["indices"])
        chi = chromatic_number(build_deficiency(m, PLUECKER))
        assert chi == upper_size(TREE, n) == row["max_tree_rank"]


class TestCli:
    def test_rank_auto_reference_values(self, tmp_path):
        intro = run_cli("generate", "intro-exs").stdout
        (tmp_path / "m.sym").write_text(intro)
        proj = run_cli("generate", "intro-exs", "--project").stdout
        (tmp_path / "m.diss").write_text(proj)
        out = run_cli("rank", str(tmp_path / "m.sym"), "--notion", "sym")
        assert out.returncode == 0
        assert json.loads(out.stdout)["rank"] == 4
        out = run_cli("rank", str(tmp_path / "m.diss"), "--notion", "star")
        assert json.loads(out.stdout)["rank"] == 2
        out = run_cli("rank", str(tmp_path / "m.diss"), "--notion", "tree")
        assert json.loads(out.stdout)["rank"] == 1

    def test_rank_methods_agree(self, tmp_path):
        path = tmp_path / "m.diss"
        path.write_text(run_cli("generate", "random", "5", "--seed", "3").stdout)
        auto = json.loads(run_cli("rank", str(path), "--notion", "tree").stdout)
        exact = json.loads(
            run_cli("rank", str(path), "--notion", "tree", "--method", "exact").stdout
        )
        assert auto["rank"] == exact["rank"]

    def test_rank_reads_stdin(self):
        text = run_cli("generate", "cycle", "5").stdout
        out = run_cli("rank", "-", "--notion", "star", stdin=text)
        assert json.loads(out.stdout)["rank"] == 3

    def test_infinite_exit_code(self, tmp_path):
        path = tmp_path / "bad.sym"
        path.write_text("symmetric 2\n0 -1\n-1 0\n")
        out = run_cli("rank", str(path), "--notion", "sym")
        assert out.returncode == 4
        assert json.loads(out.stdout)["rank"] == "infinity"

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.sym"
        path.write_text("symmetric 2\n0 zebra\nzebra 0\n")
        out = run_cli("rank", str(path), "--notion", "sym")
        assert out.returncode == 2
        assert "error" in out.stderr

    @pytest.mark.parametrize("cell", ["1e999999999", "0.5", "1_000"])
    def test_cell_outside_the_format_fails_at_once(self, tmp_path, capsys, cell):
        path = tmp_path / "bad.sym"
        path.write_text(f"symmetric 2\n0 {cell}\n{cell} 0\n")
        start = time.perf_counter()
        assert main(["rank", str(path), "--notion", "sym"]) == 2
        assert time.perf_counter() - start < 1
        assert f"bad entry {cell!r} at row 1, column 2" in capsys.readouterr().err

    # "\u0662" is the Arabic-Indic digit two, which `int` reads as 2.
    @pytest.mark.parametrize("size", ["\u0662", "+0_2", "2_0"])
    def test_dimension_outside_ascii_digits_is_rejected(self, tmp_path, capsys, size):
        path = tmp_path / "bad.sym"
        path.write_text(f"symmetric {size}\n0 1\n1 0\n", encoding="utf-8")
        assert main(["rank", str(path), "--notion", "sym"]) == 2
        assert f"bad dimension {size!r}" in capsys.readouterr().err

    def test_notion_space_mismatch(self, tmp_path):
        path = tmp_path / "m.diss"
        path.write_text(run_cli("generate", "min", "5").stdout)
        out = run_cli("rank", str(path), "--notion", "sym")
        assert out.returncode == 2

    def test_decompose_verify_roundtrip(self, tmp_path):
        mpath = tmp_path / "m.diss"
        mpath.write_text(run_cli("generate", "random", "5", "--seed", "8").stdout)
        dec = run_cli("decompose", str(mpath), "--notion", "star")
        dpath = tmp_path / "dec.json"
        dpath.write_text(dec.stdout)
        out = run_cli("verify", "--matrix", str(mpath), "--decomposition", str(dpath))
        assert out.returncode == 0
        assert json.loads(out.stdout)["ok"] is True

    def test_decompose_minimize_matches_exact_rank(self, tmp_path):
        mpath = tmp_path / "m.diss"
        mpath.write_text(run_cli("generate", "random", "5", "--seed", "2").stdout)
        dec = json.loads(run_cli("decompose", str(mpath), "--notion", "tree", "--minimize").stdout)
        rank = json.loads(run_cli("rank", str(mpath), "--notion", "tree", "--method", "exact").stdout)
        assert dec["size"] == rank["rank"]

    def test_verify_flags_broken_file(self, tmp_path):
        mpath = tmp_path / "m.diss"
        mpath.write_text(run_cli("generate", "random", "5", "--seed", "8").stdout)
        dec = json.loads(run_cli("decompose", str(mpath), "--notion", "star").stdout)
        dec["summands"] = dec["summands"][:1]
        dpath = tmp_path / "dec.json"
        dpath.write_text(json.dumps(dec))
        out = run_cli("verify", "--matrix", str(mpath), "--decomposition", str(dpath))
        assert out.returncode == 1
        assert json.loads(out.stdout)["ok"] is False

    @pytest.mark.parametrize(
        "payload",
        [
            [{"notion": "star"}],
            {"notion": "star", "summands": [5]},
            {"notion": "star", "summands": {"matrix": [[None]]}},
            # `generate min 5` itself, one tree summand, with JSON true for "1".
            {
                "notion": "tree",
                "summands": [
                    {
                        "matrix": [
                            [None, True, "1", "1", "1"],
                            [True, None, "2", "2", "2"],
                            ["1", "2", None, "3", "3"],
                            ["1", "2", "3", None, "4"],
                            ["1", "2", "3", "4", None],
                        ]
                    }
                ],
            },
        ],
        ids=["top-level-array", "summand-not-object", "summands-object", "true-entry"],
    )
    def test_verify_malformed_file_is_a_format_error(self, tmp_path, payload):
        mpath = tmp_path / "m.diss"
        mpath.write_text(run_cli("generate", "min", "5").stdout)
        dpath = tmp_path / "dec.json"
        dpath.write_text(json.dumps(payload))
        out = run_cli("verify", "--matrix", str(mpath), "--decomposition", str(dpath))
        assert out.returncode == 2
        assert out.stderr.startswith("error: ")
        assert "Traceback" not in out.stderr

    def test_verify_deeply_nested_file_is_a_usage_error(self, tmp_path, capsys):
        # `json.load` recurses once per "[": past the recursion limit the
        # file is bad input (exit 2), not an internal fault (exit 5).
        mpath = tmp_path / "m.diss"
        mpath.write_text(serialize_matrix(generate("min", 5)))
        dpath = tmp_path / "dec.json"
        dpath.write_text("[" * 100_000)
        assert main(["verify", "--matrix", str(mpath), "--decomposition", str(dpath)]) == 2
        assert capsys.readouterr().err == "error: decomposition file nests too deeply\n"

    def test_verify_zero_denominator_is_a_usage_error(self, tmp_path, capsys):
        # Exit 2, never 1 ("decomposition rejected") or a traceback.
        mpath = tmp_path / "m.diss"
        mpath.write_text(serialize_matrix(generate("min", 5)))
        assert main(["decompose", str(mpath), "--notion", "tree"]) == 0
        dec = json.loads(capsys.readouterr().out)
        dec["summands"][0]["matrix"][0][1] = "1/0"
        dpath = tmp_path / "dec.json"
        dpath.write_text(json.dumps(dec))
        assert main(["verify", "--matrix", str(mpath), "--decomposition", str(dpath)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["dimension", "--notion", "sym", "--n", "3", "--r", "1", "--sample", "0"],
            ["dimension", "--notion", "sym", "--n", "3", "--r", "1", "--sample", "-5"],
            ["rank", "MATRIX", "--notion", "tree", "--method", "exact", "--budget", "-3"],
            ["rank", "MATRIX", "--notion", "tree", "--method", "bounds", "--budget", "-3"],
            ["rank", "MATRIX01", "--notion", "tree", "--budget", "-3"],
            ["experiment", "rank7-search", "--trials", "0"],
            ["experiment", "rank7-search", "--trials", "-5"],
            ["experiment", "submatrix-conjecture", "--trials", "0"],
            ["experiment", "submatrix-conjecture", "--trials", "-5"],
        ],
        ids=[
            "sample-0", "sample-negative", "budget-negative", "budget-negative-bounds",
            "budget-negative-covers", "rank7-trials-0", "rank7-trials-negative",
            "submatrix-trials-0", "submatrix-trials-negative",
        ],
    )
    def test_nonsensical_counts_are_usage_errors(self, tmp_path, capsys, argv):
        # A ValueError from the library on every route, not a clamp, an
        # empty search or a route that ignores the count.
        paths = {"MATRIX": tmp_path / "m.diss", "MATRIX01": tmp_path / "c5.diss"}
        paths["MATRIX"].write_text(serialize_matrix(generate("min", 5)))
        paths["MATRIX01"].write_text(serialize_matrix(generate("cycle", 5)))
        assert main([str(paths[a]) if a in paths else a for a in argv]) == 2
        count = "budget must be at least 0" if "--budget" in argv else "trials must be at least 1"
        assert capsys.readouterr().err == f"error: {count}, got {argv[-1]}\n"

    @pytest.mark.parametrize("command", ["rank", "verify", "dimension", "dimension-csv-no-grid"])
    def test_unreadable_path_is_a_usage_error(self, tmp_path, capsys, command):
        # A directory where a file belongs raises IsADirectoryError, an
        # OSError: exit 2, never 1 ("decomposition rejected") or a traceback.
        # `--csv` without `--grid` has no CSV to write: exit 2, no file.
        mpath = tmp_path / "m.diss"
        mpath.write_text(serialize_matrix(generate("min", 5)))
        argv = {
            "rank": ["rank", str(tmp_path), "--notion", "sym"],
            "verify": ["verify", "--matrix", str(mpath), "--decomposition", str(tmp_path)],
            "dimension": ["dimension", "--notion", "star", "--n", "3", "--grid", "--sample", "1",
                          "--csv", str(tmp_path)],
            "dimension-csv-no-grid": ["dimension", "--notion", "tree", "--n", "5", "--r", "2",
                                      "--csv", str(tmp_path / "out.csv")],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out.csv").exists()

    def test_deficiency_json_and_dot(self, tmp_path):
        path = tmp_path / "c5.diss"
        path.write_text(run_cli("generate", "cycle", "5").stdout)
        out = json.loads(run_cli("deficiency", str(path), "--basis", "pluecker").stdout)
        assert out["chromatic_number"] == 3
        assert len(out["hyperedges"]) == 5
        dot = run_cli("deficiency", str(path), "--basis", "pluecker", "--format", "dot")
        assert dot.stdout.startswith("graph deficiency {")

    def test_tr6_deficiency_chromatic(self, tmp_path):
        path = tmp_path / "tr6.diss"
        path.write_text(run_cli("generate", "tr6").stdout)
        out = json.loads(run_cli("deficiency", str(path), "--basis", "pluecker").stdout)
        assert out["chromatic_number"] == 6

    def test_dimension_single_and_grid(self, tmp_path):
        out = json.loads(
            run_cli(
                "dimension", "--notion", "star", "--n", "5", "--r", "2", "--seed", "1"
            ).stdout
        )
        assert out["formula"] == out["sampled"] == 9
        grid = run_cli(
            "dimension", "--notion", "tree", "--n", "5", "--grid", "--sample", "3"
        )
        lines = [l for l in grid.stdout.splitlines() if l.strip()]
        assert lines[0].startswith("notion,n,r,formula,sampled,match")
        assert all(",True," in l or l.startswith("notion") for l in lines)

    def test_dimension_grid_starts_at_the_notions_smallest_n(self, capsys):
        # The grid takes --n as the --r mode does: below the notion's
        # smallest n (3 for star and tree) it is a usage error, not an
        # empty CSV.  Sym is defined from n = 1, and its grid starts there.
        assert main(["dimension", "--notion", "tree", "--n", "2", "--grid"]) == 2
        assert capsys.readouterr() == ("", "error: need n >= 3\n")
        assert main(["dimension", "--notion", "sym", "--n", "2", "--grid"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "notion,n,r,formula,sampled,match,trials,seed",
            "sym,1,1,1,1,True,10,0",
            "sym,2,1,2,2,True,10,0",
            "sym,2,2,3,3,True,10,0",
        ]

    def test_one_parser_serves_every_call_and_keeps_no_state(self, tmp_path, capsys):
        # `main` parses with one parser per process.  Each call in a sequence
        # in this process prints what its argv prints alone in a fresh one.
        assert cli.build_parser() is cli.build_parser()
        mpath = tmp_path / "m.diss"
        mpath.write_text(run_cli("generate", "random", "5", "--seed", "8").stdout)
        dpath = tmp_path / "dec.json"
        dpath.write_text(run_cli("decompose", str(mpath), "--notion", "star").stdout)
        sequence = [
            ["rank", str(mpath)],  # no --notion: a usage error
            ["--version"],
            ["rank", str(mpath), "--notion", "tree"],
            ["deficiency", str(mpath), "--basis", "pluecker", "--format", "dot"],
            ["decompose", str(mpath), "--notion", "star"],
            ["verify", "--matrix", str(mpath), "--decomposition", str(dpath)],
        ]
        codes = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse exits on usage errors and --version
                code = exc.code
            codes.append(code)
            alone = subprocess.run(
                [sys.executable, "-m", "troprank", *argv], capture_output=True, text=True
            )
            assert (code, capsys.readouterr().out) == (alone.returncode, alone.stdout), argv
        assert codes == [2, 0, 0, 0, 0, 0]

    def test_generate_tr6_matches_library(self):
        out = run_cli("generate", "tr6").stdout
        assert parse_matrix(out) == tr6_matrix()

    def test_generate_unknown_name(self):
        out = run_cli("generate", "mystery")
        assert out.returncode == 2

    def test_experiment_smoke(self):
        out = run_cli("experiment", "rank7-search", "--trials", "2", "--seed", "1")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["trials"] == 2
        assert "best_chromatic_bound" in payload


class TestAutoExactAgreement:
    def test_zero_one_paths(self, tmp_path, rng):
        # auto answers a 0/1 matrix by its cover formula, which must agree
        # with the exact solver wherever the solver applies.
        for seed in range(6):
            for kind, notion, n in (
                ("dissimilarity", "star", 4),
                ("dissimilarity", "tree", 5),
                ("symmetric", "sym", 3),
            ):
                path = tmp_path / f"m{seed}.{notion}"
                out = run_cli(
                    "generate", "random", str(n), "--kind", kind,
                    "--low", "0", "--high", "1", "--seed", str(seed),
                )
                path.write_text(out.stdout)
                auto = json.loads(run_cli("rank", str(path), "--notion", notion).stdout)
                exact = json.loads(
                    run_cli("rank", str(path), "--notion", notion, "--method", "exact").stdout
                )
                assert auto["rank"] == exact["rank"], (kind, notion, seed)

    def test_other_inputs_print_the_same_bytes(self, tmp_path, capsys):
        # Off the 0/1 cover route, auto is the search: the same exit code
        # and the same stdout byte for byte, on the sizes the paper's 3x3
        # and 5x5 classifiers cover.
        ranks = set()
        for seed in range(24):
            rng = random.Random(seed)
            cases = [
                (random_finite_symmetric(rng, 3, 0, 4), "sym"),
                (random_symmetric(rng, 3, 0, 4), "sym"),
            ]
            d = random_dissimilarity(rng, 5, 0, 4)
            cases += [(d, "star"), (d, "tree")]
            for m, notion in cases:
                assert any(v not in (0, 1) for _, v in m.items())
                path = tmp_path / f"m{seed}.txt"
                path.write_text(serialize_matrix(m))
                runs = []
                for method in ("auto", "exact"):
                    code = main(["rank", str(path), "--notion", notion, "--method", method])
                    runs.append((code, capsys.readouterr().out))
                assert runs[0] == runs[1], (seed, notion)
                ranks.add((notion, json.loads(runs[0][1])["rank"]))
        assert {("sym", "infinity"), ("star", 3), ("tree", 2), ("tree", 3)} <= ranks, ranks

    def test_infinite_zero_one_prints_the_same_bytes(self, tmp_path, capsys):
        # On an infinite 0/1 input the cover formula reports the violating
        # pair of the search's finiteness test, sorted.
        texts = ["symmetric 3\n0 0 1\n0 1 1\n1 1 0\n"]
        texts += [serialize_matrix(random_symmetric(random.Random(seed), 5, 0, 1)) for seed in range(12)]
        infinite = 0
        for k, text in enumerate(texts):
            path = tmp_path / f"m{k}.txt"
            path.write_text(text)
            runs = []
            for method in ("auto", "exact"):
                code = main(["rank", str(path), "--notion", "sym", "--method", method])
                runs.append((code, capsys.readouterr().out))
            if runs[0][0] == 4:
                assert runs[0] == runs[1], text
                infinite += 1
        assert infinite >= 6

    def test_bounds_method_reports_interval_or_value(self, tmp_path):
        path = tmp_path / "m.diss"
        path.write_text(run_cli("generate", "min", "6").stdout)
        out = run_cli("rank", str(path), "--notion", "star", "--method", "bounds")
        payload = json.loads(out.stdout)
        assert payload["rank"] == 4 and out.returncode == 0
