"""End-to-end tests of the command-line interface."""

import ast
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from weylkl.cli import main
from weylkl.coxeter import weyl_system
from weylkl.endoscopy import stratify
from weylkl.kl import kl_table
from weylkl.multiplicity import multiplicity_matrix
from weylkl.rootdata import RationalCoweight, build_root_datum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kl_single_pair(capsys):
    code, out, _ = run(capsys, "kl", "--type", "A", "--rank", "3",
                       "--y", "e", "--w", "2,1,3,2")
    assert code == 0
    assert out.strip() == "1 + q"


def test_kl_table_text(capsys):
    code, out, _ = run(capsys, "kl", "--type", "A", "--rank", "2", "--table")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 19
    assert lines[0] == "- | - | 1"
    assert lines[-1] == "1,2,1 | 1,2,1 | 1"


def test_kl_table_json(capsys):
    code, out, _ = run(capsys, "kl", "--type", "A", "--rank", "3", "--table",
                       "--format", "json")
    assert code == 0
    pairs = json.loads(out)["pairs"]
    assert pairs[0] == {"y": "e", "w": "e", "coefficients": [1]}
    assert {"y": "e", "w": "2,1,3,2", "coefficients": [1, 1]} in pairs
    table = kl_table(weyl_system(build_root_datum("A", 3)))
    assert len(pairs) == len(table)

    def labels(text):
        return () if text == "e" else tuple(int(c) for c in text.split(","))

    keys = [(labels(pair["y"]), labels(pair["w"])) for pair in pairs]
    assert keys == sorted(keys, key=lambda k: (len(k[1]), k[1], len(k[0]), k[0]))
    assert all(table[key] == tuple(pair["coefficients"])
               for key, pair in zip(keys, pairs))


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("weylkl ")]


def test_readme_command_block_runs(capsys, monkeypatch):
    monkeypatch.delenv("WEYLKL_CACHE", raising=False)
    commands = _readme_commands()
    assert len(commands) >= 13
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_readme_quick_start_block_runs():
    """The README's Quick start Python block runs as written, and the KL and
    oracle matrices it prints are equal."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = readme.split("### Quick start", 1)[1].split("```python", 1)[1]
    block = block.split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", block], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    index, kl_matrix, oracle_matrix = proc.stdout.splitlines()
    assert kl_matrix == oracle_matrix
    assert len(ast.literal_eval(kl_matrix)) == len(ast.literal_eval(index)) > 1


def test_closed_pipe_exits_one_without_a_traceback():
    """A reader that stops early (``weylkl weyl ... | head -c 20``) leaves
    exit status 1 and nothing on stderr.  The A6 listing is larger than a
    pipe buffer, so the write is still pending when the pipe closes."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with subprocess.Popen(
            [sys.executable, "-m", "weylkl.cli", "weyl", "--type", "A", "--rank", "6"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(20) == b"5040 elements\n  e\n  "
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=120) == 1


@pytest.mark.parametrize("argv", [
    ("weyl", "--type", "E", "--rank", "7"),
    ("kl", "--type", "E", "--rank", "8", "--y", "e", "--w", "1,2"),
])
def test_oversized_enumeration_is_refused_up_front(capsys, argv):
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "enumeration limit" in err
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("argv", [
    ("--type", "E", "--rank", "6"),                    # |W| = 51,840
    ("--type", "D", "--rank", "6"),                    # |W| = 23,040
    ("--type", "E", "--rank", "6", "--length", "12"),  # a ball of 8,335
])
def test_oversized_kl_table_is_refused_up_front(capsys, argv):
    """|W| of E6 is below the enumeration limit, but its table would not
    fit in memory: it is refused before anything is filled."""
    start = time.monotonic()
    code, out, err = run(capsys, "kl", "--table", *argv)
    assert code == 1
    assert out == ""
    assert "table limit" in err
    assert time.monotonic() - start < 1.0


def test_kl_table_of_a_small_ball_still_answers(capsys):
    code, out, _ = run(capsys, "kl", "--type", "E", "--rank", "6", "--table",
                       "--length", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "- | - | 1"
    assert all(len(line.split(" | ")[1].split(",")) <= 3 for line in lines)
    assert len(lines) == len(kl_table(weyl_system(build_root_datum("E", 6)), max_length=3))


def test_enumeration_limit_exits_one_on_any_path(capsys, monkeypatch):
    monkeypatch.setattr("weylkl.coxeter._ENUM_LIMIT", 5)
    # affine subsystems are built afresh on every call, so nothing is cached;
    # the walk covers only the 9 elements of W^J up to length 4
    code, _, err = run(capsys, "affine", "--type", "A", "--rank", "2",
                       "--lambda", "0,0/1", "--level", "1", "--length", "4")
    assert code == 1
    assert "enumeration limit" in err


def test_character_refuses_a_weight_cone_past_the_enumeration_limit(capsys):
    """The height counts would hold about 2*10^9 integers; the dimension is
    refused before they are built.  A cone of depth just under the limit
    still runs."""
    start = time.monotonic()
    code, out, err = run(capsys, "character", "--type", "A", "--rank", "1",
                         "--lambda", "1000000000/1")
    assert code == 1
    assert out == ""
    assert "enumeration limit" in err
    assert time.monotonic() - start < 1.0
    code, out, _ = run(capsys, "character", "--type", "A", "--rank", "1",
                       "--lambda", "250000/1")
    assert code == 0
    assert out.strip() == "simple module dimension: 500000"


def test_fold_example(capsys):
    code, out, _ = run(capsys, "fold", "--source", "A3", "--sigma", "3,2,1")
    assert code == 0
    assert "automorphism order 2" in out
    assert "folded type C2" in out


def test_fold_json_with_level(capsys):
    code, out, _ = run(capsys, "fold", "--source", "D4", "--sigma", "3,2,4,1",
                       "--level", "1/3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["folded_type"] == "G2"
    assert payload["order"] == 3
    assert payload["level_class"] == "untwisted-describable"


def test_multiplicity_json_round_trip(capsys):
    code, out, _ = run(capsys, "multiplicity", "--type", "A", "--rank", "2",
                       "--lambda", "1,1/1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    strat = stratify(build_root_datum("A", 2), RationalCoweight((1, 1), 1))
    expected = [[int(x) for x in row] for row in multiplicity_matrix(strat)]
    assert payload["matrix"] == expected
    assert payload["index"][0] == "e"
    assert len(payload["index"]) == 6


@pytest.mark.parametrize("rank,lam,size", [
    (7, "0,0,0,0,0,0,1/1", 126),
    (8, "1,0,0,0,0,0,0,0/1", 240),
])
def test_exceptional_singular_blocks_cost_only_their_quotient(capsys, rank, lam, size):
    """|W| is far past the enumeration limit; |W^J| is not."""
    start = time.perf_counter()
    code, out, err = run(capsys, "multiplicity", "--type", "E", "--rank", str(rank),
                         "--lambda", lam)
    assert time.perf_counter() - start < 5
    assert code == 0, err
    header, *rows = out.strip().splitlines()
    assert len(header.split(":", 1)[1].split()) == size
    matrix = [[int(x) for x in row.split("[", 1)[1].rstrip("]").split()] for row in rows]
    assert len(matrix) == size and all(len(row) == size for row in matrix)
    assert all(x == (i == j) if j <= i else x >= 0
               for i, row in enumerate(matrix) for j, x in enumerate(row))


def test_multiplicity_output_deterministic(capsys):
    _, first, _ = run(capsys, "multiplicity", "--type", "B", "--rank", "2",
                      "--lambda", "3,2/2", "--format", "json")
    _, second, _ = run(capsys, "multiplicity", "--type", "B", "--rank", "2",
                       "--lambda", "3,2/2", "--format", "json")
    assert first == second


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--type", "B", "--rank", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    datum = build_root_datum("B", 2)
    assert payload["positive_roots"] == [list(r) for r in datum.positive_roots]
    assert payload["weyl_order"] == 8
    assert payload["rho"] == [2, "3/2"]


def test_weyl_enumeration(capsys):
    code, out, _ = run(capsys, "weyl", "--type", "A", "--rank", "2")
    assert code == 0
    assert out.startswith("6 elements")
    code, out, _ = run(capsys, "weyl", "--type", "A", "--rank", "2",
                       "--length", "1", "--format", "json")
    assert json.loads(out) == {"count": 3, "elements": ["e", "1", "2"]}


def test_endoscopy_summary(capsys):
    code, out, _ = run(capsys, "endoscopy", "--type", "B", "--rank", "2",
                       "--lambda", "1,1/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["subsystem_simple_roots"] == [[1, 0], [1, 2]]
    assert payload["subsystem_cartan_matrix"] == [[2, 0], [0, 2]]
    assert payload["singular_labels"] == [1]
    assert payload["index_size"] == 2
    assert payload["lambda_prime"] == ["1/2", "1/2"]


def test_strata_with_degree_filter(capsys):
    code, out, _ = run(capsys, "strata", "--type", "A", "--rank", "2",
                       "--lambda", "1,1/1", "--alpha", "1,1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["index"] == ["e", "1", "2"]


def test_character_series_and_simple_modules(capsys):
    code, out, _ = run(capsys, "character", "--type", "A", "--rank", "2",
                       "--depth", "2")
    assert code == 0
    assert "(1, 1): q + q^2" in out
    code, out, _ = run(capsys, "character", "--type", "A", "--rank", "2",
                       "--lambda", "2,2/1", "--w", "e")
    assert out.strip() == "simple module dimension: 8"
    code, out, _ = run(capsys, "character", "--type", "A", "--rank", "2",
                       "--lambda", "2,2/1", "--w", "e", "--alpha", "1,1",
                       "--format", "json")
    assert json.loads(out)["multiplicity"] == 2
    # y = s1 moves lam' off the dominant chamber: an infinite-dimensional module
    code, out, err = run(capsys, "character", "--type", "A", "--rank", "2",
                         "--lambda", "3,3/1", "--w", "1")
    assert code == 1 and out == ""
    assert "not finite dimensional" in err


def test_affine_positive_level(capsys):
    code, out, _ = run(capsys, "affine", "--type", "A", "--rank", "1",
                       "--lambda", "1/2", "--level", "4",
                       "--alpha", "1:0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "positive"
    assert payload["level"] == 2
    assert payload["generator_labels"] == [1, 0]
    assert payload["strata_index"] == ["e", "1"]


def test_affine_critical_solutions(capsys):
    code, out, _ = run(capsys, "affine", "--type", "A", "--rank", "1",
                       "--lambda", "1/2", "--pair", "1,0",
                       "--alpha", "1:1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "critical"
    assert payload["critical_strata"] == [{"w": "1", "alpha": [1]}]


def test_affine_bad_pair_names_the_flag(capsys):
    code, out, err = run(capsys, "affine", "--type", "A", "--rank", "1",
                         "--lambda", "1/2", "--pair", "1")
    assert code == 1 and not out
    assert "--pair" in err


def test_affine_bad_alpha_names_the_flag(capsys):
    code, out, err = run(capsys, "affine", "--type", "A", "--rank", "2",
                         "--lambda", "1,1", "--level", "1", "--alpha", "1,1:x")
    assert code == 1 and not out
    assert "--alpha" in err


@pytest.mark.parametrize("argv,flag", [
    (["weyl", "--type", "A", "--rank", "2", "--length"], "--length"),
    (["kl", "--type", "A", "--rank", "2", "--table", "--length"], "--length"),
    (["character", "--type", "A", "--rank", "2", "--depth"], "--depth"),
    (["affine", "--type", "A", "--rank", "1", "--lambda", "1/2", "--level", "1",
      "--length"], "--length"),
])
def test_negative_bound_names_the_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv, "-1")
    assert code == 1 and not out
    assert f"{flag} must be nonnegative" in err
    code, out, _ = run(capsys, *argv, "0")
    assert code == 0 and out


def test_oracle_check(capsys):
    code, out, _ = run(capsys, "oracle-check", "--type", "A", "--rank", "1",
                       "--lambda", "1/1")
    assert code == 0
    assert "match on a 2x2 matrix" in out


def test_cache_round_trip(tmp_path, monkeypatch, capsys):
    store = tmp_path / "cache.txt"
    monkeypatch.setenv("WEYLKL_CACHE", str(store))
    _, first, _ = run(capsys, "kl", "--type", "A", "--rank", "3",
                      "--y", "e", "--w", "2,1,3,2")
    assert store.exists()
    exported = tmp_path / "exported.txt"
    assert run(capsys, "cache", "export", "--output", str(exported))[0] == 0

    fresh = tmp_path / "fresh.txt"
    monkeypatch.setenv("WEYLKL_CACHE", str(fresh))
    assert run(capsys, "cache", "import", "--input", str(exported))[0] == 0
    code, out, _ = run(capsys, "cache", "show")
    assert "entries: 1" in out
    # identical answer served out of the re-imported store
    _, again, _ = run(capsys, "kl", "--type", "A", "--rank", "3",
                      "--y", "e", "--w", "2,1,3,2")
    assert again == first


def test_corrupt_cache_file_exits_one(tmp_path, monkeypatch, capsys):
    store = tmp_path / "cache.txt"
    store.write_text("KLCACHE v1\nA 3 | - | 2,1,3,2 | 1,-1\n")
    monkeypatch.setenv("WEYLKL_CACHE", str(store))
    code, out, err = run(capsys, "kl", "--type", "A", "--rank", "3",
                         "--y", "e", "--w", "2,1,3,2")
    assert code == 1 and not out
    assert f"{store}:2:" in err


def test_multiplicity_does_not_read_the_cache_file(tmp_path, monkeypatch, capsys):
    store = tmp_path / "cache.txt"
    store.write_text("not a cache file\n")
    monkeypatch.setenv("WEYLKL_CACHE", str(store))
    code, out, _ = run(capsys, "multiplicity", "--type", "A", "--rank", "2",
                       "--lambda", "1,1/1")
    assert code == 0 and out
    assert store.read_text() == "not a cache file\n"


def test_domain_error_exits_one(capsys):
    code, out, err = run(capsys, "roots", "--type", "X", "--rank", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    code, _, err = run(capsys, "multiplicity", "--type", "A", "--rank", "2",
                       "--lambda", "one,two")
    assert code == 1
    assert "integer vector" in err


def test_parse_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--type", "A", "--rank", "2", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
