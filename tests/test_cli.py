"""End-to-end tests of the command-line interface."""

import json
import shlex
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


def test_enumeration_limit_exits_one_on_any_path(capsys, monkeypatch):
    monkeypatch.setattr("weylkl.coxeter._ENUM_LIMIT", 10)
    # affine subsystems are built afresh on every call, so nothing is cached
    code, _, err = run(capsys, "affine", "--type", "A", "--rank", "2",
                       "--lambda", "0,0/1", "--level", "1", "--length", "4")
    assert code == 1
    assert "enumeration limit" in err


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
