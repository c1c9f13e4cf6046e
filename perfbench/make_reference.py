"""Regenerate the benchmark's frozen inputs and reference outputs.

Run from the repository root:

    python3 perfbench/make_reference.py

It writes three files under ``perfbench/data/``:

* ``kl_reference.json``: for each ``kl-tables`` type, the pair count and the
  multiset of KL polynomials of the full table.  Both are invariant under a
  relabelling of the Dynkin nodes, so one reference serves every seed.
* ``cli_reference.json``: the README command block (frozen copy) with the
  expected stdout of each command, and a pool of ``kl --y --w`` point
  queries per type.  The expected output of ``kl --table`` is rendered with
  ``format_kl_table(kl_table(...))`` rather than taken from the CLI, which
  crashes on that command at the time of writing.
* ``small_pool.json``: the bulk of the ``strata-sweep`` inputs, rational
  coweights at ranks 2-4 with denominators 1-6 whose index set has at most
  24 elements.  Rank-2 members are kept only when the brute-force oracle's
  required depth is at most 6, because the oracle runs on every rank-2 block
  as an output check and its cost grows steeply with depth.  Fully integral
  members of rank <= 3 whose identity simple module is finite dimensional,
  with a weight cone of height <= 8, carry that module's dimension; the
  benchmark recomputes it in the timed block and compares.

Everything is drawn from fixed generator seeds, so the files are
reproducible.  The benchmark picks point queries by its ``--seed``; it
runs the same share of the small pool on every seed, in seeded order.
"""

from __future__ import annotations

import io
import json
import random
import re
import shlex
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
sys.path.insert(0, str(ROOT / "src"))

from weylkl.cli import main as cli_main  # noqa: E402
from weylkl.coxeter import (  # noqa: E402
    CoxeterSystem, bruhat_leq, longest_element, weyl_system)
from weylkl.endoscopy import coweight_orbit_action, stratify  # noqa: E402
from weylkl.kl import format_kl_table, kl_table  # noqa: E402
from weylkl.multiplicity import (  # noqa: E402
    index_highest_weights, simple_module_dimension)
from weylkl.oracle import required_depth  # noqa: E402
from weylkl.rootdata import RationalCoweight, build_root_datum  # noqa: E402

KL_TYPES = (("A", 4), ("D", 4), ("B", 4), ("C", 4), ("A", 5))
QUERY_TYPES = (("A", 4), ("A", 5), ("B", 4), ("D", 4))
SMALL_TYPES = (("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3),
               ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4))
SMALL_POOL_SIZE = 2000
SMALL_MAX_INDEX = 24
SMALL_MAX_GROUP = 384
ORACLE_MAX_DEPTH = 6
DIMENSION_MAX_DEPTH = 8
QUERIES_PER_TYPE = 12


def kl_reference():
    out = {}
    for letter, rank in KL_TYPES:
        table = kl_table(CoxeterSystem(build_root_datum(letter, rank).cartan_matrix))
        polys = Counter(table.values())
        out[f"{letter}{rank}"] = {
            "pairs": len(table),
            "polys": sorted([list(p), c] for p, c in polys.items()),
        }
    return out


def readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line.*?```sh\n(.*?)```", text, re.S).group(1)
    commands = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("weylkl "):
            commands.append(shlex.split(line)[1:])
    return commands


def cli_stdout(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def readme_reference():
    out = []
    for argv in readme_commands():
        if argv[0] == "kl" and "--table" in argv:
            datum = build_root_datum(argv[argv.index("--type") + 1],
                                     int(argv[argv.index("--rank") + 1]))
            expected = format_kl_table(kl_table(weyl_system(datum))) + "\n"
        else:
            code, expected = cli_stdout(argv)
            if code != 0:
                raise SystemExit(f"README command failed: {argv}")
        out.append({"argv": argv, "stdout": expected})
    return out


def query_pool():
    rng = random.Random(20071)
    pool = {}
    for letter, rank in QUERY_TYPES:
        system = weyl_system(build_root_datum(letter, rank))
        tab = system._ensure_tables()
        elements = [system._element(word) for word in tab["words"]]
        chosen = []
        seen = set()
        while len(chosen) < QUERIES_PER_TYPE:
            w = rng.choice(elements)
            y = rng.choice(elements)
            key = (y.word_labels, w.word_labels)
            if w.length - y.length < 3 or key in seen or not bruhat_leq(y, w):
                continue
            seen.add(key)
            chosen.append([list(y.word_labels), list(w.word_labels)])
        pool[f"{letter}{rank}"] = chosen
    return pool


def small_pool():
    rng = random.Random(20072)
    pool = []
    seen = set()
    while len(pool) < SMALL_POOL_SIZE:
        letter, rank = rng.choice(SMALL_TYPES)
        n = rng.randint(1, 6)
        mu = tuple(rng.randint(-2 * n, 2 * n) for _ in range(rank))
        if (letter, rank, mu, n) in seen:
            continue
        seen.add((letter, rank, mu, n))
        datum = build_root_datum(letter, rank)
        strat = stratify(datum, RationalCoweight(mu, n))
        if len(strat.index_set) > SMALL_MAX_INDEX or strat.system.size() > SMALL_MAX_GROUP:
            continue
        if rank <= 2 and required_depth(strat) > ORACLE_MAX_DEPTH:
            continue
        entry = {"type": letter, "rank": rank, "mu": list(mu), "n": n,
                 "index": len(strat.index_set)}
        if rank <= 3 and len(strat.integral_indices) == len(datum.positive_roots):
            try:
                if 0 <= _dimension_depth(strat) <= DIMENSION_MAX_DEPTH:
                    entry["dimension"] = simple_module_dimension(
                        strat, strat.index_set[0])
            except ValueError:
                pass
        pool.append(entry)
    return pool


def _dimension_depth(strat):
    """Height of the weight cone simple_module_dimension walks for the
    simple module of the identity's highest weight; negative when that
    module is infinite dimensional."""
    hw = index_highest_weights(strat)[0]
    lowest = coweight_orbit_action(strat, longest_element(strat.system), hw)
    return sum(h - low for h, low in zip(hw, lowest))


def write(name, payload):
    (DATA / name).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")


def main():
    DATA.mkdir(exist_ok=True)
    write("kl_reference.json", kl_reference())
    write("cli_reference.json", {"readme": readme_reference(), "queries": query_pool()})
    write("small_pool.json", small_pool())


if __name__ == "__main__":
    main()
