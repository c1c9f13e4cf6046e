"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script from the root of a checkout.  It imports
``weylkl`` from that checkout's ``src/`` (and asserts that it did), builds
the workload's inputs from the seed, times its closed loop, checks every
output outside the timed regions, and prints one JSON object as its last
line of stdout.  With ``--setup-only`` it stops where the first timed call
would start and prints only the moment it got there.

Without tracing only the calls the program itself makes are timed.  With
``--trace 1`` each operation also makes the calls that split its work into
layers (the subsystem, ``size()`` and a first ``kl_polynomial``), so their
cost is part of the tracing overhead.

Workloads (one client each, closed loop, no extra threads):

* ``kl-tables``: ``kl_table`` on fresh Coxeter systems A4, D4, B4, C4 and A5
  whose Dynkin nodes are relabelled by a seeded permutation, in whole rounds
  until the run length is reached.
* ``strata-sweep``: a batch of rational coweights sized to the run length,
  in seeded order.  Each finite block runs ``stratify`` ->
  ``multiplicity_matrix`` -> ``invert_unitriangular`` (and
  ``simple_module_dimension`` where the pool records one); each affine block
  runs ``affine_endoscopy`` -> ``affine_strata_index``.
* ``cli``: ``python -m weylkl.cli`` subprocesses from ``src/`` in whole
  rounds: the README command block, ``kl --y --w`` point queries against a
  ``WEYLKL_CACHE`` file made fresh for the run, and one ``multiplicity`` on
  an A5 singular block.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import NO_TRACE, Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
DATA = Path(__file__).resolve().parent / "data"
OUT = ROOT / ".bench_build" / "perfbench"

KL_TYPES = (("A", 4), ("D", 4), ("B", 4), ("C", 4), ("A", 5))

# strata-sweep batch.  Heavy classes are whole Weyl-group orbits (up to
# scaling) of one coweight, so every member has the same subsystem and index
# set and costs the same; the seed picks the member.
SMALL_PER_SECOND = 60
AFFINE_PAIRS_PER_SECOND = 2
HEAVY_MIN_SECONDS = 20
A5_SINGULAR = ("A", 5, (2, 1, 3, 2, 1), 1)        # |W| 720,  |W^J| 15
BIG_W = (("F", 4, (0, 0, 3, 3), 1),              # |W| 1152, |W^J| 24
         ("D", 5, (0, 0, 0, 2, 2), 1),            # |W| 1920, |W^J| 10
         A5_SINGULAR,
         ("A", 6, (6, 5, 4, 3, 2, 1), 7))         # |W| 5040, |W^J| 7
NEAR_REGULAR = (("B", 4, (2, 3, 1, 1), 1),       # |W^J| 96
                ("A", 5, (3, 2, 1, 3, 1), 1))    # |W^J| 120
AFFINE_TYPES = (("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3))

# cli rounds: the README block, one first-time point query per type (file
# cache misses), QUERY_REPEAT repeated ones (hits) and one multiplicity on
# a member of A5_SINGULAR's orbit, so every round has the same mix.
QUERY_TYPES = ("A4", "A5", "B4", "D4")
QUERY_REPEAT = 8
CLI_SUBCOMMANDS = ("roots", "weyl", "kl", "endoscopy", "strata", "multiplicity",
                   "character", "affine", "fold", "oracle-check", "cache")

LAYER_METRICS = {
    "endoscopy.subsystem_s": "s",
    "endoscopy.stratify_s": "s",
    "endoscopy.subsystem_reuse_ratio": "ratio",
    "coxeter.enumerate_s": "s",
    "coxeter.elements": "count",
    "coxeter.index_share": "ratio",
    "coxeter.enumerate_rss_mb": "MB",
    "kl.prepare_s": "s",
    "kl.fill_s": "s",
    "kl.pairs": "count",
    "kl.distinct_polys": "count",
    "kl.pairs_per_s": "1/s",
    "kl.prepare_rss_mb": "MB",
    "kl.file_cache_hits": "count",
    "kl.file_cache_misses": "count",
    "kl.cache_file_bytes": "bytes",
    "kl.hit_ms": "ms",
    "kl.miss_ms": "ms",
    "multiplicity.matrix_s": "s",
    "multiplicity.entries": "count",
    "multiplicity.dimension_s": "s",
    "linalg.invert_s": "s",
    "linalg.max_n": "count",
    "affine.endoscopy_s": "s",
    "affine.strata_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.cmd.{sub}_ms": "ms" for sub in CLI_SUBCOMMANDS},
    "op.self_s": "s",
    "trace.throughput_per_s": "1/s",
}

# spans whose self time feeds the per-layer metric "<name>_s"; the "op"
# span around each whole operation feeds "op.self_s", the time spent in no
# layer span (benchmark glue and library work outside the spanned calls)
TIMED_SPANS = ("endoscopy.subsystem", "endoscopy.stratify",
               "coxeter.enumerate", "kl.prepare", "kl.fill", "multiplicity.matrix",
               "multiplicity.dimension", "linalg.invert", "affine.endoscopy",
               "affine.strata", "op")


def load(name):
    with open(DATA / name, encoding="utf-8") as handle:
        return json.load(handle)


def maxrss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def p50(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def orbit_member(rng, datum, base, max_word=8):
    """A seeded member k * w(base) of the scaled Weyl orbit of ``base``."""
    from weylkl.rootdata import reflect

    scale = rng.choice((1, 2))
    vec = tuple(scale * c for c in base)
    for _ in range(rng.randint(0, max_word)):
        vec = reflect(datum, rng.randrange(len(vec)), vec)
    return vec


class Op:
    """One timed operation: a kl_table call, a block or a CLI command."""

    __slots__ = ("kind", "ms", "ok", "info")

    def __init__(self, kind, ms, ok, info=None):
        self.kind, self.ms, self.ok, self.info = kind, ms, ok, info or {}


class Run:
    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.corrupt = args.corrupt_reference
        self.inject = args.inject_raise
        self.traced = bool(args.trace)
        self.tracer = Tracer() if args.trace else NO_TRACE
        self.ops = []
        self.wrong = 0  # ops whose output did not match its reference
        self.layers = dict.fromkeys(LAYER_METRICS, 0.0)

    def finish_op(self, op, ok_output):
        """Record the output check of an op (outside its timed region)."""
        if op.ok and not ok_output:
            op.ok = False
            self.wrong += 1

    def raised(self, kind, exc, info=None):
        """Record an op that raised: failed, with no latency sample."""
        print(f"{kind} op {len(self.ops)} raised {exc!r}", file=sys.stderr)
        self.ops.append(Op(kind, 0.0, False, info))

    def timed_ms(self):
        return sum(op.ms for op in self.ops)


def inject_raise(module, name):
    """Make the first call of ``module.name`` raise, as a library defect
    would (self-check of the failure path)."""
    real = getattr(module, name)
    calls = []

    def first_call_raises(*args, **kwargs):
        if not calls:
            calls.append(None)
            raise AssertionError("injected failure")
        return real(*args, **kwargs)

    setattr(module, name, first_call_raises)


# -- kl-tables -----------------------------------------------------------------


def kl_tables_setup(run):
    from weylkl import kl
    from weylkl.coxeter import CoxeterSystem, longest_element
    from weylkl.rootdata import build_root_datum

    if run.inject:
        inject_raise(kl, "kl_table")
    run.lib = (CoxeterSystem, longest_element, kl.kl_polynomial, kl.kl_table)
    run.reference = load("kl_reference.json")
    if run.corrupt:
        run.reference["A4"]["polys"][0][1] += 1
    run.cartans = {f"{l}{r}": build_root_datum(l, r).cartan_matrix for l, r in KL_TYPES}


def kl_round(run, index):
    rng = random.Random(f"kl-tables/{run.seed}/{index}")
    out = []
    for name, cartan in run.cartans.items():
        rank = len(cartan)
        perm = list(range(rank))
        rng.shuffle(perm)
        out.append((name, [[cartan[perm[i]][perm[j]] for j in range(rank)]
                           for i in range(rank)]))
    return out


def kl_tables_loop(run):
    CoxeterSystem, longest_element, kl_polynomial, kl_table = run.lib
    tracer = run.tracer
    polys = set()
    elements = pairs = 0
    enum_rss = prep_rss = 0.0
    deadline = time.perf_counter() + run.seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        for name, gcm in kl_round(run, index):
            op = len(run.ops)
            start = time.perf_counter()
            try:
                with tracer.span("op", op):
                    system = CoxeterSystem(gcm)
                    if run.traced:
                        rss0 = maxrss_mb()
                        with tracer.span("coxeter.enumerate", op):
                            size = system.size()
                        rss1 = maxrss_mb()
                        with tracer.span("kl.prepare", op):
                            kl_polynomial(system, system.identity, system.generator(1))
                        rss2 = maxrss_mb()
                    with tracer.span("kl.fill", op):
                        table = kl_table(system)
            except Exception as exc:
                run.raised("kl_table", exc, {"round": index})
                continue
            entry = Op("kl_table", (time.perf_counter() - start) * 1000, True,
                       {"pairs": len(table), "round": index})
            run.ops.append(entry)
            run.finish_op(entry, kl_table_matches(run, name, system, table,
                                                  longest_element))
            pairs += len(table)
            polys.update(table.values())
            if run.traced:
                elements += size
                enum_rss += rss1 - rss0
                prep_rss += rss2 - rss1
            del table
        index += 1
    layers = run.layers
    layers["coxeter.elements"] = elements
    layers["coxeter.enumerate_rss_mb"] = enum_rss
    layers["kl.prepare_rss_mb"] = prep_rss
    layers["kl.pairs"] = pairs
    layers["kl.distinct_polys"] = len(polys)


def kl_table_matches(run, name, system, table, longest_element):
    ref = run.reference[name]
    if len(table) != ref["pairs"]:
        return False
    got = sorted([list(p), c] for p, c in Counter(table.values()).items())
    if got != ref["polys"]:
        return False
    return table.get(((), longest_element(system).word_labels)) == (1,)


# -- strata-sweep --------------------------------------------------------------


def strata_setup(run):
    from weylkl import affine, endoscopy, kl, linalg, multiplicity, oracle, rootdata

    if run.inject:
        inject_raise(multiplicity, "multiplicity_matrix")
    run.lib = (affine, endoscopy, kl, linalg, multiplicity, oracle, rootdata)
    run.affine_words = {}
    rng = random.Random(f"strata-sweep/{run.seed}")
    pool = load("small_pool.json")
    cells = {}
    for entry in pool:
        cells.setdefault((entry["type"], entry["rank"], entry["index"]), []).append(entry)
    share = min(1.0, run.seconds * SMALL_PER_SECOND / len(pool))
    blocks = []
    # The same small blocks on every seed (the pool is a random draw): a
    # seeded subset would change how many subsystems are built, and with it
    # the cost.  The seed orders them.
    chosen = [entry for _, members in sorted(cells.items())
              for entry in members[:round(share * len(members))]]
    for entry in chosen:
        blocks.append({"group": "small", "type": entry["type"], "rank": entry["rank"],
                       "lam": rootdata.RationalCoweight(tuple(entry["mu"]), entry["n"]),
                       "dimension": entry.get("dimension")})
    if run.seconds >= HEAVY_MIN_SECONDS:
        for group, classes in (("big-w", BIG_W), ("near-regular", NEAR_REGULAR)):
            for letter, rank, base, n in classes:
                datum = rootdata.build_root_datum(letter, rank)
                blocks.append({"group": group, "type": letter, "rank": rank,
                               "lam": rootdata.RationalCoweight(
                                   orbit_member(rng, datum, base), n),
                               "dimension": None})
    # The same affine pairs on every seed, too: their cost is heavy-tailed
    # (0.8 ms to 180 ms a block), so a seeded draw of 50 pairs moved the
    # batch's cost by a second or more.  The seed orders them.
    drawn = random.Random("strata-sweep/affine")
    for pair in range(round(run.seconds * AFFINE_PAIRS_PER_SECOND)):
        letter, rank = AFFINE_TYPES[pair % len(AFFINE_TYPES)]
        n = drawn.randint(1, 3)
        mu = tuple(drawn.randint(-2 * n, 2 * n) for _ in range(rank))
        positive = affine.AffineCoweight.from_level(mu, drawn.randint(1, 5), n)
        bound = (tuple(drawn.randint(1, 2) for _ in range(rank)), drawn.randint(0, 1))
        for x in (positive, affine.negate(positive)):
            blocks.append({"group": "affine", "type": letter, "rank": rank, "x": x,
                           "bound": bound, "pair": pair})
    rng.shuffle(blocks)
    run.blocks = blocks


def strata_loop(run):
    affine, endoscopy, kl, linalg, multiplicity, oracle, rootdata = run.lib
    tracer = run.tracer
    built = set()
    enum_rss = 0.0
    for block in run.blocks:
        op = len(run.ops)
        start = time.perf_counter()
        try:
            with tracer.span("op", op):
                datum = rootdata.build_root_datum(block["type"], block["rank"])
                if block["group"] == "affine":
                    with tracer.span("affine.endoscopy", op):
                        strat = affine.affine_endoscopy(datum, block["x"])
                    with tracer.span("affine.strata", op):
                        output = affine.affine_strata_index(strat, block["bound"])
                else:
                    lam = block["lam"]
                    if run.traced:
                        with tracer.span("endoscopy.subsystem", op):
                            simple = endoscopy.indecomposable_indices(
                                datum, endoscopy.integral_positive_roots(datum, lam))
                            system = endoscopy.endoscopic_system(datum, simple)
                        rss0 = maxrss_mb()
                        with tracer.span("coxeter.enumerate", op):
                            size = system.size()
                        enum_rss += maxrss_mb() - rss0
                        if system.rank:
                            with tracer.span("kl.prepare", op):
                                kl.kl_polynomial(system, system.identity,
                                                 system.generator(system.labels[0]))
                    with tracer.span("endoscopy.stratify", op):
                        strat = endoscopy.stratify(datum, lam)
                    with tracer.span("multiplicity.matrix", op):
                        matrix = multiplicity.multiplicity_matrix(strat)
                    with tracer.span("linalg.invert", op):
                        inverse = linalg.invert_unitriangular(matrix)
                    dimension = None
                    if block["dimension"] is not None:
                        with tracer.span("multiplicity.dimension", op):
                            dimension = multiplicity.simple_module_dimension(
                                strat, strat.index_set[0])
        except Exception as exc:
            run.raised(block["group"], exc, {"block": block})
            continue
        entry = Op(block["group"], (time.perf_counter() - start) * 1000, True,
                   {"block": block})
        run.ops.append(entry)
        if block["group"] == "affine":
            run.finish_op(entry, affine_matches(run, entry, output))
            continue
        entry.info["index"] = len(strat.index_set)
        if run.traced:
            key = (block["type"], block["rank"], simple)
            entry.info.update(subsystem=key, reused=key in built, W=size)
            built.add(key)
        run.finish_op(entry, block_matches(run, block, matrix, inverse, dimension))
        if entry.ok and block["rank"] <= 2:
            entry.info["matrix"] = matrix  # at most 12 x 12, for strata_check
        del matrix, inverse
    run.layers["coxeter.enumerate_rss_mb"] = enum_rss


def affine_matches(run, op, index):
    """Each index sorted by length without repeats; the positive- and
    negative-level members of a pair give the same index (criterion 6)."""
    words = [w.word for w, _ in index]
    ok = len(set(words)) == len(words) and words == sorted(
        words, key=lambda word: (len(word), word))
    members = run.affine_words.setdefault(op.info["block"]["pair"], [])
    members.append((op, frozenset(words)))
    if len(members) == 2 and members[0][1] != members[1][1]:
        run.finish_op(members[0][0], False)
        return False
    return ok


def block_matches(run, block, matrix, inverse, dimension):
    if not (is_unitriangular(matrix) and is_inverse(matrix, inverse)):
        return False
    if block["dimension"] is not None:
        return dimension == block["dimension"] + (1 if run.corrupt else 0)
    return True


def strata_check(run):
    """Blocks of rank <= 2 against the brute-force oracle.  It runs after the
    loop, once ``peak_rss_mb`` is read, so the oracle's memory is not in it."""
    oracle, rootdata = run.lib[-2:]
    memo = {}
    for op in run.ops:
        if not op.ok or "matrix" not in op.info:
            continue
        block = op.info["block"]
        key = (block["type"], block["rank"], block["lam"])
        if key not in memo:
            datum = rootdata.build_root_datum(block["type"], block["rank"])
            memo[key] = oracle.oracle_multiplicity_matrix(datum, block["lam"])
            if run.corrupt:
                memo[key][0][0] += 1
        run.finish_op(op, op.info.pop("matrix") == memo[key])


def is_unitriangular(matrix):
    return all(
        (x == 1 if i == j else x == 0 if j < i else x >= 0)
        for i, row in enumerate(matrix) for j, x in enumerate(row))


def is_inverse(a, b):
    """a * b == I, one product entry at a time, so the check holds no matrix."""
    columns = list(zip(*b))
    return all(sum(x * y for x, y in zip(row, col)) == (i == j)
               for i, row in enumerate(a) for j, col in enumerate(columns))


def strata_layers(run):
    layers = run.layers
    finite = [op for op in run.ops if op.ok and op.kind != "affine"]
    groups = {}
    for op in finite:
        key = op.info["subsystem"]
        groups[key] = (op.info["W"], max(groups.get(key, (0, 0))[1], op.info["index"]))
    layers["coxeter.elements"] = sum(size for size, _ in groups.values())
    layers["coxeter.index_share"] = (
        sum(index for _, index in groups.values()) / layers["coxeter.elements"]
        if groups else 0.0)
    layers["endoscopy.subsystem_reuse_ratio"] = (
        sum(op.info["reused"] for op in finite) / len(finite) if finite else 0.0)
    layers["multiplicity.entries"] = sum(op.info["index"] ** 2 for op in finite)
    layers["linalg.max_n"] = max((op.info["index"] for op in finite), default=0)


# -- cli ---------------------------------------------------------------------


def cli_env(cache_path=None):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP", "WEYLKL_CACHE")}
    if cache_path is not None:
        env["WEYLKL_CACHE"] = str(cache_path)
    return env


def cli_setup(run):
    from weylkl.rootdata import build_root_datum

    probe = subprocess.run(
        [sys.executable, "-c", "import weylkl.cli; print(weylkl.__file__)"],
        cwd=SRC, env=cli_env(), capture_output=True, text=True, timeout=60, check=True)
    expected = str((SRC / "weylkl" / "__init__.py").resolve())
    if str(Path(probe.stdout.strip()).resolve()) != expected:
        raise SystemExit(f"cli imports weylkl from {probe.stdout.strip()}, not {expected}")
    reference = load("cli_reference.json")
    run.readme = reference["readme"]
    if run.corrupt:
        run.readme[0]["stdout"] += "corrupted\n"
    rng = random.Random(f"cli/{run.seed}")
    run.query_pool = {}
    for name in QUERY_TYPES:
        queries = [(name, y, w) for y, w in reference["queries"][name]]
        rng.shuffle(queries)
        run.query_pool[name] = queries
    letter, rank, base, _ = A5_SINGULAR
    run.cli_lambda = orbit_member(rng, build_root_datum(letter, rank), base)
    run.rng = rng
    OUT.mkdir(parents=True, exist_ok=True)
    run.cache_path = OUT / f"cli-cache-{os.getpid()}.txt"
    if run.cache_path.exists():
        run.cache_path.unlink()


def cli_round(run, seen):
    """Commands of one round, interleaved by the seed; the seed picks the
    query pairs, not the mix."""
    rng = run.rng
    new = [run.query_pool[name].pop() for name in QUERY_TYPES if run.query_pool[name]]
    commands = [{"kind": "readme", "argv": entry["argv"], "stdout": entry["stdout"]}
                for entry in run.readme]
    commands.append({"kind": "multiplicity", "argv": [
        "multiplicity", "--type", "A", "--rank", "5", "--format", "json",
        "--lambda=" + ",".join(map(str, run.cli_lambda)) + "/1"]})
    queries = [{"kind": "query", "query": q} for q in new]
    later = [{"kind": "query", "query": rng.choice(seen + new)}
             for _ in range(QUERY_REPEAT)]
    seen.extend(new)
    commands += later
    rng.shuffle(commands)
    commands = queries + commands  # first-time queries lead their repeats
    for command in commands:
        if command["kind"] == "query":
            name, y, w = command["query"]
            command["argv"] = ["kl", "--type", name[0], "--rank", name[1:],
                               "--y", word_arg(y), "--w", word_arg(w)]
    return commands


def word_arg(labels):
    return ",".join(map(str, labels)) if labels else "e"


def cache_entries(path):
    if not path.exists():
        return 0
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip()) - 1


def cli_loop(run):
    tracer = run.tracer
    seen = []
    deadline = time.perf_counter() + run.seconds
    while not run.ops or time.perf_counter() < deadline:
        for command in cli_round(run, seen):
            query = command["kind"] == "query"
            env = cli_env(run.cache_path if query else None)
            before = cache_entries(run.cache_path) if query else 0
            op = len(run.ops)
            info = {"command": command, "sub": command["argv"][0]}
            start = time.perf_counter()
            try:
                with tracer.span(f"cli.cmd.{command['argv'][0]}", op):
                    done = subprocess.run(
                        [sys.executable, "-m", "weylkl.cli", *command["argv"]],
                        cwd=SRC, env=env, capture_output=True, text=True, timeout=120)
            except Exception as exc:
                run.raised("command", exc, info)
                continue
            ms = (time.perf_counter() - start) * 1000
            info["stdout"] = done.stdout
            if query:
                info["miss"] = cache_entries(run.cache_path) > before
            if done.returncode != 0:
                print(f"cli: {' '.join(command['argv'])} exited {done.returncode}: "
                      f"{done.stderr.strip().splitlines()[-1:]}", file=sys.stderr)
            run.ops.append(Op("command", ms, done.returncode == 0, info))
    if run.cache_path.exists():
        run.layers["kl.cache_file_bytes"] = run.cache_path.stat().st_size
        run.cache_path.unlink()


def cli_check(run):
    from weylkl.coxeter import CoxeterSystem
    from weylkl.endoscopy import stratify
    from weylkl.kl import kl_polynomial, poly_string
    from weylkl.multiplicity import multiplicity_matrix
    from weylkl.rootdata import RationalCoweight, build_root_datum

    systems = {}
    expected = {}
    for op in run.ops:
        if not op.ok:
            continue
        command = op.info["command"]
        if command["kind"] == "readme":
            run.finish_op(op, op.info["stdout"] == command["stdout"])
        elif command["kind"] == "multiplicity":
            datum = build_root_datum("A", 5)
            key = ("multiplicity", run.cli_lambda)
            if key not in expected:
                expected[key] = multiplicity_matrix(
                    stratify(datum, RationalCoweight(run.cli_lambda, 1)))
            try:
                got = json.loads(op.info["stdout"])["matrix"]
            except (ValueError, KeyError):
                got = None
            run.finish_op(op, got == expected[key])
        else:
            name, y, w = command["query"]
            key = (name, tuple(y), tuple(w))
            if key not in expected:
                if name not in systems:
                    # a fresh system: nothing shared with the CLI's weyl_system
                    cartan = build_root_datum(name[0], int(name[1:])).cartan_matrix
                    systems[name] = CoxeterSystem(cartan)
                system = systems[name]
                coeffs = kl_polynomial(system, system.element(y), system.element(w))
                expected[key] = poly_string(coeffs) + "\n"
            run.finish_op(op, op.info["stdout"] == expected[key])


def cli_layers(run):
    layers = run.layers
    good = [op for op in run.ops if op.ok]
    for sub in CLI_SUBCOMMANDS:
        layers[f"cli.cmd.{sub}_ms"] = p50([op.ms for op in good if op.info["sub"] == sub])
    queries = [op for op in good if "miss" in op.info]
    layers["kl.file_cache_misses"] = sum(op.info["miss"] for op in queries)
    layers["kl.file_cache_hits"] = len(queries) - layers["kl.file_cache_misses"]
    layers["kl.hit_ms"] = p50([op.ms for op in queries if not op.info["miss"]])
    layers["kl.miss_ms"] = p50([op.ms for op in queries if op.info["miss"]])
    bare = [sys.executable, "-c", "pass"]
    importing = [sys.executable, "-c", "import weylkl.cli"]
    interpreter = p50([command_ms(bare) for _ in range(7)])
    imported = p50([command_ms(importing) for _ in range(7)])
    layers["cli.interpreter_ms"] = interpreter
    layers["cli.import_ms"] = imported - interpreter


def command_ms(argv):
    start = time.perf_counter()
    subprocess.run(argv, cwd=SRC, env=cli_env(), check=True, capture_output=True,
                   timeout=60)
    return (time.perf_counter() - start) * 1000


# -- entry point -----------------------------------------------------------------


class Workload:
    """How a workload runs and under which names it reports.  ``check``
    holds the output checks that run after the loop (the others run in the
    loop, right after each op); ``layers`` adds traced-run metrics."""

    def __init__(self, setup, loop, check, layers, work, latencies, names, rss_of):
        self.setup, self.loop, self.check, self.layers = setup, loop, check, layers
        self.work = work  # units of work done by the successful ops
        self.latencies = latencies  # latency samples (ms) from all ops
        self.names = names  # own names of throughput_per_s, op_p50_ms, op_p90_ms
        self.rss_of = rss_of  # whose ru_maxrss is peak_rss_mb

    def end_to_end(self, run, peak_rss_mb):
        good = [op for op in run.ops if op.ok]
        ms = self.latencies(run.ops)
        seconds = run.timed_ms() / 1000
        rate, median, tail = self.names
        return {"throughput_per_s": (self.work(good) / seconds if seconds else 0.0,
                                     "1/s", rate),
                "op_p50_ms": (p50(ms), "ms", median),
                "op_p90_ms": (p90(ms), "ms", tail),
                "peak_rss_mb": (peak_rss_mb, "MB", "peak_rss_mb")}


def nothing(*args):
    pass


def op_latencies(ops):
    return [op.ms for op in ops if op.ok]


def round_latencies(ops):
    """One sample per kl-tables round: the five tables of one relabelling
    draw, so the sample does not depend on which types the median hits."""
    rounds = {}
    for op in ops:
        ms, ok = rounds.get(op.info["round"], (0.0, True))
        rounds[op.info["round"]] = (ms + op.ms, ok and op.ok)
    return [ms for ms, ok in rounds.values() if ok]


WORKLOADS = {
    "kl-tables": Workload(
        kl_tables_setup, kl_tables_loop, nothing, nothing,
        lambda ops: sum(op.info["pairs"] for op in ops), round_latencies,
        ("kl_pairs_per_s", "kl_round_p50_ms", "kl_round_p90_ms"), resource.RUSAGE_SELF),
    "strata-sweep": Workload(
        strata_setup, strata_loop, strata_check, strata_layers, len, op_latencies,
        ("blocks_per_s", "block_p50_ms", "block_p90_ms"), resource.RUSAGE_SELF),
    # the CLI processes are the workload's processes: their largest ru_maxrss
    "cli": Workload(
        cli_setup, cli_loop, cli_check, cli_layers, len, op_latencies,
        ("cli_per_s", "cli_p50_ms", "cli_p90_ms"), resource.RUSAGE_CHILDREN),
}


def check_isolation():
    sys.path.insert(0, str(SRC))
    import weylkl
    from weylkl.coxeter import weyl_system

    expected = (SRC / "weylkl" / "__init__.py").resolve()
    if Path(weylkl.__file__).resolve() != expected:
        raise SystemExit(f"imported weylkl from {weylkl.__file__}, not {expected}")
    if weyl_system.cache_info().currsize:
        raise SystemExit("weylkl caches are not empty at start")


def layer_totals(run):
    layers = run.layers
    selfs = run.tracer.self_times()
    for name in TIMED_SPANS:
        layers["op.self_s" if name == "op" else f"{name}_s"] = selfs.get(name, 0.0)
    if layers["kl.fill_s"]:
        layers["kl.pairs_per_s"] = layers["kl.pairs"] / layers["kl.fill_s"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb the references (self-check of the checks)")
    parser.add_argument("--inject-raise", action="store_true",
                        help="make the first library call of the loop raise "
                             "(self-check of the failure path)")
    args = parser.parse_args()

    check_isolation()
    workload = WORKLOADS[args.workload]
    run = Run(args)
    workload.setup(run)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return
    workload.loop(run)
    peak_rss_mb = maxrss_mb(workload.rss_of)  # before the checks after the loop
    workload.check(run)
    end_to_end = workload.end_to_end(run, peak_rss_mb)
    if run.traced:
        workload.layers(run)
        layer_totals(run)
        run.layers["trace.throughput_per_s"] = end_to_end["throughput_per_s"][0]
        OUT.mkdir(parents=True, exist_ok=True)
        run.tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    failed = sum(not op.ok for op in run.ops)
    print(json.dumps({
        "ready": ready,
        "attempted": len(run.ops),
        "failed": failed,
        "wrong": run.wrong,
        "end_to_end": end_to_end,
        "layers": {name: (value, LAYER_METRICS[name]) for name, value in run.layers.items()},
    }))


if __name__ == "__main__":
    main()
