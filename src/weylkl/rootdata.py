"""Finite root data over exact rational arithmetic.

A :class:`RootDatum` holds the combinatorics of a simple, simply connected
group: the Cartan matrix, the paired lists of positive roots and positive
coroots, the half-sum of the positive coroots, and each positive root's
integer pairing row.  Two coordinate systems are used throughout the package:

* coroot side: coweights and coroots are integer/rational vectors in the
  basis of simple coroots (the coweight lattice is Z^rank);
* root side: roots are integer vectors in the basis of simple roots.

The Cartan matrix convention is ``cartan[i][j] = <alpha_j, alpha_i^vee>``,
so row ``i`` lists pairings against the ``i``-th simple coroot, and the
canonical pairing of a root ``alpha`` (root coordinates ``b``) with a
coweight ``lam`` (coroot coordinates ``c``) is ``c . (cartan @ b)``.

>>> a2 = build_root_datum("A", 2)
>>> [pairing(a2, alpha, a2.rho) for alpha in a2.positive_roots]
[Fraction(1, 1), Fraction(1, 1), Fraction(2, 1)]
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

__all__ = [
    "RootDatum",
    "RationalCoweight",
    "build_root_datum",
    "pairing",
    "reflect",
    "reflect_coweight_by_root",
]

_RANK_BOUNDS = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (4, None),
                "E": (6, 8), "F": (4, 4), "G": (2, 2)}

_WEYL_ORDERS = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}


def _cartan_matrix(cartan_type: str, rank: int) -> tuple:
    """Cartan matrix in the convention A[i][j] = <alpha_j, alpha_i^vee>."""
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = 2

    def join(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if cartan_type in ("A", "B", "C"):
        for i in range(rank - 1):
            join(i, i + 1)
        if cartan_type == "B" and rank >= 2:
            # alpha_rank short: <alpha_{rank-1}, alpha_rank^vee> = -2
            a[rank - 1][rank - 2] = -2
        if cartan_type == "C" and rank >= 2:
            a[rank - 2][rank - 1] = -2
    elif cartan_type == "D":
        for i in range(rank - 2):
            join(i, i + 1)
        join(rank - 3, rank - 1)
    elif cartan_type == "E":
        # Bourbaki numbering: chain 1-3-4-5-...-rank, node 2 attached to 4.
        chain = [0] + list(range(2, rank))
        for i, j in zip(chain, chain[1:]):
            join(i, j)
        join(1, 3)
    elif cartan_type == "F":
        join(0, 1)
        join(1, 2, aij=-1, aji=-2)  # <alpha_2, alpha_3^vee> = -2 (3, 4 short)
        join(2, 3)
    elif cartan_type == "G":
        join(0, 1, aij=-3, aji=-1)  # alpha_1 short, alpha_2 long
    else:  # pragma: no cover - guarded by build_root_datum
        raise ValueError(f"unknown Cartan type {cartan_type!r}")
    return tuple(tuple(row) for row in a)


class _Record:
    """The values its ``__slots__`` name, as a frozen dataclass holds them:
    equal and hashed by value, refusing assignment and deletion with
    ``AttributeError``.  It compiles no code at import, and ``dataclasses``
    (which imports ``inspect``) stays unloaded.  Values are passed by
    keyword; a record built in a hot loop defines its own ``__init__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, **values):
        if values.keys() != set(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the values {', '.join(self.__slots__)}")
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots here, past __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({values})"


class RootDatum(_Record):
    """Root datum of a simple type, with paired (root, coroot) lists."""

    __slots__ = (
        "cartan_type",
        "rank",
        "cartan_matrix",  # cartan_matrix[i][j] = <alpha_j, alpha_i^vee>
        "positive_roots",  # root coordinates; positive_roots[k] <-> positive_coroots[k]
        "positive_coroots",  # coroot coordinates
        "rho",  # half-sum of the positive coroots, coroot coordinates (Fractions)
        "pairing_rows",  # <positive_roots[k], mu> = pairing_rows[k] . mu, in integers
        "root_index",  # positive root -> its index k
    )

    @property
    def simple_roots(self) -> tuple:
        """Unit vectors: the i-th simple root in simple-root coordinates."""
        n = self.rank
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    @property
    def simple_coroots(self) -> tuple:
        """Unit vectors: the i-th simple coroot in simple-coroot coordinates."""
        n = self.rank
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    @property
    def highest_root(self) -> tuple[int, ...]:
        return self.positive_roots[-1]

    @property
    def highest_root_coroot(self) -> tuple[int, ...]:
        """Coroot paired with the highest root (coroot coordinates)."""
        return self.positive_coroots[-1]

    @property
    def dual(self) -> "RootDatum":
        """Datum with transposed Cartan data (roots and coroots swapped)."""
        swap = {"B": "C", "C": "B"}
        return build_root_datum(swap.get(self.cartan_type, self.cartan_type), self.rank)

    def weyl_order(self) -> int:
        t, n = self.cartan_type, self.rank
        if t == "A":
            import math

            return math.factorial(n + 1)
        if t in ("B", "C"):
            import math

            return 2 ** n * math.factorial(n)
        if t == "D":
            import math

            return 2 ** (n - 1) * math.factorial(n)
        return _WEYL_ORDERS[f"{t}{n}"]

    def __hash__(self) -> int:
        # type and rank determine the rest; hashing every root and coroot
        # would make each cache lookup keyed by a datum cost microseconds
        return hash((self.cartan_type, self.rank))

    def __repr__(self) -> str:
        return f"RootDatum({self.cartan_type}{self.rank})"


class RationalCoweight(_Record):
    """A coweight mu/n with mu integral (coroot coordinates) and n >= 1."""

    __slots__ = ("mu", "n")

    def __init__(self, mu, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError("denominator must be a positive integer")
        mu = tuple(mu)
        if not all(isinstance(c, int) for c in mu):
            raise ValueError("mu must be a vector of integers")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "n", n)

    @property
    def vector(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.n) for c in self.mu)

    def __repr__(self) -> str:
        return f"RationalCoweight({','.join(map(str, self.mu))}/{self.n})"


def _simple_reflect_root(cartan, i: int, vec):
    """s_i on a root-side vector: only coordinate i changes."""
    pair = sum(cartan[i][j] * vec[j] for j in range(len(vec)))
    out = list(vec)
    out[i] = vec[i] - pair
    return tuple(out)


def _simple_reflect_coweight(cartan, i: int, vec):
    """s_i on a coroot-side vector (coweight): uses the transposed row."""
    pair = sum(cartan[j][i] * vec[j] for j in range(len(vec)))
    out = list(vec)
    out[i] = vec[i] - pair
    return tuple(out)


@lru_cache(maxsize=None)  # one datum per type: its roots and rows are built once
def build_root_datum(cartan_type: str, rank: int) -> RootDatum:
    """Construct the datum for a simple type A..G of the given rank."""
    if cartan_type not in _RANK_BOUNDS:
        raise ValueError(f"unknown Cartan type {cartan_type!r} (expected one of A..G)")
    lo, hi = _RANK_BOUNDS[cartan_type]
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError(f"rank {rank} is out of range for type {cartan_type}")
    cartan = _cartan_matrix(cartan_type, rank)

    # Generate the (root, coroot) pairs by reflection closure from the simples.
    simples = [(tuple(int(i == j) for j in range(rank)),) * 2 for i in range(rank)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for root, coroot in frontier:
            for i in range(rank):
                image = (_simple_reflect_root(cartan, i, root),
                         _simple_reflect_coweight(cartan, i, coroot))
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    positives = sorted((p for p in seen if all(c >= 0 for c in p[0])),
                       key=lambda p: (sum(p[0]), p[0]))
    roots = tuple(p[0] for p in positives)
    coroots = tuple(p[1] for p in positives)
    rho = tuple(Fraction(sum(c[j] for c in coroots), 2) for j in range(rank))
    rows = tuple(tuple(sum(cartan[j][i] * beta[i] for i in range(rank)) for j in range(rank))
                 for beta in roots)
    datum = RootDatum(cartan_type=cartan_type, rank=rank, cartan_matrix=cartan,
                      positive_roots=roots, positive_coroots=coroots, rho=rho,
                      pairing_rows=rows, root_index={beta: k for k, beta in enumerate(roots)})
    for i in range(rank):
        if pairing(datum, roots[i], rho) != 1:
            raise AssertionError("rho must pair to 1 with each simple")
    return datum


def pairing(datum: RootDatum, alpha: Sequence, lam: Sequence) -> Fraction:
    """Canonical pairing <alpha, lam> of a root with a coweight.

    ``alpha`` is in root coordinates, ``lam`` in coroot coordinates.
    """
    cartan = datum.cartan_matrix
    n = datum.rank
    if len(alpha) != n or len(lam) != n:
        raise ValueError("vector length does not match the rank")
    total = Fraction(0)
    for j in range(n):
        if lam[j]:
            total += Fraction(lam[j]) * sum(cartan[j][i] * alpha[i] for i in range(n))
    return total


def reflect(datum: RootDatum, i: int, vec: Sequence, side: str = "coweight"):
    """Simple reflection s_i on a root-side or coroot-side vector."""
    if not 0 <= i < datum.rank:
        raise ValueError(f"generator index {i} out of range")
    if side == "coweight":
        return _simple_reflect_coweight(datum.cartan_matrix, i, tuple(vec))
    if side == "root":
        return _simple_reflect_root(datum.cartan_matrix, i, tuple(vec))
    raise ValueError("side must be 'coweight' or 'root'")


def reflect_coweight_by_root(datum: RootDatum, alpha, alpha_coroot, lam):
    """Reflection attached to an arbitrary root: lam - <alpha, lam> alpha^vee."""
    c = pairing(datum, alpha, lam)
    return tuple(Fraction(x) - c * a for x, a in zip(lam, alpha_coroot))
