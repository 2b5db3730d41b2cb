"""Synthetic two-group networked populations.

Generates undirected random graphs over an infected and an uninfected group
in which each node pair carries an independent edge probability determined by
the pair's group memberships (three block probabilities).  The blocks are not
given directly: they are solved from population-level moments that are easier
to reason about when designing a study:

* ``mean_degree``: expected degree averaged over the whole population,
* ``homophily_ratio``: infected-infected edge probability relative to the
  cross-group edge probability,
* ``differential_activity``: ratio of the expected mean degree of infected
  nodes to that of uninfected nodes.

A `Network` stores its adjacency as CSR arrays; its ``edges`` list is derived
from them on each access.  Networks serialize to a plain edge-list text
format, see `save_network`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, as_int, read_text

__all__ = [
    "NetworkSpec",
    "BlockProbabilities",
    "Network",
    "NetworkStats",
    "solve_block_probabilities",
    "generate_network",
    "network_summary",
    "save_network",
    "load_network",
    "MAX_NODES",
]

#: Largest node count a spec or a network file may declare.
MAX_NODES = 10**7

# Pair indices `generate_network` decodes at once, so its temporaries stay small.
_DECODE_SLICE = 2**13


def _key_layout(n: int) -> tuple[int, type]:
    """Bits per node id in a CSR key ``src << bits | dst`` over ``n`` nodes, and the key dtype.

    Two ids fit a signed 32-bit key up to n = 2**15, and an int64 one up to `MAX_NODES`.
    """
    bits = (n - 1).bit_length()
    return bits, np.int32 if bits <= 15 else np.int64


@dataclass(frozen=True)
class NetworkSpec:
    """Moment-level description of a population to generate.

    Defaults describe a population of 1000 nodes, 200 of them infected, with
    mean degree 7, a 5:1 within-infected homophily ratio, and equal expected
    degrees in both groups.
    """

    n_nodes: int = 1000
    n_infected: int = 200
    mean_degree: float = 7.0
    homophily_ratio: float = 5.0
    differential_activity: float = 1.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.n_nodes <= MAX_NODES:
            raise ConfigError(f"n_nodes must lie in [2, {MAX_NODES}], got {self.n_nodes}")
        if not 0 < self.n_infected < self.n_nodes:
            raise ConfigError(
                f"n_infected must lie strictly between 0 and n_nodes, got {self.n_infected}"
            )
        if not self.mean_degree > 0:
            raise ConfigError(f"mean_degree must be > 0, got {self.mean_degree}")
        if not self.homophily_ratio > 0:
            raise ConfigError(f"homophily_ratio must be > 0, got {self.homophily_ratio}")
        if not self.differential_activity > 0:
            raise ConfigError(
                f"differential_activity must be > 0, got {self.differential_activity}"
            )
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class BlockProbabilities:
    """Per-pair edge probabilities for the three block types."""

    infected_infected: float
    cross: float
    uninfected_uninfected: float


class _Neighbors(Sequence):
    """Read-only ``view[i]``: node i's ascending neighbor list, read off the CSR arrays."""

    def __init__(self, net: Network):
        self.net = net

    def __len__(self) -> int:
        return self.net.n_nodes

    def __getitem__(self, i) -> list[int]:
        i = range(len(self))[i]
        return self.net.indices[self.net.indptr[i] : self.net.indptr[i + 1]].tolist()


class Network:
    """Undirected simple graph over nodes ``0 .. n_nodes - 1``.

    Attributes
    ----------
    infected : ndarray of bool, shape (n_nodes,)
        Group label per node.
    degrees : ndarray of int, shape (n_nodes,)
    indptr, indices : ndarray of int
        CSR adjacency: node i's neighbors are ``indices[indptr[i]:indptr[i + 1]]``, ascending.
    edges : ndarray of int, shape (n_edges, 2)
        Canonical edge list, each row ``(u, v)`` with ``u < v``, sorted; derived
        from the CSR arrays on each access.
    neighbors : sequence of list of int
        Read-only view of the same adjacency, one ascending list per node.
    """

    __slots__ = ("infected", "degrees", "indptr", "indices")

    def __init__(self, infected: np.ndarray, edges: np.ndarray):
        infected = np.asarray(infected, dtype=bool)
        if infected.ndim != 1:
            raise ConfigError(f"infected must be 1-D, got shape {infected.shape}")
        edges = np.asarray(edges)
        # An empty edge list of any shape is accepted; `load_network` passes (0,).
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu"):
            raise ConfigError(f"edges must be an (E, 2) array of integer node ids, "
                              f"got shape {edges.shape} of {edges.dtype}")
        edges = edges.astype(np.int64, copy=False).reshape(-1, 2)
        n = infected.shape[0]
        if n > MAX_NODES:
            raise ConfigError(f"infected must have at most {MAX_NODES} entries, got {n}")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ConfigError("edge endpoint out of range")
        if (edges[:, 0] == edges[:, 1]).any():
            raise ConfigError("self loops are not allowed")
        bits, dtype = _key_layout(n)
        keys = np.empty((2, edges.shape[0]), dtype=dtype)
        np.left_shift(edges.T, bits, out=keys)
        keys |= edges.T[::-1]
        self._fill(infected, keys.reshape(-1), bits)

    @classmethod
    def _from_keys(cls, infected: np.ndarray, keys: np.ndarray, bits: int) -> Network:
        """A network from its CSR keys, taken unchecked; see `_fill`."""
        net = cls.__new__(cls)
        net._fill(infected, keys, bits)
        return net

    def _fill(self, infected: np.ndarray, keys: np.ndarray, bits: int) -> None:
        """Build the CSR from ``keys``, which it sorts in place.

        ``keys`` holds ``src << bits | dst`` (`_key_layout`) for both directions
        of every edge, in any order, repeats allowed.
        """
        keys.sort()
        if (keys[1:] == keys[:-1]).any():  # only a caller's edge list repeats
            keys = np.unique(keys)
        # One int64 buffer holds each key's row for the bincount, then its column.
        indices = np.right_shift(keys, bits, out=np.empty(keys.shape, dtype=np.int64))
        self.degrees = np.bincount(indices, minlength=infected.shape[0])
        np.bitwise_and(keys, (1 << bits) - 1, out=indices)
        self.infected = infected
        self.indptr = np.zeros(infected.shape[0] + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self.indptr[1:])
        self.indices = indices

    @property
    def edges(self) -> np.ndarray:
        src = np.repeat(np.arange(self.n_nodes), self.degrees)
        upper = src < self.indices
        return np.column_stack([src[upper], self.indices[upper]])

    @property
    def neighbors(self) -> _Neighbors:
        return _Neighbors(self)

    @property
    def n_nodes(self) -> int:
        return self.infected.shape[0]

    @property
    def n_infected(self) -> int:
        return int(self.infected.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        # Equal node counts and equal CSR rows are equal edge sets.
        return (
            np.array_equal(self.infected, other.infected)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


@dataclass(frozen=True)
class NetworkStats:
    """Realized summary of a generated or loaded network.

    ``differential_activity`` is None when it is undefined, i.e. when either
    group is empty or the uninfected group has zero mean degree.
    """

    n_nodes: int
    n_infected: int
    mean_degree: float
    mean_degree_infected: float
    mean_degree_uninfected: float
    differential_activity: float | None
    edges_infected_infected: int
    edges_cross: int
    edges_uninfected_uninfected: int
    n_isolates: int


def expected_group_degrees(spec: NetworkSpec) -> tuple[float, float]:
    """Expected mean degree of the infected and the uninfected group."""
    n_b = spec.n_nodes - spec.n_infected
    d_b = spec.n_nodes * spec.mean_degree / (spec.n_infected * spec.differential_activity + n_b)
    return spec.differential_activity * d_b, d_b


def solve_block_probabilities(spec: NetworkSpec) -> BlockProbabilities:
    """Solve the three block probabilities from the spec's moments.

    The blocks satisfy, with ``a`` the infected and ``b`` the uninfected
    group of sizes ``n_a`` and ``n_b``:

    * expected infected degree    ``d_a = p_aa (n_a - 1) + p_ab n_b``
    * expected uninfected degree  ``d_b = p_ab n_a + p_bb (n_b - 1)``
    * ``n_a d_a + n_b d_b = n_nodes * mean_degree``
    * ``d_a / d_b = differential_activity``
    * ``p_aa = homophily_ratio * p_ab``

    Raises
    ------
    ConfigError
        If any implied probability falls outside [0, 1].
    """
    n_a = spec.n_infected
    n_b = spec.n_nodes - n_a
    d_a, d_b = expected_group_degrees(spec)
    p_ab = d_a / (spec.homophily_ratio * (n_a - 1) + n_b)
    p_aa = spec.homophily_ratio * p_ab
    # With a single uninfected node there are no uninfected pairs and p_bb is
    # unconstrained; pin it to the cross probability.
    p_bb = (d_b - p_ab * n_a) / (n_b - 1) if n_b > 1 else p_ab
    for name, value in [
        ("infected-infected", p_aa),
        ("cross-group", p_ab),
        ("uninfected-uninfected", p_bb),
    ]:
        if not 0.0 <= value <= 1.0:
            raise ConfigError(
                f"spec is infeasible: implied {name} edge probability {value:.6g} "
                f"is outside [0, 1]"
            )
    return BlockProbabilities(p_aa, p_ab, p_bb)


def _geometric_gaps(rng: np.random.Generator, p: float, size: int) -> np.ndarray:
    """The values and draws of ``rng.geometric(p, size)``, as floats below p = 1/3.

    There numpy inverts one exponential per gap, ``ceil(E / -log1p(-p))``;
    this takes the logarithm once.  From 1/3 up numpy searches instead.
    """
    if p >= 1 / 3:
        return rng.geometric(p, size=size)
    gaps = rng.standard_exponential(size)
    gaps /= -math.log1p(-p)
    return np.ceil(gaps, out=gaps)


def _skip_sample(rng: np.random.Generator, m: int, p: float) -> np.ndarray:
    """Ascending indices in ``[0, m)``, each kept independently with probability ``p``.

    The gaps between kept indices are geometric (Batagelj & Brandes 2005), so
    the cost is O(kept).  Positions add up in float64, where the huge gaps of
    a tiny ``p`` cannot overflow, exactly below 2**53 (no block reaches that).
    """
    parts, last = [], -1.0
    while p > 0.0 and last < m - 1:
        # Enough gaps to reach the end of the block in one draw almost always.
        mean = (m - 1 - last) * p
        kept = np.cumsum(_geometric_gaps(rng, p, int(mean + 4.0 * np.sqrt(mean)) + 16),
                         dtype=np.float64)
        kept += last
        parts.append(kept)
        last = kept[-1]
    kept = parts[0] if len(parts) == 1 else np.concatenate([np.zeros(0), *parts])
    return kept[: np.searchsorted(kept, m)].astype(np.int64)


def _triangle_pairs(k: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """``(row, col)`` of row-major indices ``k`` into the strict upper triangle of ``s x s``.

    Row ``i`` starts at ``i (2s - 1 - i) / 2``; the float inverse of that can
    land a row off once ``sqrt`` rounds, so integers correct it by one.
    """
    b = 2 * s - 1
    i = np.floor((b - np.sqrt(b * b - 8.0 * k)) / 2).astype(np.int64)
    i -= i * (b - i) >> 1 > k
    i += (i + 1) * (b - i - 1) >> 1 <= k
    return i, k - (i * (b - i) >> 1) + i + 1


def generate_network(spec: NetworkSpec) -> Network:
    """Draw one network from the spec.

    Every unordered node pair receives an independent Bernoulli edge with the
    probability of its block, skip-sampled block by block in O(N + E) time.
    Nodes ``0 .. n_infected - 1`` are infected.  Deterministic given
    ``spec.rng_seed``.

    Each block decodes, a bounded slice at a time, straight into the CSR keys
    of both directions of its edges (`Network._fill`), 32-bit up to 2**15
    nodes, so the peak memory of a call is little more than the keys and the
    CSR built from them: at mean degree 7 and one infected node in five the
    tracemalloc peak is about 1.0 MB at 10,000 nodes and 12.3 MB at 100,000
    nodes.
    """
    p = solve_block_probabilities(spec)
    rng = np.random.default_rng(spec.rng_seed)
    n, n_a = spec.n_nodes, spec.n_infected
    n_b = n - n_a
    ii = _skip_sample(rng, n_a * (n_a - 1) // 2, p.infected_infected)
    cross = _skip_sample(rng, n_a * n_b, p.cross)
    uu = _skip_sample(rng, n_b * (n_b - 1) // 2, p.uninfected_uninfected)
    bits, dtype = _key_layout(n)
    a, b = len(ii), len(ii) + len(cross)
    keys = np.empty((2, b + len(uu)), dtype=dtype)

    def put(start: int, pairs: np.ndarray, decode, shift_u: int, shift_v: int) -> None:
        """Write edges ``(u + shift_u, v + shift_v)``, ``u, v = decode(pairs)``, from ``start`` on.

        Forward keys go to ``keys[0]``, backward keys to ``keys[1]``, one slice at a time.
        """
        for lo in range(0, len(pairs), _DECODE_SLICE):
            u, v = decode(pairs[lo : lo + _DECODE_SLICE])
            u += shift_u
            v += shift_v
            rows = slice(start + lo, start + lo + len(u))
            for out, src, dst in ((keys[0, rows], u, v), (keys[1, rows], v, u)):
                np.left_shift(src, bits, out=out)
                out |= dst

    # Each block's pair indices are freed before the next block decodes.
    put(0, ii, lambda k: _triangle_pairs(k, n_a), 0, 0)
    del ii
    put(a, cross, lambda k: np.divmod(k, n_b), 0, n_a)
    del cross
    put(b, uu, lambda k: _triangle_pairs(k, n_b), n_a, n_a)
    del uu
    return Network._from_keys(np.arange(n) < n_a, keys.reshape(-1), bits)


def network_summary(net: Network) -> NetworkStats:
    """Realized moments and block edge counts of a network."""
    inf = net.infected
    deg = net.degrees
    n_a = int(inf.sum())
    n_b = net.n_nodes - n_a
    mean_a = float(deg[inf].mean()) if n_a else float("nan")
    mean_b = float(deg[~inf].mean()) if n_b else float("nan")
    da: float | None = None
    if n_a and n_b and mean_b > 0:
        da = mean_a / mean_b
    # Each edge is two CSR entries, one per direction.
    u_inf, v_inf = np.repeat(inf, deg), inf[net.indices]
    ii = int(np.count_nonzero(u_inf & v_inf)) // 2
    cross = int(np.count_nonzero(u_inf ^ v_inf)) // 2
    return NetworkStats(
        n_nodes=net.n_nodes,
        n_infected=n_a,
        mean_degree=float(deg.mean()) if net.n_nodes else float("nan"),
        mean_degree_infected=mean_a,
        mean_degree_uninfected=mean_b,
        differential_activity=da,
        edges_infected_infected=ii,
        edges_cross=cross,
        edges_uninfected_uninfected=len(u_inf) // 2 - ii - cross,
        n_isolates=int((deg == 0).sum()),
    )


def save_network(net: Network, path) -> None:
    """Write a network as edge-list text.

    Line 1: ``n_nodes n_infected``.  Line 2: space-separated infected node
    ids (empty line when none).  Then one ``u v`` edge per line with
    ``u < v``, ascending.  Isolates survive a round trip because node count
    comes from the header.
    """
    ids = np.flatnonzero(net.infected)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{net.n_nodes} {len(ids)}\n")
        fh.write(" ".join(str(i) for i in ids.tolist()) + "\n")
        for u, v in net.edges.tolist():
            fh.write(f"{u} {v}\n")


def load_network(path) -> Network:
    """Read a network written by `save_network`.

    An edge listed twice, in either orientation, is refused with the line of
    its repeat; `Network` itself merges repeats for in-memory callers.
    """
    header, id_line, *edge_lines = read_text(path).split("\n") + [""]
    if len(header.split()) != 2:
        raise ConfigError(f"{path}: malformed header, expected 'n_nodes n_infected'")
    n, n_a = (as_int(tok, f"{path}:1") for tok in header.split())
    if not 0 <= n <= MAX_NODES:
        raise ConfigError(f"{path}:1: node count must lie in [0, {MAX_NODES}], got {n}")
    ids = [as_int(tok, f"{path}:2") for tok in id_line.split()]
    if len(ids) != n_a:
        raise ConfigError(f"{path}: header declares {n_a} infected ids, found {len(ids)}")
    if len(set(ids)) != len(ids):
        raise ConfigError(f"{path}:2: repeated infected id")
    infected = np.zeros(n, dtype=bool)
    for i in ids:
        if not 0 <= i < n:
            raise ConfigError(f"{path}:2: infected id {i} out of range")
        infected[i] = True
    edges = []
    first_seen: dict[tuple[int, int], int] = {}
    for lineno, line in enumerate(edge_lines, start=3):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError(f"{path}:{lineno}: expected 'u v'")
        u, v = (as_int(tok, f"{path}:{lineno}") for tok in parts)
        if not (0 <= u < n and 0 <= v < n):
            raise ConfigError(f"{path}:{lineno}: edge endpoint out of range")
        if u == v:
            raise ConfigError(f"{path}:{lineno}: self loop at node {u}")
        seen = first_seen.setdefault((min(u, v), max(u, v)), lineno)
        if seen != lineno:
            raise ConfigError(f"{path}:{lineno}: edge {u} {v} repeats the edge of line {seen}")
        edges.append((u, v))
    return Network(infected, np.array(edges, dtype=np.int64))
