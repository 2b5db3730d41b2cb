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

Networks serialize to a plain edge-list text format, see `save_network`.
"""

from __future__ import annotations

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
]


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
        if self.n_nodes < 2:
            raise ConfigError(f"n_nodes must be >= 2, got {self.n_nodes}")
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


@dataclass(frozen=True)
class BlockProbabilities:
    """Per-pair edge probabilities for the three block types."""

    infected_infected: float
    cross: float
    uninfected_uninfected: float


class Network:
    """Undirected simple graph over nodes ``0 .. n_nodes - 1``.

    Attributes
    ----------
    infected : ndarray of bool, shape (n_nodes,)
        Group label per node.
    edges : ndarray of int, shape (n_edges, 2)
        Canonical edge list, each row ``(u, v)`` with ``u < v``, sorted.
    degrees : ndarray of int, shape (n_nodes,)
    neighbors : list of list of int
        Adjacency, each neighbor list ascending.
    """

    __slots__ = ("infected", "edges", "degrees", "neighbors")

    def __init__(self, infected: np.ndarray, edges: np.ndarray):
        infected = np.asarray(infected, dtype=bool)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        n = infected.shape[0]
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ConfigError("edge endpoint out of range")
            if (edges[:, 0] == edges[:, 1]).any():
                raise ConfigError("self loops are not allowed")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            edges = np.unique(np.column_stack([lo, hi]), axis=0)
        self.infected = infected
        self.edges = edges
        self.degrees = np.bincount(edges.ravel(), minlength=n).astype(np.int64)
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges.tolist():
            neighbors[u].append(v)
            neighbors[v].append(u)
        for lst in neighbors:
            lst.sort()
        self.neighbors = neighbors

    @property
    def n_nodes(self) -> int:
        return self.infected.shape[0]

    @property
    def n_infected(self) -> int:
        return int(self.infected.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.infected.shape == other.infected.shape
            and bool((self.infected == other.infected).all())
            and self.edges.shape == other.edges.shape
            and bool((self.edges == other.edges).all())
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


def _bernoulli_edges(rng: np.random.Generator, us: np.ndarray, vs: np.ndarray, p: float):
    keep = rng.random(us.shape[0]) < p
    return us[keep], vs[keep]


def generate_network(spec: NetworkSpec) -> Network:
    """Draw one network from the spec.

    Every unordered node pair receives an independent Bernoulli edge with the
    probability of its block.  Nodes ``0 .. n_infected - 1`` are infected.
    Deterministic given ``spec.rng_seed``.
    """
    probs = solve_block_probabilities(spec)
    rng = np.random.default_rng(spec.rng_seed)
    n, n_a = spec.n_nodes, spec.n_infected
    infected = np.zeros(n, dtype=bool)
    infected[:n_a] = True

    chunks = []
    iu, iv = np.triu_indices(n_a, k=1)
    chunks.append(_bernoulli_edges(rng, iu, iv, probs.infected_infected))
    cu, cv = np.meshgrid(np.arange(n_a), np.arange(n_a, n), indexing="ij")
    chunks.append(_bernoulli_edges(rng, cu.ravel(), cv.ravel(), probs.cross))
    bu, bv = np.triu_indices(n - n_a, k=1)
    chunks.append(
        _bernoulli_edges(rng, bu + n_a, bv + n_a, probs.uninfected_uninfected)
    )
    us = np.concatenate([c[0] for c in chunks])
    vs = np.concatenate([c[1] for c in chunks])
    return Network(infected, np.column_stack([us, vs]))


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
    u_inf = inf[net.edges[:, 0]] if net.edges.size else np.zeros(0, dtype=bool)
    v_inf = inf[net.edges[:, 1]] if net.edges.size else np.zeros(0, dtype=bool)
    return NetworkStats(
        n_nodes=net.n_nodes,
        n_infected=n_a,
        mean_degree=float(deg.mean()),
        mean_degree_infected=mean_a,
        mean_degree_uninfected=mean_b,
        differential_activity=da,
        edges_infected_infected=int((u_inf & v_inf).sum()),
        edges_cross=int((u_inf ^ v_inf).sum()),
        edges_uninfected_uninfected=int((~u_inf & ~v_inf).sum()),
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
    """Read a network written by `save_network`."""
    header, id_line, *edge_lines = read_text(path).split("\n") + [""]
    if len(header.split()) != 2:
        raise ConfigError(f"{path}: malformed header, expected 'n_nodes n_infected'")
    n, n_a = (as_int(tok, f"{path}:1") for tok in header.split())
    if n < 0:
        raise ConfigError(f"{path}:1: node count must be >= 0, got {n}")
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
    for lineno, line in enumerate(edge_lines, start=3):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError(f"{path}:{lineno}: expected 'u v'")
        u, v = (as_int(tok, f"{path}:{lineno}") for tok in parts)
        if not (0 <= u < n and 0 <= v < n):
            raise ConfigError(f"{path}:{lineno}: edge endpoint out of range")
        edges.append((u, v))
    edge_arr = np.array(edges, dtype=np.int64) if edges else np.zeros((0, 2), dtype=np.int64)
    return Network(infected, edge_arr)
