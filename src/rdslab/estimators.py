"""Population-proportion estimators for referral samples.

Every estimator consumes a `Sample` (reported degrees, infection labels, and
the recruiter-recruit relation) and returns the estimated share of infected
nodes in the underlying population.  Five estimators are provided:

* ``naive_estimate``: the raw sample proportion.
* ``vh_estimate``: inverse-degree reweighting, treating inclusion
  probability as proportional to degree.
* ``ss_estimate``: inverse reweighting by inclusion probabilities under
  successive sampling (draws without replacement, probability proportional
  to degree) from an estimated population, solved as a fixed point (for
  large populations, the root of one scalar equation).
* ``sh_estimate``: cross-group recruitment balance combined with harmonic
  mean degrees per group.
* ``h_estimate``: the same balance step over degree-adjusted means (SH's
  harmonic means are the case of unit RCDs), with RCDs from the equilibrium
  of the recruitment Markov chain over degree groups.

``estimate_all`` computes the full set, converting estimator failures into
stable failure codes instead of exceptions.

Seeds count as recruiters but never as recruits in all recruitment tallies.

The estimators are array expressions over the sample's columns.  Weighted
sums are ``np.cumsum(x)[-1]``: left to right in enrolment order, as a ``+=``
loop adds, where ``np.sum``'s pairwise order would move the last bits.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, EstimationError
from .sampler import Sample

__all__ = [
    "SsOptions",
    "CrossGroupCounts",
    "DegreeGroups",
    "EstimateSet",
    "naive_estimate",
    "vh_estimate",
    "ss_probabilities",
    "ss_estimate",
    "cross_group_counts",
    "harmonic_mean_degree",
    "sh_estimate",
    "partition_degree_groups",
    "degree_group_transition_matrix",
    "equilibrium_distribution",
    "rcd_values",
    "adjusted_degree",
    "h_estimate",
    "ESTIMATOR_NAMES",
    "estimate_all",
]

#: Failure codes carried by EstimationError and EstimateSet.
NO_RECRUITMENTS_FROM_GROUP = "no_recruitments_from_group"
NO_CROSS_GROUP_RECRUITMENTS = "no_cross_group_recruitments"
NO_RECRUITMENT_EVENTS = "no_recruitment_events"
SS_NONCONVERGENCE = "ss_nonconvergence"
EMPTY_SAMPLE = "empty_sample"
EMPTY_GROUP = "empty_group"
ZERO_DEGREE = "zero_degree"
ZERO_RCD_SUM = "zero_rcd_sum"

#: ``auto`` enumerates successive sampling exactly up to this many units.
ENUMERATION_LIMIT = 12

#: ``enumerate`` refuses a composition with more draw states (the product of
#: count + 1 over classes) or more draws (its recursion depth) than these.
ENUMERATION_MAX_STATES = 100_000
ENUMERATION_MAX_DRAWS = 500

#: Passes allowed in each SS loop: the Newton steps of `_asymptotic_inclusion`
#: and `_asymptotic_fixed_point`, and the passes of `_ss_fixed_point`'s map
#: over integer compositions.  A Newton solve takes about
#: 8 + 2.3 log10(N / (N - n)) steps, the stopping one included: at most 35 on
#: random heavy-tailed compositions (degrees to 500, up to 40 classes) for
#: n / N up to 1 - 1e-12.
_MAX_STEPS = 50

#: `equilibrium_distribution` counts a singular value under this share of the largest as 0.
_RANK_CUTOFF = 1e-12


# --------------------------------------------------------------------------
# simple reweighting estimators

def _require_nonempty(sample: Sample) -> None:
    if sample.size == 0:
        raise EstimationError("sample is empty", code=EMPTY_SAMPLE)


def _require_positive_degrees(sample: Sample, members=slice(None), detail: str = "") -> None:
    """`ZERO_DEGREE` naming the first of ``members`` (default all) with degree < 1."""
    low = sample.degree[members] < 1
    if low.any():
        i = np.arange(sample.size)[members][low.argmax()]
        message = f"node {sample.node_id[i]} has degree {sample.degree[i]}{detail}"
        raise EstimationError(message, code=ZERO_DEGREE)


def _running_total(values: np.ndarray) -> np.float64:
    """Left-to-right sum, rounded as a ``+=`` loop rounds; 0.0 when empty."""
    return np.cumsum(values)[-1] if values.size else np.float64(0.0)


def naive_estimate(sample: Sample) -> float:
    """Sample proportion of infected respondents."""
    _require_nonempty(sample)
    return sample.n_infected / sample.size


def _inverse_weight_ratio(sample: Sample, inclusion: np.ndarray) -> float:
    """Infected share with each respondent weighted by ``1 / inclusion``."""
    weights = 1.0 / inclusion
    return float(_running_total(weights[sample.infected]) / _running_total(weights))


def vh_estimate(sample: Sample) -> float:
    """Inverse-degree reweighted proportion.

    Weighs respondent ``i`` by ``1 / degree_i``, the with-replacement
    approximation to inclusion under degree-proportional sampling.
    """
    _require_nonempty(sample)
    _require_positive_degrees(sample, detail="; inverse-degree weights need degree >= 1")
    return _inverse_weight_ratio(sample, sample.degree.astype(np.float64))


# --------------------------------------------------------------------------
# successive sampling estimator

@dataclass(frozen=True)
class SsOptions:
    """Controls for the successive-sampling fixed point.

    ``method`` is ``auto`` (exact enumeration for populations of at most
    `ENUMERATION_LIMIT` units, otherwise the deterministic large-population
    closed form on the real-valued estimated composition), ``enumerate``, or
    ``monte_carlo``.  Under the closed form the fixed point is the root of
    one equation in the race threshold t, solved by Newton to rounding.
    ``enumerate`` and ``monte_carlo`` iterate the map over integer
    compositions until a composition repeats.  No option stops either: each
    loop is capped by the module constant `_MAX_STEPS`.  ``monte_carlo`` is
    the reference path: it reuses one frozen block of ``mc_replications``
    x N exponential draws, seeded by ``rng_seed``, across fixed-point
    iterations, so the iteration is a deterministic map over a finite set
    and must revisit a composition.  ``mc_replications`` and ``rng_seed``
    matter only under ``monte_carlo``.
    """

    mc_replications: int = 2000
    rng_seed: int = 0
    method: str = "auto"

    def __post_init__(self) -> None:
        if self.method not in ("auto", "enumerate", "monte_carlo"):
            raise ConfigError(f"unknown ss method {self.method!r}")
        if self.mc_replications < 1:
            raise ConfigError(f"mc_replications must be >= 1, got {self.mc_replications}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")


def _check_composition(degrees: np.ndarray, counts: np.ndarray, draws: int) -> None:
    if degrees.size == 0:
        raise ConfigError("population composition is empty")
    if (degrees < 1).any():
        raise ConfigError("population degrees must be >= 1")
    if (counts < 1).any():
        raise ConfigError("population degree counts must be >= 1")
    if draws < 0 or draws > counts.sum():
        raise ConfigError(
            f"draws must lie in [0, population size], got {draws} of {int(counts.sum())}"
        )


def _enumerated_inclusion(degrees: np.ndarray, counts: np.ndarray, draws: int) -> np.ndarray:
    """Exact per-class inclusion probabilities by recursion over draw states."""
    k = degrees.size
    if draws >= int(counts.sum()):  # census: every unit is drawn
        return np.ones(k)
    states = math.prod(int(c) + 1 for c in counts)
    if states > ENUMERATION_MAX_STATES or draws > ENUMERATION_MAX_DRAWS:
        raise ConfigError(
            f"ss method 'enumerate' cannot take {draws} draws over {states} states (limits "
            f"{ENUMERATION_MAX_DRAWS} and {ENUMERATION_MAX_STATES}); use auto or monte_carlo"
        )
    degs = degrees.tolist()
    memo: dict[tuple[int, ...], tuple[float, ...]] = {}

    def expected(state: tuple[int, ...], left: int) -> tuple[float, ...]:
        if left == 0:
            return (0.0,) * k
        cached = memo.get(state)
        if cached is not None:
            return cached
        total = sum(c * d for c, d in zip(state, degs))
        out = [0.0] * k
        for j in range(k):
            if state[j] == 0:
                continue
            p = state[j] * degs[j] / total
            child = expected(state[:j] + (state[j] - 1,) + state[j + 1 :], left - 1)
            out[j] += p
            for i in range(k):
                out[i] += p * child[i]
        result = tuple(out)
        memo[state] = result
        return result

    exp = expected(tuple(int(c) for c in counts), draws)
    return np.array([e / c for e, c in zip(exp, counts)])


def _isotonic_nondecreasing(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pool adjacent violators; preserves the weighted sum."""
    blocks: list[list[float]] = []  # value, weight, span
    for v, w in zip(values.tolist(), weights.tolist()):
        cur = [v, w, 1]
        while blocks and blocks[-1][0] > cur[0]:
            prev = blocks.pop()
            tw = prev[1] + cur[1]
            cur = [(prev[0] * prev[1] + cur[0] * cur[1]) / tw, tw, prev[2] + cur[2]]
        blocks.append(cur)
    out = np.empty_like(values)
    pos = 0
    for v, _, span in blocks:
        out[pos : pos + span] = v
        pos += span
    return out


def _race_inclusion(
    exp_block: np.ndarray, degrees: np.ndarray, counts: np.ndarray, draws: int
) -> np.ndarray:
    """Monte Carlo per-class inclusion probabilities via exponential races.

    A successive sample of ``draws`` units falls out of independent
    exponential clocks with rate equal to degree: the ``draws`` smallest
    clocks are exactly the drawn units.  ``exp_block`` is an (M, N) matrix
    of standard exponentials, one row per replication.
    """
    reps = exp_block.shape[0]
    slot_degree = np.repeat(degrees.astype(np.float64), counts)
    slot_class = np.repeat(np.arange(degrees.size), counts)
    if draws == 0:
        return np.zeros(degrees.size)
    clocks = exp_block / slot_degree
    picked = np.argpartition(clocks, draws - 1, axis=1)[:, :draws]
    inclusions = np.bincount(slot_class[picked].ravel(), minlength=degrees.size)
    pi = inclusions / (reps * counts)
    # True inclusion probabilities are nondecreasing in degree; project the
    # Monte Carlo estimate onto that cone (count-weighted, sum-preserving).
    pi = _isotonic_nondecreasing(pi, counts.astype(np.float64))
    pi = np.minimum(pi, 1.0)
    # Guard a zero Monte Carlo count so downstream reciprocals stay finite.
    return np.maximum(pi, 0.5 / (reps * counts))


def _asymptotic_inclusion(
    degrees: np.ndarray, counts: np.ndarray, draws: int
) -> np.ndarray:
    """Large-population per-class inclusion probabilities of the race.

    With exponential clocks of rate equal to degree, the ``draws`` smallest
    clocks of a large population fall below a threshold ``t`` fixed by the
    expected sample size, so ``pi_k = 1 - exp(-d_k t)`` with
    ``sum_k N_k pi_k = draws`` (order sampling with exponential ranking
    variables, Rosen 1997).  ``counts`` may be real-valued.
    """
    rate = degrees.astype(np.float64)
    size = counts.astype(np.float64)
    if draws >= size.sum():  # census: every unit is drawn
        return np.ones(degrees.size)
    # f(t) = sum N_k (1 - exp(-d_k t)) - draws is increasing and concave, so
    # Newton from t = 0 rises monotonically to the root; stop once a step no
    # longer moves t.
    # ``lost = expm1(-d t)`` is -pi, carried in place: ``N @ pi`` is exactly
    # ``-(N @ lost)`` and ``1 - pi`` exactly ``1 + lost``.
    t = 0.0
    lost = np.zeros(degrees.size)
    neg_rate = -rate
    size_rate = size * rate
    for _ in range(_MAX_STEPS):
        shortfall = draws + float(size @ lost)
        if shortfall <= 0.0:
            break
        advanced = t + shortfall / float(size_rate @ (1.0 + lost))
        if advanced <= t:
            break
        t = advanced
        np.expm1(np.multiply(neg_rate, t, out=lost), out=lost)
    return 0.0 - lost  # not -lost, which would turn the start's zeros into -0.0


def _inclusion_map(options: SsOptions, population_size: int):
    """``(degrees, counts, draws) -> pi`` for ``options.method`` and N units.

    ``monte_carlo`` binds one frozen block of exponential draws, so every
    call over the same N races the same clocks.
    """
    if options.method == "monte_carlo":
        rng = np.random.default_rng(options.rng_seed)
        block = rng.standard_exponential((options.mc_replications, population_size))
        return functools.partial(_race_inclusion, block)
    if options.method == "enumerate" or population_size <= ENUMERATION_LIMIT:
        return _enumerated_inclusion
    return _asymptotic_inclusion


def ss_probabilities(
    population_counts: dict[int, int], draws: int, options: SsOptions = SsOptions()
) -> dict[int, float]:
    """Inclusion probability per degree under one successive-sampling pass.

    ``population_counts`` maps degree to the number of population units of
    that degree; ``draws`` units are drawn without replacement, each draw
    picking a remaining unit with probability proportional to its degree.
    """
    degrees = np.array(sorted(population_counts), dtype=np.int64)
    counts = np.array([population_counts[d] for d in degrees.tolist()], dtype=np.int64)
    _check_composition(degrees, counts, draws)
    pi = _inclusion_map(options, int(counts.sum()))(degrees, counts, draws)
    return dict(zip(degrees.tolist(), pi.tolist()))


def _integer_composition(shares: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative shares summing to ``total`` to integers.

    Largest-remainder rounding, ties to the lower index; every class keeps
    at least one unit (borrowed from the largest class) so no sampled degree
    vanishes from the estimated population.
    """
    floors = np.floor(shares).astype(np.int64)
    remainder = total - int(floors.sum())
    frac = shares - floors
    order = sorted(range(shares.size), key=lambda i: (-frac[i], i))
    for i in order[:remainder]:
        floors[i] += 1
    while (floors == 0).any():
        floors[int(np.argmax(floors == 0))] += 1
        floors[int(np.argmax(floors))] -= 1
    return floors


def _not_converged() -> EstimationError:
    return EstimationError(
        f"successive-sampling fixed point did not converge in {_MAX_STEPS} iterations",
        code=SS_NONCONVERGENCE,
    )


def _asymptotic_fixed_point(
    degrees: np.ndarray, sample_counts: np.ndarray, population_size: int
) -> np.ndarray:
    """Fixed point of the estimated composition under `_asymptotic_inclusion`.

    With ``c_k`` sampled units of degree ``d_k``, ``n = sum_k c_k`` and N
    units in all, the map's fixed point puts ``N_k`` in proportion to
    ``c_k / pi_k`` with ``sum_k N_k pi_k = n``, so it is the root of the
    single equation ``S(t) = sum_k c_k / (1 - exp(-d_k t)) = N``.  S falls
    from +inf to n and is convex, so the root is unique for n < N;
    ``1 - exp(-x) < x`` puts ``t0 = sum_k (c_k / d_k) / N`` left of it, and
    Newton from there rises monotonically.  It stops once ``S(t) <= N`` or a
    step no longer moves t, within 35 steps for n / N anywhere in
    [1e-7, 1 - 1e-12].  Iterating the map itself converges only linearly,
    and on some heavy-tailed compositions at sampling fractions around one
    half it settles into a 2-cycle around this root instead.
    """
    neg_rate = -degrees.astype(np.float64)
    count_rate = sample_counts * degrees
    target = float(population_size)
    t = float(sample_counts @ (1.0 / degrees)) / target
    lost = np.empty(degrees.size)  # expm1(-d t), which is -pi
    for _ in range(_MAX_STEPS):
        np.expm1(np.multiply(neg_rate, t, out=lost), out=lost)
        inverse = 1.0 / lost
        excess = -float(sample_counts @ inverse) - target
        if excess <= 0.0:
            break
        # -S'(t) = sum_k c_k d_k exp(-d_k t) / pi_k^2, and exp(-x) / pi^2 is
        # 1 / pi^2 - 1 / pi.  It is positive until every 1 / pi_k rounds to
        # 1, and then S(t) = n < N has already stopped the loop.
        advanced = t + excess / float(count_rate @ (inverse * (inverse + 1.0)))
        if advanced <= t:
            break
        t = advanced
    else:
        raise _not_converged()
    return -lost


def _ss_fixed_point(
    degrees: np.ndarray, sample_counts: np.ndarray, population_size: int, draws: int,
    options: SsOptions,
) -> np.ndarray:
    """Inclusion probability of each sorted distinct (positive) sample degree.

    ``sample_counts`` counts the sample's units of each degree and sums to
    ``draws``.  The fixed point re-estimates the population composition in
    proportion to ``sample_counts / pi`` and recomputes ``pi`` on it.  The
    large-population map is solved as one root in t by
    `_asymptotic_fixed_point`; the integer-composition methods iterate the
    map until a composition repeats and return the average of ``pi`` over
    the cycle it closes (one pass long at a fixed point).  Either raises
    ``ss_nonconvergence`` past `_MAX_STEPS` steps or passes.
    """
    sample_counts = sample_counts.astype(np.float64)
    if draws > population_size:
        raise ConfigError(
            f"sample size {draws} exceeds population size {population_size}"
        )
    inclusion = _inclusion_map(options, population_size)
    if inclusion is _asymptotic_inclusion:
        if draws == population_size:  # census: every unit is drawn
            return np.ones(degrees.size)
        return _asymptotic_fixed_point(degrees, sample_counts, population_size)
    estimated = sample_counts * (population_size / sample_counts.sum())
    seen: dict[tuple[int, ...], int] = {}
    history: list[np.ndarray] = []
    for _ in range(_MAX_STEPS):
        composition = _integer_composition(estimated, population_size)
        key = tuple(composition.tolist())
        if key in seen:
            # The iteration walks a finite set of integer compositions, so
            # a revisit means it entered a cycle (often two roundings that
            # straddle the continuous fixed point).  The cycle average is
            # the limit of the damped iteration; return it.
            return np.mean(history[seen[key] :], axis=0)
        pi = inclusion(degrees, composition, draws)
        seen[key] = len(history)
        history.append(pi)
        raw = sample_counts / pi
        estimated = raw * (population_size / raw.sum())
    raise _not_converged()


def ss_estimate(
    sample: Sample, population_size: int, options: SsOptions = SsOptions()
) -> float:
    """Successive-sampling reweighted proportion.

    Solves for per-degree inclusion probabilities consistent with drawing
    ``sample.size`` units from a population of ``population_size`` whose
    degree composition is itself re-estimated from the weighted sample, then
    reweighs respondents by the reciprocal probabilities.  Above
    `ENUMERATION_LIMIT` units, ``auto`` finds that fixed point as one root
    in t (see `_asymptotic_fixed_point`); the other methods iterate until a
    composition repeats.  Fails with ``ss_nonconvergence`` past `_MAX_STEPS`
    steps or passes.
    """
    _require_nonempty(sample)
    _require_positive_degrees(sample)
    # ``np.unique(sample.degree, return_inverse=True, return_counts=True)``,
    # spelled out at half its cost.
    ordered = np.sort(sample.degree)
    degrees = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    inverse = np.searchsorted(degrees, sample.degree)
    pi = _ss_fixed_point(degrees, np.bincount(inverse), population_size, sample.size, options)
    return _inverse_weight_ratio(sample, pi[inverse])


# --------------------------------------------------------------------------
# recruitment-balance estimators

@dataclass(frozen=True)
class CrossGroupCounts:
    """Recruiter-to-recruit tallies across infection groups.

    Seeds appear only on the recruiter side.
    """

    infected_to_infected: int
    infected_to_uninfected: int
    uninfected_to_infected: int
    uninfected_to_uninfected: int

    @property
    def from_infected(self) -> int:
        return self.infected_to_infected + self.infected_to_uninfected

    @property
    def from_uninfected(self) -> int:
        return self.uninfected_to_infected + self.uninfected_to_uninfected

    def proportion_infected_to_uninfected(self) -> float:
        """Share of recruits of infected recruiters who are uninfected."""
        return _recruit_share(self.infected_to_uninfected, self.from_infected, "infected")

    def proportion_uninfected_to_infected(self) -> float:
        """Share of recruits of uninfected recruiters who are infected."""
        return _recruit_share(self.uninfected_to_infected, self.from_uninfected, "uninfected")


def _recruit_share(part: int, recruits: int, group: str) -> float:
    if recruits == 0:
        raise EstimationError(
            f"{group} members made no recruitments", code=NO_RECRUITMENTS_FROM_GROUP
        )
    return part / recruits


def cross_group_counts(sample: Sample) -> CrossGroupCounts:
    """Tally recruitments between infection groups."""
    recruiter, recruited = sample.recruiter_pos, sample.recruiter_pos >= 0
    infected = sample.infected.astype(np.int64)
    cell = 2 * infected[recruiter[recruited]] + infected[recruited]
    # Cells 3, 2, 1, 0 are infected-infected, ..., uninfected-uninfected: the field order.
    return CrossGroupCounts(*np.bincount(cell, minlength=4).tolist()[::-1])


def harmonic_mean_degree(sample: Sample, infected: bool) -> float:
    """Harmonic mean of reported degrees over one infection group."""
    return float(adjusted_degree(sample, np.ones(sample.size), infected))


def _balance_ratio(
    c_infected_to_uninfected: float,
    c_uninfected_to_infected: float,
    infected_scale: float,
    uninfected_scale: float,
) -> float:
    """Infected share implied by balancing cross-group recruitment flows.

    ``uninfected_scale * C_ui / (infected_scale * C_iu + uninfected_scale * C_ui)``.
    Equals 1 exactly when uninfected members recruited infected ones but
    never the reverse.
    """
    num = uninfected_scale * c_uninfected_to_infected
    den = infected_scale * c_infected_to_uninfected + num
    if den == 0.0:
        raise EstimationError(
            "no cross-group recruitments in either direction",
            code=NO_CROSS_GROUP_RECRUITMENTS,
        )
    return num / den


def _cross_group_proportions(sample: Sample) -> tuple[float, float]:
    """``(C_iu, C_ui)``, the prologue of both balance estimators."""
    _require_nonempty(sample)
    counts = cross_group_counts(sample)
    return counts.proportion_infected_to_uninfected(), counts.proportion_uninfected_to_infected()


def _balanced_share(sample: Sample, rcd: np.ndarray, c_iu: float, c_ui: float) -> float:
    """`_balance_ratio` over each group's RCD-adjusted mean degree."""
    adj_infected = adjusted_degree(sample, rcd, True)
    adj_uninfected = adjusted_degree(sample, rcd, False)
    return float(_balance_ratio(c_iu, c_ui, adj_infected, adj_uninfected))


def sh_estimate(sample: Sample) -> float:
    """Cross-group balance estimate with harmonic mean degrees.

    Balances the recruitment flow between groups against their estimated
    mean degrees.  Requires at least one recruitment from each infection
    group; returns exactly 1 when cross-group recruitment ran only from the
    uninfected toward the infected group.
    """
    c_iu, c_ui = _cross_group_proportions(sample)
    return _balanced_share(sample, np.ones(sample.size), c_iu, c_ui)


# --------------------------------------------------------------------------
# degree-group machinery for the adjusted-degree estimator

@dataclass(frozen=True)
class DegreeGroups:
    """Contiguous-degree partition of a sample.

    ``boundaries`` holds the largest degree of every group except the last;
    group ``g`` covers degrees in ``(boundaries[g-1], boundaries[g]]``.
    ``group_index`` aligns with the sample's enrollment order.
    """

    mean_cell_size: int
    aggregation_level: int
    boundaries: tuple[int, ...]
    group_index: np.ndarray
    group_sizes: tuple[int, ...]

    @property
    def n_groups(self) -> int:
        return len(self.group_sizes)


def partition_degree_groups(sample: Sample, mean_cell_size: int = 12) -> DegreeGroups:
    """Split respondents into contiguous degree groups of near-equal size.

    The number of groups targets ``round(sqrt(n / mean_cell_size))`` rounded
    half up, at least 1.  Group edges are placed at the nearest degree-value
    boundary to each equal-count quantile (ties toward the lower boundary);
    a degree value is never split across groups, so fewer groups can come
    out when few distinct degrees exist.
    """
    if mean_cell_size < 1:
        raise ConfigError(f"mean_cell_size must be >= 1, got {mean_cell_size}")
    _require_nonempty(sample)
    n = sample.size
    level = max(1, math.floor(math.sqrt(n / mean_cell_size) + 0.5))
    distinct, counts = np.unique(sample.degree, return_counts=True)
    # Candidate edges are the cumulative counts strictly between the previous
    # edge and n; the last one equals n, so they end at index ``last - 1``.
    cumulative = np.cumsum(counts).tolist()
    last = len(cumulative) - 1
    boundaries: list[int] = []
    prev_edge = 0
    for j in range(1, level):
        target = j * n / level
        first = bisect_right(cumulative, prev_edge)
        if first >= last:
            break
        # The nearest edge is the last one below the target or the first
        # at or above it; a tie goes to the lower one.
        above = min(max(bisect_left(cumulative, target), first), last - 1)
        below = above - 1
        if above > first and not cumulative[above] - target < target - cumulative[below]:
            above = below
        boundaries.append(int(distinct[above]))
        prev_edge = cumulative[above]
    edges = np.array(boundaries, dtype=np.int64)
    group_index = np.searchsorted(edges, sample.degree, side="left")
    sizes = np.bincount(group_index, minlength=len(boundaries) + 1)
    return DegreeGroups(
        mean_cell_size=mean_cell_size,
        aggregation_level=level,
        boundaries=tuple(boundaries),
        group_index=group_index.astype(np.int64),
        group_sizes=tuple(int(s) for s in sizes),
    )


def degree_group_transition_matrix(
    sample: Sample, groups: DegreeGroups
) -> tuple[np.ndarray, bool]:
    """Row-stochastic matrix of recruitments between degree groups.

    Entry ``(g, g')`` is the share of recruitments made by members of group
    ``g`` that landed in group ``g'``.  A group that made no recruitments
    gets the marginal recruit distribution as its row; the second return
    value reports whether any row was patched that way.
    """
    recruiter, recruited = sample.recruiter_pos, sample.recruiter_pos >= 0
    if not recruited.any():
        raise EstimationError("sample contains no recruitments", code=NO_RECRUITMENT_EVENTS)
    k, group = groups.n_groups, groups.group_index
    cell = group[recruiter[recruited]] * k + group[recruited]
    counts = np.bincount(cell, minlength=k * k).reshape(k, k).astype(np.float64)
    # Tallies are whole numbers, so every sum here is exact in any order.
    row_total = counts.sum(axis=1)
    silent = row_total == 0.0
    matrix = counts / np.where(silent, 1.0, row_total)[:, None]
    matrix[silent] = counts.sum(axis=0) / counts.sum()
    return matrix, bool(silent.any())


def equilibrium_distribution(matrix: np.ndarray) -> tuple[np.ndarray, bool]:
    """Stationary distribution of a row-stochastic matrix, and whether it is unstable.

    The flag is set when the stationary distribution is not unique (a
    reducible chain: ``P^T - I`` has a second singular value under
    `_RANK_CUTOFF` of its largest) or puts all mass on one group of several;
    either way the vector is still a valid stationary point, the
    minimum-norm solution.  A 1 x 1 matrix gives ``([1.0], False)``.  This
    is the one function that reports reducibility: `h_estimate` solves for
    the vector alone.  A non-square matrix, a negative or NaN entry, or a
    row not summing to 1 is rejected.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ConfigError(f"transition matrix must be square, got shape {matrix.shape}")
    # Written so that a NaN, which fails every comparison, fails both checks.
    if not (matrix >= -1e-12).all():
        raise ConfigError("transition matrix has negative or NaN entries")
    if not np.abs(matrix.sum(axis=1) - 1.0).max() <= 1e-9:
        raise ConfigError("transition matrix rows must sum to 1")
    solution = _stationary(matrix)
    k = matrix.shape[0]
    # Sorted descending: a second near-null direction means a reducible chain.
    singular_values = np.linalg.svd(matrix.T - np.eye(k), compute_uv=False)
    null_dim = int((singular_values < _RANK_CUTOFF * max(1.0, singular_values[0])).sum())
    return solution, k > 1 and (null_dim > 1 or bool((solution >= 1.0 - 1e-9).any()))


def _stationary(matrix: np.ndarray) -> np.ndarray:
    """`equilibrium_distribution`'s vector for a square row-stochastic float matrix, unchecked.

    One least-squares solve; a 1 x 1 matrix gives exactly ``[1.0]``, its
    solution divided by itself.
    """
    k = matrix.shape[0]
    # ``P^T - I`` above a row of ones, in one buffer: the normalised
    # stationary equations.
    stacked = np.empty((k + 1, k))
    deficiency = stacked[:k]
    deficiency[...] = matrix.T
    deficiency.flat[:: k + 1] -= 1.0
    stacked[k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    solution, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    solution = np.clip(solution, 0.0, None)
    total = solution.sum()
    return np.full(k, 1.0 / k) if total == 0.0 else solution / total


def rcd_values(
    sample: Sample, groups: DegreeGroups, equilibrium: np.ndarray
) -> np.ndarray:
    """Per-respondent ratio of equilibrium to observed degree-group share."""
    if equilibrium.shape[0] != groups.n_groups:
        raise ConfigError(
            f"equilibrium has {equilibrium.shape[0]} entries for {groups.n_groups} groups"
        )
    shares = np.array(groups.group_sizes, dtype=np.float64) / sample.size
    per_group = equilibrium / shares
    return per_group[groups.group_index]


def adjusted_degree(sample: Sample, rcd: np.ndarray, infected: bool) -> float:
    """Recruitment-adjusted mean degree of one infection group.

    ``sum(RCD_i) / sum(RCD_i / degree_i)`` over the group's respondents;
    reduces to the harmonic mean degree when every RCD is 1.  Fails with
    ``zero_rcd_sum`` when the equilibrium gives the group's degree groups no
    mass, where the ratio would be 0/0.
    """
    members = np.flatnonzero(sample.infected == infected)
    _require_positive_degrees(sample, members)
    group = "infected" if infected else "uninfected"
    if members.size == 0:
        raise EstimationError(f"no {group} respondents in sample", code=EMPTY_GROUP)
    weights = np.asarray(rcd, dtype=np.float64)[members]
    total = _running_total(weights)
    if total == 0.0:
        raise EstimationError(f"RCDs of the {group} respondents sum to 0", code=ZERO_RCD_SUM)
    return total / _running_total(weights / sample.degree[members])


def h_estimate(sample: Sample, mean_cell_size: int = 12) -> float:
    """Cross-group balance estimate with recruitment-adjusted degrees.

    Identical to `sh_estimate` except that each group's mean degree is
    reweighted by the equilibrium of the recruitment chain over degree
    groups; when every RCD is 1 the two estimates coincide exactly.  Only
    the estimate is returned: whether the chain had a silent degree group
    or was reducible is for `degree_group_transition_matrix` and
    `equilibrium_distribution` to report.
    """
    c_iu, c_ui = _cross_group_proportions(sample)
    groups = partition_degree_groups(sample, mean_cell_size)
    matrix, _ = degree_group_transition_matrix(sample, groups)
    # The matrix is square and row-stochastic by construction.
    rcd = rcd_values(sample, groups, _stationary(matrix))
    return _balanced_share(sample, rcd, c_iu, c_ui)


# `estimate_all` calls h by this name, which the benchmark's tracer wraps.
_h_components = h_estimate


# --------------------------------------------------------------------------
# the full set

@dataclass(slots=True)
class EstimateSet:
    """All five estimates for one sample, with flags and failure codes.

    These eight fields are what a replication CSV row holds.  A failed
    estimator leaves its value at None and records a stable code in
    ``failures``; failures are data, not exceptions.
    """

    naive: Optional[float] = None
    vh: Optional[float] = None
    ss: Optional[float] = None
    sh: Optional[float] = None
    h: Optional[float] = None
    sh_equal_one: bool = False
    h_equal_one: bool = False
    failures: dict[str, str] = field(default_factory=dict)

    def value_of(self, estimator: str) -> Optional[float]:
        return getattr(self, estimator)


ESTIMATOR_NAMES = ("naive", "vh", "ss", "sh", "h")


def estimate_all(
    sample: Sample,
    population_size: int,
    mean_cell_size: int = 12,
    ss_options: SsOptions = SsOptions(),
) -> EstimateSet:
    """Compute every estimator, capturing failures as codes."""
    # Names are looked up at call time, so a wrapper set on the module sees each call.
    calls = {
        "naive": lambda: naive_estimate(sample),
        "vh": lambda: vh_estimate(sample),
        "ss": lambda: ss_estimate(sample, population_size, ss_options),
        "sh": lambda: sh_estimate(sample),
        "h": lambda: _h_components(sample, mean_cell_size),
    }
    result = EstimateSet()
    for name, call in calls.items():
        try:
            setattr(result, name, call())
        except EstimationError as err:
            result.failures[name] = err.code
    result.sh_equal_one = result.sh == 1.0
    result.h_equal_one = result.h == 1.0
    return result
