"""Coupon-based referral sampling over a fixed network.

Seeds enter the sample first, each respondent receives a fixed number of
coupons, and coupons are redeemed strictly in the order they were issued.
A coupon held by respondent ``i`` resolves in one pass:

1. candidates are i's neighbors never sampled and never offered a coupon;
   with no candidates the coupon expires,
2. the coupon is passed with a probability depending on i's group and degree,
   otherwise it expires,
3. one candidate is chosen with probability proportional to its recruitment
   weight (see `recruitment_weight`),
4. the candidate responds with a probability depending on its own group and
   degree; a non-responder consumes the coupon and can never be offered
   another one,
5. a responder joins the sample and receives fresh coupons.

Sampling is without replacement and halts the moment ``target_n`` respondents
are enrolled.  If the coupons run out first, a fresh seed can be drawn
from the never-offered nodes (a reseed), otherwise the sample returns short
with ``exhausted`` set.

All behavioral deviations are identity by default, giving the classical
process where every coupon is passed, recruits are chosen uniformly among
eligible neighbors, and everybody responds.

`run_rds` queues respondents, not coupons, and as they spend their coupons
in enrolment order the queue is the sample itself, walked by a cursor.  A
holder's coupons were issued together, so they come back to back, and
between two of them only the holder's own pick changes any node's state:
one inner loop filters and weighs the candidates once for all of them and
deletes each pick from both lists.  Once no candidate is left, the
remaining coupons expire without a draw.  A holder who passes with
probability 0, or whose candidates all weigh 0, would spend one pass draw
per coupon and change nothing, so its remaining coupons expire at once and
the bit generator jumps over their draws (`_Uniforms.skip`).

The loop reads Python lists built once per call (`_Tables`), and one
stream object hands out every draw of a run, seeds included (`_Uniforms`).
With unit weights it picks ``eligible[int(u * k)]``, where the cumulative
walk would stop; otherwise the walk's last running sum is the total, not
``sum()``, which compensates rounding from Python 3.12 on.  The draws
(seed, pass, pick, response, reseed) come in the order and number of a loop
calling ``rng.random()`` and `recruitment_weight` for each candidate.

A PPS seed draw (`pps_degree`, `infected_only_pps`) costs O(N + count log N):
one integer prefix sum of the degrees over all N nodes, then a search per
pick, certified against the float CDF of ``rng.choice(p=...)`` by a bound on
its rounding error; only a uniform within that margin of a step rebuilds
the float CDF (`_pps_picks`).  A uniform-k draw is one ``rng.choice`` of
bounded integers, so `_draw_seeds` first syncs the stream, a backward jump.

`run_rds` appends each enrolment to plain lists and builds the columns of
its `Sample` once, recruiter positions included; a sample built from records
or read from a file resolves those positions on first use.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections import deque
from itertools import accumulate, chain, islice
from operator import length_hint
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import ConfigError, SamplingError, as_flag, as_int, read_text
from .netgen import Network

__all__ = [
    "SeedRule",
    "BehaviorConfig",
    "SamplingConfig",
    "RespondentRecord",
    "EventCounts",
    "Sample",
    "select_seeds",
    "recruitment_weight",
    "run_rds",
    "save_sample",
    "load_sample",
]

PPS_DEGREE = "pps_degree"
UNIFORM_LOWEST_K = "uniform_lowest_k"
UNIFORM_HIGHEST_K = "uniform_highest_k"
INFECTED_ONLY_PPS = "infected_only_pps"
_SEED_VARIANTS = (PPS_DEGREE, UNIFORM_LOWEST_K, UNIFORM_HIGHEST_K, INFECTED_ONLY_PPS)
_PPS_VARIANTS = (PPS_DEGREE, INFECTED_ONLY_PPS)

# Degree ramps are flat outside the 5..10 transition band.
_RAMP_LOW_DEGREE = 5
_RAMP_HIGH_DEGREE = 10
_KERNEL_FLOOR = 0.05


@dataclass(frozen=True)
class SeedRule:
    """How seeds (and reseeds) are drawn from the eligible nodes.

    Isolates are never eligible.  Variants:

    * ``pps_degree``: without replacement, probability proportional to degree.
    * ``uniform_lowest_k``: uniform from the k eligible nodes of lowest
      degree, ties broken by node id.
    * ``uniform_highest_k``: as above but highest degree.
    * ``infected_only_pps``: proportional to degree among infected nodes.
    """

    variant: str = PPS_DEGREE
    k: Optional[int] = None

    def __post_init__(self) -> None:
        if self.variant not in _SEED_VARIANTS:
            raise ConfigError(f"unknown seed rule variant {self.variant!r}")
        if self.variant in (UNIFORM_LOWEST_K, UNIFORM_HIGHEST_K):
            if self.k is None or self.k < 1:
                raise ConfigError(f"seed rule {self.variant} requires k >= 1, got {self.k}")
        elif self.k is not None:
            raise ConfigError(f"seed rule {self.variant} takes no k, got {self.k}")

    @classmethod
    def pps_degree(cls) -> "SeedRule":
        return cls(PPS_DEGREE)

    @classmethod
    def uniform_lowest(cls, k: int) -> "SeedRule":
        return cls(UNIFORM_LOWEST_K, k)

    @classmethod
    def uniform_highest(cls, k: int) -> "SeedRule":
        return cls(UNIFORM_HIGHEST_K, k)

    @classmethod
    def infected_only_pps(cls) -> "SeedRule":
        return cls(INFECTED_ONLY_PPS)


@dataclass(frozen=True)
class BehaviorConfig:
    """Respondent behavior knobs; every default is the identity.

    Recruitment preference (weights, any nonnegative scale):

    * ``own_group_weight_*``: multiplies candidates of the recruiter's own
      infection group, keyed by the recruiter's group.
    * ``infected_candidate_weight``: multiplies every infected candidate,
      regardless of the recruiter.
    * ``similar_degree_width``: when set, multiplies by
      ``max(0.05, 1 - |d_recruiter - d_candidate| / width)``.
    * ``candidate_degree_ramp``: when set, ``(low, high)`` weight by the
      candidate's degree: low up to degree 5, high above degree 10, linear
      in between.

    Coupon use and response (probabilities in [0, 1]):

    * ``pass_prob_*``: chance a holder redeems a coupon at all, keyed by the
      holder's group, times ``pass_degree_ramp`` at the holder's degree.
    * ``response_prob_*``: chance a chosen candidate accepts, keyed by the
      candidate's group, times ``response_degree_ramp`` at the candidate's
      degree.
    """

    own_group_weight_uninfected: float = 1.0
    own_group_weight_infected: float = 1.0
    infected_candidate_weight: float = 1.0
    similar_degree_width: Optional[float] = None
    candidate_degree_ramp: Optional[tuple[float, float]] = None
    pass_prob_uninfected: float = 1.0
    pass_prob_infected: float = 1.0
    pass_degree_ramp: tuple[float, float] = (1.0, 1.0)
    response_prob_uninfected: float = 1.0
    response_prob_infected: float = 1.0
    response_degree_ramp: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        # A weight of inf or nan makes the draw's total non-finite, so no
        # candidate but the last could ever be picked.
        for name in ("own_group_weight_uninfected", "own_group_weight_infected",
                     "infected_candidate_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        # An infinite width is allowed: its kernel is exactly 1.
        if self.similar_degree_width is not None and not self.similar_degree_width > 0:
            raise ConfigError(
                f"similar_degree_width must be > 0, got {self.similar_degree_width}"
            )
        if self.candidate_degree_ramp is not None and not all(
            math.isfinite(v) and v >= 0 for v in self.candidate_degree_ramp
        ):
            raise ConfigError(
                "candidate_degree_ramp values must be finite and >= 0, "
                f"got {self.candidate_degree_ramp}"
            )
        for name in ("pass_prob_uninfected", "pass_prob_infected",
                     "response_prob_uninfected", "response_prob_infected"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        for name in ("pass_degree_ramp", "response_degree_ramp"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
                raise ConfigError(f"{name} values must be in [0, 1], got {getattr(self, name)}")


@dataclass(frozen=True)
class SamplingConfig:
    n_seeds: int = 10
    seed_rule: SeedRule = field(default_factory=SeedRule.pps_degree)
    coupons_per_respondent: int = 2
    target_n: int = 200
    behavior: BehaviorConfig = field(default_factory=BehaviorConfig)
    reseed_on_die_out: bool = True
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_seeds < 1:
            raise ConfigError(f"n_seeds must be >= 1, got {self.n_seeds}")
        if self.coupons_per_respondent < 0:
            raise ConfigError(
                f"coupons_per_respondent must be >= 0, got {self.coupons_per_respondent}"
            )
        if self.target_n < self.n_seeds:
            raise ConfigError(
                f"target_n must be >= n_seeds, got {self.target_n} < {self.n_seeds}"
            )
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class RespondentRecord:
    node_id: int
    degree: int
    infected: bool
    recruiter_id: Optional[int]  # None for seeds and reseeds
    wave: int
    reseed: bool = False


@dataclass(frozen=True)
class EventCounts:
    coupons_issued: int = 0
    coupons_used: int = 0
    coupons_expired: int = 0
    nonresponses: int = 0

    @property
    def coupons_resolved(self) -> int:
        return self.coupons_used + self.coupons_expired + self.nonresponses


# Sample columns, in `RespondentRecord` field order, and their dtypes.
_COLUMNS = {"node_id": np.int64, "degree": np.int64, "infected": bool,
            "recruiter_id": np.int64, "wave": np.int64, "reseed": bool}


class Sample:
    """Respondents in enrolment order, as numpy columns, plus the run's event tallies.

    The columns are the `RespondentRecord` fields, one entry per respondent;
    ``recruiter_id`` is -1 for seeds and reseeds.  `records` builds the rows.
    """

    def __init__(self, records: Iterable[RespondentRecord], counts: EventCounts,
                 exhausted: bool = False) -> None:
        rows = [(r.node_id, r.degree, r.infected, -1 if r.recruiter_id is None else r.recruiter_id,
                 r.wave, r.reseed) for r in records]
        self._fill(zip(*rows) if rows else [()] * len(_COLUMNS), counts, exhausted, None)

    @classmethod
    def _from_columns(cls, columns, counts: EventCounts, exhausted: bool = False,
                     recruiter_pos: Optional[np.ndarray] = None) -> "Sample":
        """A sample from its columns; ``recruiter_pos``, when given, is taken unchecked."""
        sample = cls.__new__(cls)
        sample._fill(columns, counts, exhausted, recruiter_pos)
        return sample

    def _fill(self, columns, counts, exhausted, recruiter_pos) -> None:
        for (name, dtype), column in zip(_COLUMNS.items(), columns):
            setattr(self, name, np.asarray(column, dtype=dtype))
        self.counts, self.exhausted, self._recruiter_pos = counts, exhausted, recruiter_pos

    @property
    def records(self) -> list[RespondentRecord]:
        """The respondents as `RespondentRecord` rows, built on each access."""
        columns = (getattr(self, name).tolist() for name in _COLUMNS)
        return [RespondentRecord(node, degree, infected, None if rec < 0 else rec, wave, reseed)
                for node, degree, infected, rec, wave, reseed in zip(*columns)]

    @property
    def size(self) -> int:
        return len(self.node_id)

    @property
    def n_infected(self) -> int:
        return int(np.count_nonzero(self.infected))

    @property
    def reseed_count(self) -> int:
        return int(np.count_nonzero(self.reseed))

    @property
    def recruiter_pos(self) -> np.ndarray:
        """Each respondent's recruiter as a sample position, -1 for seeds.

        A recruiter id names the last respondent with that node id, who must
        come earlier in the sample, else `ConfigError`.
        """
        if self._recruiter_pos is None:
            ids, named = self.recruiter_id, self.recruiter_id >= 0
            # A stable sort keeps equal ids in enrolment order, so the
            # rightmost match of an id is its last respondent.
            order = np.argsort(self.node_id, kind="stable")
            at = np.searchsorted(self.node_id[order], ids, side="right") - 1
            pos = order[at]
            bad = named & ((at < 0) | (self.node_id[pos] != ids) | (pos >= np.arange(self.size)))
            if bad.any():
                i = int(np.argmax(bad))
                raise ConfigError(f"respondent {self.node_id[i]} names recruiter {ids[i]} "
                                  "which does not appear earlier in the sample")
            self._recruiter_pos = np.where(named, pos, -1)
        return self._recruiter_pos


def _degree_ramp(degree: int, low: float, high: float) -> float:
    if degree <= _RAMP_LOW_DEGREE:
        return low
    if degree > _RAMP_HIGH_DEGREE:
        return high
    span = _RAMP_HIGH_DEGREE - _RAMP_LOW_DEGREE
    return low + (degree - _RAMP_LOW_DEGREE) * (high - low) / span


def _kernel(gap: int, width: float) -> float:
    return max(_KERNEL_FLOOR, 1.0 - gap / width)


def _group_factor(behavior: BehaviorConfig, r_inf: bool, c_inf: bool) -> float:
    """Own-group factor times infected-candidate factor, in that order."""
    w = 1.0
    if r_inf == c_inf:
        w *= (
            behavior.own_group_weight_infected
            if r_inf
            else behavior.own_group_weight_uninfected
        )
    if c_inf:
        w *= behavior.infected_candidate_weight
    return w


def recruitment_weight(
    net: Network, behavior: BehaviorConfig, recruiter: int, candidate: int
) -> float:
    """Relative preference of ``recruiter`` for ``candidate``.

    The product of the own-group factor (keyed by the recruiter's group),
    the infected-candidate factor, the similar-degree kernel, and the
    candidate-degree ramp, multiplied in that order; absent factors are 1.
    """
    w = _group_factor(behavior, bool(net.infected[recruiter]), bool(net.infected[candidate]))
    if behavior.similar_degree_width is not None:
        gap = abs(int(net.degrees[recruiter]) - int(net.degrees[candidate]))
        w *= _kernel(gap, behavior.similar_degree_width)
    if behavior.candidate_degree_ramp is not None:
        lo, hi = behavior.candidate_degree_ramp
        w *= _degree_ramp(int(net.degrees[candidate]), lo, hi)
    return w


def _eligible(net: Network, rule: SeedRule, allowed: np.ndarray) -> np.ndarray:
    """Bool mask of the nodes the rule may draw, restricted to ``allowed`` (bool mask)."""
    mask = allowed & (net.degrees > 0)
    if rule.variant == INFECTED_ONLY_PPS:
        mask &= net.infected
    return mask


def _seed_pool(net: Network, rule: SeedRule, allowed: np.ndarray) -> np.ndarray:
    """Node ids eligible under the rule, restricted to ``allowed`` (bool mask)."""
    ids = np.flatnonzero(_eligible(net, rule, allowed))
    if rule.variant in (UNIFORM_LOWEST_K, UNIFORM_HIGHEST_K):
        deg = net.degrees[ids]
        if rule.variant == UNIFORM_LOWEST_K:
            order = np.lexsort((ids, deg))
        else:
            order = np.lexsort((ids, -deg))
        ids = ids[order[: rule.k]]
    return ids


def _pps_index(probs: np.ndarray, u: float) -> int:
    """The index ``rng.choice(len(probs), p=probs)`` draws with uniform ``u``: same sums.

    No re-validation: weights are degrees >= 1 or 0 (ineligible or picked),
    so ``probs`` is a valid distribution by construction.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def _cdf_margin(n: int) -> float:
    """How far `_pps_index`'s float CDF over ``n`` integer weights may lie from the exact one.

    With u = 2**-53, the CDF entry ``fl(C_i / c)`` is ``W_i / S`` to within
    gamma_(2n+1) = (2n+1)u / (1 - (2n+1)u) (Higham 2002, *Accuracy and
    Stability of Numerical Algorithms*, sec. 3.1 and 4.2): one rounding per
    ``w / S``, the recursive summation error of ``cumsum`` on both ``C_i``
    and the total ``c``, and one rounding of ``C_i / c``.  The integer sums
    are exact below 2**53.  `_certified_index` rounds twice more in its own
    checks, which costs under 2u of the 7u to spare.
    """
    return (2 * n + 8) * 2.0**-53


def _certified_index(
    prefix: np.ndarray, picked: list[tuple[int, int, int]], rest: int, u: float, margin: float
) -> Optional[int]:
    """The index `_pps_index` gives for ``u``, or None when ``u`` is too close to a step.

    ``prefix`` holds the integer prefix sums of the weights before any pick,
    ``picked`` the ``(index, prefix[index - 1], weight)`` of each pick so far
    by ascending index, and ``rest`` the weight left.  With the picks zeroed
    the prefix sums are ``W'_i = prefix[i] - (weight picked at or before i)``,
    and the exact pick is the first ``i`` with ``W'_i > u * rest``.
    `_pps_index`'s float CDF lies within ``margin`` of ``W'_i / rest``, so it
    takes the same index unless ``u`` lies within ``margin`` of
    ``W'_{i-1} / rest`` or ``W'_i / rest``.
    """
    num, den = u.as_integer_ratio()
    target = num * rest // den  # floor(u * rest), exactly
    # A pick lowers the prefix sums from its index on: remove the weight of
    # each pick whose W' just before it does not yet exceed the target.
    removed = 0
    for _, before, weight in picked:
        if before - removed > target:
            break
        removed += weight
    j = int(prefix.searchsorted(target + removed, side="right"))
    low = (int(prefix[j - 1]) if j else 0) - removed
    high = int(prefix[j]) - removed
    if u - low / rest > margin and high / rest - u > margin:
        return j
    return None


def _pps_picks(weights: np.ndarray, count: int, random: Callable[[], float]) -> list[int]:
    """``count`` distinct indices drawn with probability proportional to integer ``weights``.

    Each pick takes one ``random()`` and is the index `_pps_index` gives for
    it over the weights with earlier picks zeroed: O(N) once for the prefix
    sums, then O(log N + picks so far) per pick, plus O(N) for `_pps_index`
    itself when `_certified_index` cannot decide.
    """
    prefix = weights.cumsum()
    rest = int(prefix[-1])
    margin = _cdf_margin(len(weights))
    chosen: list[int] = []
    picked: list[tuple[int, int, int]] = []
    for _ in range(count):
        u = random()
        j = _certified_index(prefix, picked, rest, u, margin)
        if j is None:
            zeroed = weights.astype(float)
            zeroed[[index for index, _, _ in picked]] = 0.0
            j = _pps_index(zeroed / zeroed.sum(), u)
        weight = int(weights[j])
        chosen.append(j)
        insort(picked, (j, int(prefix[j - 1]) if j else 0, weight))
        rest -= weight
    return chosen


def _draw_seeds(
    net: Network, rule: SeedRule, count: int, uniforms: _Uniforms, allowed: np.ndarray
) -> list[int]:
    """``count`` distinct seeds under ``rule`` among the ``allowed`` nodes (bool mask).

    A PPS pick takes one uniform from ``uniforms.next`` and costs O(log N)
    after one O(N) pass (`_pps_picks`); a uniform-k draw syncs ``uniforms``
    and makes one ``choice`` over `_seed_pool` with its generator.
    """
    pps = rule.variant in _PPS_VARIANTS
    if pps:
        weights = np.where(_eligible(net, rule, allowed), net.degrees, 0)
        found = int(np.count_nonzero(weights))
    else:
        pool = _seed_pool(net, rule, allowed)
        found = len(pool)
    if found < count:
        raise SamplingError(
            f"need {count} eligible seed nodes under rule {rule.variant}, found {found}"
        )
    if pps:
        return _pps_picks(weights, count, uniforms.next)
    uniforms.sync()  # `choice` draws bounded integers, not doubles
    picks = uniforms.rng.choice(len(pool), size=count, replace=False)
    return [int(pool[j]) for j in np.atleast_1d(picks)]


def select_seeds(
    net: Network, rule: SeedRule, count: int, rng: np.random.Generator
) -> list[int]:
    """Draw ``count`` distinct seed nodes from the whole network.

    PPS rules cost O(N + count log N) and pick as ``count`` successive
    ``rng.choice(p=...)`` calls would, each picked weight zeroed, and leave ``rng`` as they would.
    """
    if count < 1:
        raise ConfigError(f"seed count must be >= 1, got {count}")
    uniforms = _Uniforms(rng)
    seeds = _draw_seeds(net, rule, count, uniforms, np.ones(net.n_nodes, dtype=bool))
    uniforms.sync()
    return seeds


# Node states; untouched is 0 so a fresh bytearray starts all untouched.
_UNTOUCHED, _SAMPLED, _REFUSED = 0, 1, 2


class _Tables:
    """Behaviour factors of one `run_rds` call, as Python lists.

    ``pass_prob[g][d]`` and ``response_prob[g][d]`` are the group-``g``
    probability times the degree-``d`` ramp.  The recruitment weight of
    candidate ``v`` for holder ``h`` is
    ``group[infected[h]][infected[v]] * kernel[|d_h - d_v|] * ramp[v]``: the
    factors of `recruitment_weight` in its order, with an absent factor
    tabulated as 1.0, which multiplies exactly.  ``uniform`` is set when
    every weight is 1; ``ramp`` is then not built, since no weight is read.
    """

    def __init__(self, net: Network, b: BehaviorConfig) -> None:
        self.degrees: list[int] = net.degrees.tolist()
        self.infected: list[bool] = net.infected.tolist()
        degree_range = range(int(net.degrees.max(initial=0)) + 1)

        def by_group_degree(uninfected: float, infected: float, ramp) -> list[list[float]]:
            ramps = [_degree_ramp(d, *ramp) for d in degree_range]
            return [[p * r for r in ramps] for p in (uninfected, infected)]

        self.pass_prob = by_group_degree(
            b.pass_prob_uninfected, b.pass_prob_infected, b.pass_degree_ramp
        )
        self.response_prob = by_group_degree(
            b.response_prob_uninfected, b.response_prob_infected, b.response_degree_ramp
        )
        self.group = [[_group_factor(b, r, c) for c in (False, True)] for r in (False, True)]
        # No kernel is the infinitely wide one, which is exactly 1.
        width = b.similar_degree_width or math.inf
        self.kernel = [_kernel(gap, width) for gap in degree_range]
        lo, hi = b.candidate_degree_ramp or (1.0, 1.0)
        ramps = [_degree_ramp(d, lo, hi) for d in degree_range]
        self.uniform = all(
            w == 1.0 for w in (*ramps, *self.kernel, *self.group[0], *self.group[1])
        )
        self.ramp: Optional[list[float]] = (
            None if self.uniform else [ramps[d] for d in self.degrees]
        )

    def weights(self, holder: int, candidates: list[int]) -> list[float]:
        infected, degrees, kernel, ramp = self.infected, self.degrees, self.kernel, self.ramp
        gw = self.group[infected[holder]]
        dh = degrees[holder]
        return [gw[infected[v]] * kernel[abs(dh - degrees[v])] * ramp[v] for v in candidates]


class _Uniforms:
    """The values of successive ``rng.random()`` calls, drawn in blocks.

    ``rng.random(k)`` gives the doubles that k scalar calls would give, one
    bit-generator output each, so the values and their order are unchanged;
    ``next`` just costs a list step instead of a numpy call.  Before anything
    else draws from ``rng``, `sync` jumps it back over the values of the
    block not yet handed out.
    """

    _BLOCK = 128

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._current = iter(())
        self.next = chain.from_iterable(self._blocks()).__next__

    def _blocks(self):
        while True:
            self._current = iter(self.rng.random(self._BLOCK).tolist())
            yield self._current

    def _jump(self, step: int) -> None:
        # `step` outputs on, modulo PCG64's period of 2**128.  `advance` drops
        # the 32-bit half that a bounded draw such as `choice` left buffered;
        # doubles never read it, so it is put back for the next such draw.
        bg = self.rng.bit_generator
        kept = bg.state
        bg.advance(step % 2**128)
        jumped = bg.state
        jumped["has_uint32"], jumped["uinteger"] = kept["has_uint32"], kept["uinteger"]
        bg.state = jumped

    def skip(self, count: int) -> None:
        """Hand out the next ``count`` values unread, in O(1) beyond this block."""
        left = length_hint(self._current)
        deque(islice(self._current, count), maxlen=0)
        if count > left:
            self._jump(count - left)  # one double per bit-generator output

    def sync(self) -> None:
        self._jump(-length_hint(self._current))
        deque(self._current, maxlen=0)


def run_rds(net: Network, config: SamplingConfig) -> Sample:
    """Run one referral sample; deterministic given ``config.rng_seed``."""
    uniforms = _Uniforms(np.random.default_rng(config.rng_seed))
    random = uniforms.next
    tables = _Tables(net, config.behavior)
    degrees, infected = tables.degrees, tables.infected
    pass_prob, response_prob = tables.pass_prob, tables.response_prob
    uniform, weights_of = tables.uniform, tables.weights
    indptr, indices = net.indptr, net.indices
    coupons, target_n = config.coupons_per_respondent, config.target_n
    state = bytearray(net.n_nodes)
    # One entry per enrolment, recruiters by sample position.
    nodes, recruiters, waves = [], [], []
    expired = nonresp = 0

    def enroll(node: int, recruiter: int, wave: int) -> None:
        state[node] = _SAMPLED
        nodes.append(node)
        recruiters.append(recruiter)
        waves.append(wave)

    # n_seeds <= target_n (`SamplingConfig`); recruiter-less ones after them are reseeds.
    for node in _draw_seeds(net, config.seed_rule, config.n_seeds, uniforms,
                            np.ones(net.n_nodes, dtype=bool)):
        enroll(node, -1, 0)

    position = 0  # the next holder; the ones before it have spent all their coupons
    while len(nodes) < target_n:
        if position == len(nodes):
            if not config.reseed_on_die_out:
                break
            untouched = np.frombuffer(state, dtype=np.uint8) == _UNTOUCHED
            try:
                node = _draw_seeds(net, config.seed_rule, 1, uniforms, untouched)[0]
            except SamplingError:
                break
            enroll(node, -1, 0)
            continue
        holder = nodes[position]
        eligible = [
            v for v in indices[indptr[holder] : indptr[holder + 1]].tolist() if not state[v]
        ]
        weights = None if uniform else weights_of(holder, eligible)
        p_pass = pass_prob[infected[holder]][degrees[holder]]
        for left in range(coupons, 0, -1):
            if not eligible:
                expired += left
                break
            if p_pass <= 0.0:
                uniforms.skip(left)
                expired += left
                break
            if random() >= p_pass:
                expired += 1
                continue
            if uniform:
                j = int(random() * len(eligible))
            else:
                cumulative = list(accumulate(weights))
                if cumulative[-1] <= 0.0:
                    # No pick will ever shrink the list: this coupon and
                    # each one after it expire after their pass draws.
                    uniforms.skip(left - 1)
                    expired += left
                    break
                # The first running sum above the target, else the last candidate.
                j = min(bisect_right(cumulative, random() * cumulative[-1]), len(eligible) - 1)
                del weights[j]
            chosen = eligible.pop(j)
            if random() < response_prob[infected[chosen]][degrees[chosen]]:
                enroll(chosen, position, waves[position] + 1)
                if len(nodes) >= target_n:
                    break
            else:
                state[chosen] = _REFUSED
                nonresp += 1
        position += 1

    node_id = np.array(nodes, dtype=np.int64)
    recruiter_pos = np.array(recruiters, dtype=np.int64)
    seed = recruiter_pos < 0
    reseed = seed & (np.arange(len(nodes)) >= config.n_seeds)
    columns = (node_id, net.degrees[node_id], net.infected[node_id],
               np.where(seed, -1, node_id[recruiter_pos]), waves, reseed)
    # Every respondent got the same coupons, and each recruit used one.
    counts = EventCounts(len(nodes) * coupons, int(np.count_nonzero(~seed)), expired, nonresp)
    # The loop only stops short of target_n when no holder or reseed is left.
    return Sample._from_columns(columns, counts, len(nodes) < target_n, recruiter_pos)


_SAMPLE_COLUMNS = " ".join(("order", *_COLUMNS))
_SAMPLE_META = (*(f.name for f in fields(EventCounts)), "exhausted")


def save_sample(sample: Sample, path) -> None:
    """Write a sample as tabular text.

    One header line naming the columns, one row per respondent in enrollment
    order (``recruiter_id`` is -1 for seeds and reseeds), then a trailing
    comment block with the event counts and the exhaustion flag.
    """
    columns = (getattr(sample, name).astype(np.int64).tolist() for name in _COLUMNS)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_SAMPLE_COLUMNS + "\n")
        for row in zip(range(sample.size), *columns):
            fh.write("%d %d %d %d %d %d %d\n" % row)
        tallies = {**asdict(sample.counts), "exhausted": int(sample.exhausted)}
        for key in _SAMPLE_META:
            fh.write(f"# {key} {tallies[key]}\n")


def load_sample(path) -> Sample:
    """Read a sample written by `save_sample`."""
    header, *lines = read_text(path).split("\n")
    if header.strip() != _SAMPLE_COLUMNS:
        raise ConfigError(f"{path}: unexpected header {header.strip()!r}")
    records: list[RespondentRecord] = []
    meta: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) != 2:
                raise ConfigError(f"{where}: malformed comment {line!r}")
            key, token = parts
            if key not in _SAMPLE_META:
                raise ConfigError(f"{where}: unknown comment key {key!r}")
            if key in meta:
                raise ConfigError(f"{where}: repeated comment key {key!r}")
            meta[key] = as_flag(token, where) if key == "exhausted" else as_int(token, where)
            continue
        parts = line.split()
        if len(parts) != 7:
            raise ConfigError(f"{where}: expected 7 columns, got {len(parts)}")
        order, node, degree, rec, wave = (as_int(parts[i], where) for i in (0, 1, 2, 4, 5))
        if order != len(records):
            raise ConfigError(f"{where}: order column out of sequence")
        if rec < -1:
            raise ConfigError(f"{where}: recruiter_id must be -1 (none) or a node id, got {rec}")
        for column, value in (("node_id", node), ("degree", degree), ("wave", wave)):
            if value < 0:
                raise ConfigError(f"{where}: {column} must be >= 0, got {value}")
        if not all(v < 2**63 for v in (node, degree, rec, wave)):
            raise ConfigError(f"{where}: values must fit in a 64-bit signed integer")
        recruiter = None if rec < 0 else rec
        infected, reseed = as_flag(parts[3], where), as_flag(parts[6], where)
        records.append(RespondentRecord(node, degree, infected, recruiter, wave, reseed))
    exhausted = meta.pop("exhausted", False)
    return Sample(records=records, counts=EventCounts(**meta), exhausted=exhausted)
