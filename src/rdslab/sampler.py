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
deletes each pick from both lists.  A coupon takes one pass draw while its
holder has candidates, and a coupon whose candidates all weigh 0 expires
after that draw; once no candidate is left, the remaining coupons expire
without a draw.

The loop reads the CSR arrays through memoryviews, which index to Python
ints without copying.  It looks each behaviour factor up by node type, the
node's infection group and the rank of its degree among the T degrees
present: a pass or response probability is one read per node, and a
candidate's weight one read from a (2T) x (2T) table of pair weights, built
only when some weight is not 1 and never larger than about 16 entries per
edge (`_Tables`).  One stream hands out every draw of a run, seeds included
(`_uniforms`).
With unit weights it picks ``eligible[int(u * k)]``, where the cumulative
walk would stop; otherwise the walk's last running sum is the total, not
``sum()``, which compensates rounding from Python 3.12 on.  The draws
(seed, pass, pick, response, reseed) come in the order and number of a loop
calling ``rng.random()`` and `recruitment_weight` for each candidate.

`_draw_seeds` decides every seed and reseed, one double per pick.  A PPS
draw (`pps_degree`, `infected_only_pps`) makes one integer prefix sum of
the degrees over all N nodes, then per pick an exact binary search and a
subtraction from the sums after the pick: O(N * count) numpy work.  A
uniform-k draw sorts the eligible nodes by degree and shuffles the first k
in part, a Fisher-Yates step per pick.

`run_rds` appends each enrolment to plain lists and builds the columns of
its `Sample` once, recruiter positions included; a sample built from records
or read from a file resolves those positions on first use.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, chain
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import ConfigError, SamplingError, as_flag, as_int, read_text
from .netgen import MAX_NODES, Network

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

    Each weight must be finite and >= 0, and their products must neither
    round to 0 nor overflow: a config whose positive factors can multiply to
    0, or whose largest weight times `MAX_NODES` overflows, is rejected
    (`_check_weight_products`).

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
        self._check_weight_products()
        for name in ("pass_prob_uninfected", "pass_prob_infected",
                     "response_prob_uninfected", "response_prob_infected"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        for name in ("pass_degree_ramp", "response_degree_ramp"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
                raise ConfigError(f"{name} values must be in [0, 1], got {getattr(self, name)}")

    def _check_weight_products(self) -> None:
        """Reject weights whose products round to 0 or whose running sums overflow.

        A candidate's weight multiplies, in `recruitment_weight`'s order, the
        group factor of a (holder group, candidate group) pair, a kernel
        between `_kernel` at the widest gap and 1, and a ramp value.  Rounding
        is monotone, so the extremes bound every product: of positive factors
        the least must not round to 0, which no pick could reach, and the
        largest times `MAX_NODES`, a bound on a holder's running sum, must be
        finite.  A ramp with a positive end is positive between its ends,
        where its interpolation must not round to 0 either.
        """
        lo, hi = self.candidate_degree_ramp or (1.0, 1.0)
        ramp = [_degree_ramp(d, lo, hi) for d in range(_RAMP_LOW_DEGREE, _RAMP_HIGH_DEGREE + 2)]
        if max(lo, hi) > 0 and min(ramp[1:-2]) <= 0:
            raise ConfigError(f"candidate_degree_ramp {self.candidate_degree_ramp} rounds to 0 "
                              "between its ends")
        ramp = [r for r in ramp if r > 0]
        if not ramp:  # every weight is 0
            return
        kernel = _kernel(MAX_NODES, self.similar_degree_width or math.inf)
        own = {False: "own_group_weight_uninfected", True: "own_group_weight_infected"}
        for r_inf in (False, True):
            for c_inf in (False, True):
                names = [own[r_inf]] * (r_inf == c_inf) + ["infected_candidate_weight"] * c_inf
                if any(getattr(self, name) == 0 for name in names):
                    continue
                group = _group_factor(self, r_inf, c_inf)
                least, largest = group * kernel * min(ramp), group * max(ramp)
                if not least > 0:
                    problem = f"can multiply to {least}"
                elif not math.isfinite(largest * MAX_NODES):
                    problem = f"can multiply to {largest}, which times MAX_NODES overflows"
                else:
                    continue
                names += ["similar_degree_width"] * (kernel != 1.0) + [
                    "candidate_degree_ramp"] * (self.candidate_degree_ramp is not None)
                raise ConfigError(f"recruitment weight factors {', '.join(names)} {problem}")


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


def _draw_seeds(
    net: Network, rule: SeedRule, count: int, random: Callable[[], float], allowed: np.ndarray
) -> list[int]:
    """``count`` distinct seeds under ``rule`` among the ``allowed`` nodes (bool mask).

    Isolates are never eligible, nor under ``infected_only_pps`` are
    uninfected nodes.  Every pick takes one ``u = random()``.

    A PPS pick is the exact integer inverse CDF of the degrees left: the
    first index whose prefix sum exceeds ``floor(u * rest)``, ``rest`` their
    total.  The sums are built once, and each pick takes its degree off the
    sums after it, so they stay those of the degrees left.

    A uniform-k draw is a partial Fisher-Yates shuffle of the k eligible
    nodes of lowest (or highest) degree, ties broken by id: pick ``i`` swaps
    in the one ``int(u * left)`` places further on, where ``left = found - i``
    and ``int(u * left) < left`` for every ``u < 1``.
    """
    pps = rule.variant in _PPS_VARIANTS
    if rule.variant == INFECTED_ONLY_PPS:
        allowed = allowed & net.infected
    if pps:
        weights = net.degrees * allowed  # an isolate weighs 0
        found = int(np.count_nonzero(weights))
    else:
        pool = np.flatnonzero(allowed & (net.degrees > 0))
        degrees = net.degrees[pool]
        order = np.lexsort((pool, degrees if rule.variant == UNIFORM_LOWEST_K else -degrees))
        pool = pool[order[: rule.k]].tolist()
        found = len(pool)
    if found < count:
        raise SamplingError(
            f"need {count} eligible seed nodes under rule {rule.variant}, found {found}"
        )
    if not pps:
        for i in range(count):
            j = i + int(random() * (found - i))
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:count]
    prefix = weights.cumsum()
    chosen = []
    for _ in range(count):
        num, den = random().as_integer_ratio()
        target = num * int(prefix[-1]) // den  # floor(u * rest), exactly
        j = int(prefix.searchsorted(target, side="right"))
        chosen.append(j)
        prefix[j:] -= weights[j]
    return chosen


def select_seeds(
    net: Network, rule: SeedRule, count: int, rng: np.random.Generator
) -> list[int]:
    """Draw ``count`` distinct seed nodes from the whole network.

    Each pick takes one ``rng.random()``, so ``rng`` ends where ``count``
    scalar calls would leave it.  PPS rules cost one O(N) prefix sum, then
    a binary search and an O(N) suffix subtraction per pick (`_draw_seeds`).
    """
    if count < 1:
        raise ConfigError(f"seed count must be >= 1, got {count}")
    return _draw_seeds(net, rule, count, rng.random, np.ones(net.n_nodes, dtype=bool))


# Node states; untouched is 0 so a fresh bytearray starts all untouched.
_UNTOUCHED, _SAMPLED, _REFUSED = 0, 1, 2


class _Tables:
    """Behaviour factors of one `run_rds` call, looked up by node type.

    A node's type is its infection group and the rank of its degree among
    the T distinct degrees of the network: ``code[v]`` is
    ``infected[v] * T + rank(degree[v])``.  ``pass_prob[t]`` and
    ``response_prob[t]`` are type ``t``'s group probability times its degree
    ramp.  ``weight`` is None when every recruitment weight is 1; otherwise
    ``weight[code[h]][code[v]]`` is the weight of candidate ``v`` for holder
    ``h``, the factors of `recruitment_weight` multiplied in its order
    (group, kernel, ramp) with an absent factor tabulated as 1.0, which
    multiplies exactly.  Distinct degrees sum to at most 2E, so T(T - 1)/2
    <= 2E and the (2T) x (2T) table holds at most about 16E entries: 16 for
    a star of any size, where a table over every degree up to the largest
    would grow with the square of the hub's degree.
    """

    def __init__(self, net: Network, b: BehaviorConfig) -> None:
        present = np.bincount(net.degrees) > 0
        values = np.flatnonzero(present)
        t = len(values)
        code = (np.cumsum(present) - 1)[net.degrees] + t * net.infected
        degrees = values.tolist()

        def by_type(uninfected: float, infected: float, ramp) -> list[float]:
            ramps = [_degree_ramp(d, *ramp) for d in degrees]
            return [p * r for p in (uninfected, infected) for r in ramps]

        self.pass_prob = by_type(b.pass_prob_uninfected, b.pass_prob_infected, b.pass_degree_ramp)
        self.response_prob = by_type(
            b.response_prob_uninfected, b.response_prob_infected, b.response_degree_ramp
        )
        group = [[_group_factor(b, r, c) for c in (False, True)] for r in (False, True)]
        # No kernel is the infinitely wide one, which is exactly 1.
        width = b.similar_degree_width or math.inf
        lo, hi = b.candidate_degree_ramp or (1.0, 1.0)
        ramp = [_degree_ramp(d, lo, hi) for d in degrees]
        # The kernel never rises with the gap, so it is 1 at every gap
        # present if it is 1 at the widest.
        widest = degrees[-1] - degrees[0] if degrees else 0
        self.weight: Optional[list[list[float]]] = None
        if any(w != 1.0 for w in (*group[0], *group[1], *ramp, _kernel(widest, width))):
            kernel = np.maximum(_KERNEL_FLOOR, 1.0 - np.abs(values[:, None] - values) / width)
            table = np.array(group)[:, None, :, None] * kernel[:, None, :] * np.array(ramp)
            self.weight = table.reshape(2 * t, 2 * t).tolist()
        # Weighing reads one code per candidate, and a list indexes faster
        # than a memoryview; without weights only holders and picks are read,
        # too few to repay the list's O(N) build.
        self.code = code.tolist() if self.weight is not None else memoryview(code)


# Doubles `_uniforms` draws per numpy call.
_BLOCK = 128


def _uniforms(rng: np.random.Generator) -> Callable[[], float]:
    """A function returning the value of the next ``rng.random()`` call, drawn in blocks.

    ``rng.random(k)`` gives the doubles that k scalar calls would give, so
    the values and their order are unchanged; a call just costs a list step
    instead of a numpy call.  Nothing else reads ``rng``.
    """
    return chain.from_iterable(iter(lambda: rng.random(_BLOCK).tolist(), None)).__next__


def run_rds(net: Network, config: SamplingConfig) -> Sample:
    """Run one referral sample; deterministic given ``config.rng_seed``."""
    random = _uniforms(np.random.default_rng(config.rng_seed))
    tables = _Tables(net, config.behavior)
    code, weight = tables.code, tables.weight
    pass_prob, response_prob = tables.pass_prob, tables.response_prob
    indptr, indices = memoryview(net.indptr), memoryview(net.indices)
    coupons, target_n = config.coupons_per_respondent, config.target_n
    state = bytearray(net.n_nodes)
    # One entry per enrolment, recruiters by sample position.
    nodes, recruiters, waves = [], [], []
    expired = nonresp = 0

    def enroll(node: int) -> None:
        state[node] = _SAMPLED
        nodes.append(node)
        recruiters.append(-1)
        waves.append(0)

    # n_seeds <= target_n (`SamplingConfig`); recruiter-less ones after them are reseeds.
    for node in _draw_seeds(net, config.seed_rule, config.n_seeds, random,
                            np.ones(net.n_nodes, dtype=bool)):
        enroll(node)

    position = 0  # the next holder; the ones before it have spent all their coupons
    while len(nodes) < target_n:
        if position == len(nodes):
            if not config.reseed_on_die_out:
                break
            untouched = np.frombuffer(state, dtype=np.uint8) == _UNTOUCHED
            try:
                node = _draw_seeds(net, config.seed_rule, 1, random, untouched)[0]
            except SamplingError:
                break
            enroll(node)
            continue
        holder = nodes[position]
        eligible = [v for v in indices[indptr[holder] : indptr[holder + 1]] if not state[v]]
        if weight is not None:
            row = weight[code[holder]]
            weights = [row[code[v]] for v in eligible]
        p_pass = pass_prob[code[holder]]
        wave = waves[position] + 1
        for left in range(coupons, 0, -1):
            if not eligible:
                expired += left
                break
            if random() >= p_pass:
                expired += 1
                continue
            if weight is None:
                j = int(random() * len(eligible))
            else:
                cumulative = list(accumulate(weights))
                if cumulative[-1] <= 0.0:  # nobody can be picked
                    expired += 1
                    continue
                # The first running sum above the target, else the last candidate.
                j = bisect_right(cumulative, random() * cumulative[-1], 0, len(cumulative) - 1)
                del weights[j]
            chosen = eligible.pop(j)
            if random() < response_prob[code[chosen]]:
                state[chosen] = _SAMPLED
                nodes.append(chosen)
                recruiters.append(position)
                waves.append(wave)
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
    """Read a sample written by `save_sample`.

    A row names its recruiter or is a seed; only a seed may be a reseed.
    """
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
        if reseed and recruiter is not None:
            raise ConfigError(f"{where}: reseed must be 0 on a row with recruiter_id {rec}")
        records.append(RespondentRecord(node, degree, infected, recruiter, wave, reseed))
    exhausted = meta.pop("exhausted", False)
    return Sample(records=records, counts=EventCounts(**meta), exhausted=exhausted)
