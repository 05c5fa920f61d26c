"""Discrete-event simulation of the flow-level dynamics.

Two models are simulated exactly (no time discretization):

* the separated model, where flow counts form a Markov process whose per-class
  departure rates come from the stationary packet-level throughput at the
  current state (packet dynamics treated as infinitely fast);
* the joint model at scaling parameter N, which tracks the schedule explicitly:
  flows carry geometric packet counts with mean sigma_k * N, packets have mean
  size 1/N, and attempt rates are scaled by N, so growing N accelerates the
  packet level against the flow level at constant traffic intensity.

Both run on one event loop, ``_run``, which ``_joint_final_states``
repeats event for event on lanes of numpy arrays for the time-scale study
(see below). The class-k Poisson arrival times do not depend on the state:
each is the last one plus the next exponential over lambda_k. So
``_arrivals`` draws them ahead, a block of the class's stream at a time,
and merges the classes in time order up to the run's horizon, and the loop
races the next arrival against the model's clocks by Gillespie's direct
method (1977): the model's clocks together fire after an exponential
holding time at their total rate R, and the one that fires is clock c with
probability r_c / R. So an event draws one exponential and, if the model's
clocks win, one uniform, however many clocks the model has; an arrival
wins a tie. The loop logs each event's stretch length and its move, and
every ``FOLD`` events and at the end folds them into the exact time
integral of the flow counts (``_fold``); it also samples the state, counts
arrivals and departures and enforces the truncation guard. A model
supplies what differs:

* ``rates(x)``: the running (left-to-right) sums of the rates of its
  clocks at flow counts ``x`` in one list, kind by kind and class by class
  within a kind, so that entry c ends the interval of clock kind c // K of
  class c % K; valid until the next event. The loop only reads it, so a
  model may hand out one list again;
* ``arrive(k, t)``: flow bookkeeping for a new class-k flow at time t (the
  initial flows are added this way too, at t = 0);
* ``fire(kind, k, uniform, t)``: the event of clock ``kind`` of class k at
  time t; ``uniform`` gives the run's next uniform in [0, 1) on each call.
  Returns whether a class-k flow departed;
* ``accrue(x, dt)``: its own path integrals over a stretch of length dt, or
  None, whose call the loop then skips;
* ``schedule``: a callable giving the current schedule as a tuple of rows,
  or None if the model keeps none;
* ``finish(traj)``: the model's own fields of the finished trajectory.

``_Separated`` has one departure clock per class; ``_Joint`` has an attempt
clock and a packet clock per class and keeps the schedule. Both set
``accrue`` to None: the runners read only the flow counts. The tests plug
their own models into the same loop through the ``arrive`` and ``accrue``
hooks: ``tests/theory.py`` wraps these two to accrue busy time, served bits
and event rate-times, wraps ``_Joint`` to accrue the compensators of its
event counts from the oracle's joint generator, and runs the coupled pair,
a pathwise check of stochastic domination (Lindvall, 1992).

``timescale_convergence``'s distance is a plug-in estimate, biased upward by
about 0.1 at 200 replications; no interval until an exact error bound exists.

No event pays for work that it leaves unchanged. The loop takes an arrival
off the merged list, without a scan of the K clocks, and adds nothing per
class to the flow-count integral until a fold; the list ends at the horizon,
so a run merges no arrival that it cannot reach. It keeps a running flow
total for the guard and calls the sampler only when a sample time has passed
or the run ends. ``_Separated`` on a ``ThroughputCache`` keeps the run's
throughput key itself, updated by its ``arrive`` and ``fire`` hooks, and a
per-run table from that key to the running sums it races: an event that
leaves the key unchanged races the same sums again, and one at a key the run
has seen costs one dict lookup (see ``_Separated``). ``_Joint`` recomputes a
class's packet clock rate, which reads only its slots, when ``fire`` changes
them, and its attempt rates only when the event touched what they read: the
class's own flows or slots, a neighbour's slot on a shared channel, its
access point's downlink slots or, under the shared queue, that access
point's flow counts (see ``_Joint``). A joint run builds its network's joint
tables and runs ``simulate_joint``'s checks in ``_joint_tables``. The
time-scale study needs only the final flow counts of its runs, and makes no
``simulate_joint`` call: ``_joint_final_states`` advances every (N,
replication) run of the study together, one event per live lane and step, so
a run's fixed cost (streams, config, model, trajectory) is paid once per
study and the joint tables once per N. A step updates every live lane
through masks, whether it takes an arrival or a clock, so its numpy calls do
not depend on how many lanes do which. A replication's streams, whose values
do not depend on N, are made once and read by its lane at every N: its
arrivals are its pairs of ``_arrivals`` up to the horizon, held as arrays,
and its holding and uniform streams are drawn ahead into blocks that its
lanes share. ``simulate_joint`` stays for sampled trajectories and is the
lanes' reference in the tests.

Randomness comes from counter-based Philox streams derived from the master
seed, K + 2 per run (the lanes of one replication share them): one arrival
stream per class, the ``"holding"`` stream of the model's holding times
and the ``"uniform"`` stream. Identical configs give bit-identical
trajectories, replications are independent, and
comparisons across policies share arrival randomness (common random
numbers). Every stream is drawn in blocks of ``BLOCK`` values, which gives
the same values in the same order as one draw at a time. The arrival and
holding streams give only standard exponentials: an arrival stream one per
arrival of its class and none where lambda_k <= 0, the holding stream one
per event while R > 0. The uniform stream gives, per model
event, first the clock pick, then ``fire``'s own draws in order: the joint
model's attempt draws the channel (only with two or more channels), and its
packet completion the slot (only where two or more are active), then
whether the flow ends; the coupled pair of the tests draws its coupling
uniform. Rates and path integrals are Python floats, float64 arrays in the
lanes, and the order of each floating-point operation is part of the
trajectory: a packet clock runs at (y_k * N) * phi_k, not
y_k * (N * phi_k), and R is the last entry of the running (left-to-right)
sum that the pick bisects, so a pick always lands on a clock of positive
rate.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .equilibrium import PolicyEvaluator, check_policy, check_standard_attempt_rates
from .schedule import state_flows
from .topology import CsmaParams, NetworkSpec, TrafficSpec

# retired kinds leave their ids unused, so a surviving kind keeps its streams
_STREAM_KINDS = {
    "arrival": 0,
    "bootstrap": 6,
    "holding": 7,
    "uniform": 8,
}


class _PhiloxKey(ISeedSequence):
    """The Philox key words of one stream's ``SeedSequence``.

    ``Philox(seed_seq)`` reads its key as ``seed_seq.generate_state(2,
    np.uint64)`` and nothing else, so a seed sequence that hands out those
    two stored words gives the same generator. ``Philox(key=...)`` would
    too, but it first draws OS entropy for a seed sequence it then drops.
    """

    __slots__ = ("words",)

    def __init__(self, entropy: tuple[int, ...]):
        self.words = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
        self.words.flags.writeable = False

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def stream(seed: int, kind: str, klass: int = 0, replication: int = 0) -> np.random.Generator:
    """Counter-based generator for one (kind, class, replication) stream."""
    entropy = (seed % 2**64, _STREAM_KINDS[kind], klass, replication)
    return np.random.Generator(np.random.Philox(_PhiloxKey(entropy)))


BLOCK = 64


def block_draws(sample: Callable[[int], np.ndarray]) -> Callable[[], float]:
    """A no-argument callable giving the values of ``sample``, a generator
    method such as ``rng.random``, one at a time as Python floats. It takes
    them ``BLOCK`` at a time, which gives the same values as one call each
    but advances the generator ahead of the values handed out, so nothing
    else may draw from it."""
    def blocks():
        while True:
            yield from sample(BLOCK).tolist()

    return blocks().__next__


@dataclass(frozen=True)
class SimConfig:
    """Run configuration shared by the simulators.

    ``scaling_n`` only affects the joint model. ``max_total_flows`` is the
    truncation guard: crossing it aborts the run, which is recorded on the
    trajectory rather than raised, since an abort is itself evidence about
    stability.
    """

    policy: str
    horizon: float
    seed: int
    initial_state: tuple[int, ...]
    scaling_n: int = 1
    sample_times: tuple[float, ...] = ()
    max_total_flows: int = 100_000
    replication: int = 0

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if self.scaling_n < 1:
            raise ValueError(f"scaling_n must be at least 1, got {self.scaling_n}")
        times = self.sample_times
        if any(t < 0 or t > self.horizon for t in times):
            raise ValueError("sample_times must lie within [0, horizon]")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample_times must be strictly increasing")
        total = sum(state_flows(self.initial_state))
        if total > self.max_total_flows:
            raise ValueError(f"initial_state holds {total} flows, "
                             f"above max_total_flows = {self.max_total_flows}")


@dataclass
class TrajectorySample:
    time: float
    state: tuple[int, ...]
    schedule: Optional[tuple[tuple[int, ...], ...]]   # the joint model's, as rows


@dataclass
class Trajectory:
    """Sampled path, event counts and exact flow-count integrals of one
    simulation run; ``event_counts_by_kind`` is set by the joint model."""

    samples: list[TrajectorySample]
    arrivals: tuple[int, ...]
    departures: tuple[int, ...]
    aborted: bool
    final_time: float
    final_state: tuple[int, ...]
    time_integral_flows: tuple[float, ...]
    abort_time: Optional[float] = None
    event_counts_by_kind: Optional[dict[str, tuple[int, ...]]] = None


def left_sum(values) -> float:
    """The sum of ``values`` added one at a time, left to right, from 0.0.

    Python's ``sum`` does this for floats up to 3.11 but compensates the
    rounding since 3.12, and ``np.sum`` adds 8 or more terms pairwise; the
    sums that feed recorded results use this instead, so their bits do not
    depend on the interpreter.
    """
    return functools.reduce(operator.add, values, 0.0)


def uniform_sample_times(horizon: float, count: int) -> tuple[float, ...]:
    return tuple(float(v) for v in np.linspace(0.0, horizon, count + 1)[1:])


_CACHE_SIZE = 100_000


def _bounded_insert(table: dict, key, value):
    """Store ``value`` under ``key`` and return it; past ``_CACHE_SIZE``
    entries the oldest one goes (dicts keep insertion order)."""
    table[key] = value
    if len(table) > _CACHE_SIZE:
        del table[next(iter(table))]
    return value


class ThroughputCache:
    """Bounded cache of stationary throughput vectors, keyed on the
    evaluator's ``throughput_key``, which it exposes as ``key``.

    States with equal keys have bit-identical throughputs (see
    ``mccsma.equilibrium``), so one entry serves all of them: on the bow-tie
    under ``standard_infra`` every access point holds one downlink class, and
    its count matters only as min(x_k, J). A miss calls
    ``evaluator.throughput`` on the state itself. The vectors handed out are
    read-only, since one of them may serve thousands of states; copy one
    before changing it. A separated run keys its own table of departure
    rates on ``key``, whose layout it reads off ``evaluator``, and calls the
    cache only on a table miss; both drop their oldest entry when full
    (``_bounded_insert``).
    """

    def __init__(self, evaluator: PolicyEvaluator):
        self.evaluator = evaluator
        self.key = evaluator.throughput_key
        self._cache: dict[tuple, np.ndarray] = {}

    def __call__(self, x: tuple[int, ...]) -> np.ndarray:
        key = self.key(x)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        value = self.evaluator.throughput(x)
        value.flags.writeable = False
        return _bounded_insert(self._cache, key, value)


ThroughputFn = Callable[[tuple[int, ...]], np.ndarray]


class _Sampler:
    """Emits right-continuous state samples at the configured times."""

    def __init__(self, sample_times: Sequence[float]):
        self.times = [*sample_times, math.inf]     # the sentinel ends every scan
        self.idx = 0
        self.next = self.times[0]                  # the next time to sample
        self.out: list[TrajectorySample] = []

    def emit(self, t_next: float, state, schedule_fn=None) -> None:
        """Sample ``state`` at every remaining time before ``t_next``; the
        schedule, if any, comes from one call of ``schedule_fn``."""
        schedule = None
        while self.next < t_next:
            if schedule_fn is not None:
                schedule = schedule_fn()
                schedule_fn = None
            self.out.append(TrajectorySample(self.next, tuple(int(v) for v in state),
                                             schedule))
            self.idx += 1
            self.next = self.times[self.idx]


def _arrivals(seed: int, replication: int, lam: Sequence[float],
              horizon: float = math.inf) -> Iterator[tuple[float, int]]:
    """The flow arrivals of one run before ``horizon`` as (time, class)
    pairs in time order, simultaneous ones by class, then (inf, -1).

    Class k's arrival times are partial sums of E / lam_k, E its arrival
    stream's standard exponentials: each time is the last one plus the next
    E / lam_k, as a clock redrawn when it fires would give. A class with
    lam_k <= 0 never arrives and draws nothing. The times are drawn
    ``BLOCK`` at a time, summed by ``np.add.accumulate``, which adds left to
    right, and merged in rounds. Every class's undrawn times lie at or after
    its last drawn one, so a round hands out, sorted as (time, class) pairs,
    every drawn pair up to the bound: the least last drawn time, at the
    lowest class that holds it. That class then draws its next block, and
    only it, so a class draws at most its arrivals / ``BLOCK`` + 2 blocks in
    a run. Once the bound reaches ``horizon``, the last round hands out
    only the drawn pairs before ``horizon``, and no class draws again: a
    horizon inside the first block costs one block per arriving class. A
    run ends at its first event at or past ``horizon``, and that event is
    the same whether an arrival at or past ``horizon`` or the (inf, -1) in
    its place races the clocks. Plain lists keep the merge off numpy's sort
    and search code.
    """
    K = len(lam)
    draws = [stream(seed, "arrival", k, replication).standard_exponential for k in range(K)]
    last = [0.0 if r > 0 else math.inf for r in lam]
    drawn: list[list[float]] = [[] for _ in range(K)]    # drawn, not yet handed out

    def draw(k: int) -> None:
        step = draws[k](BLOCK) / lam[k]
        step[0] += last[k]
        drawn[k] = np.add.accumulate(step).tolist()
        last[k] = drawn[k][-1]

    for k in range(K):
        if lam[k] > 0:
            draw(k)
    while True:
        bound = min(last)
        b = last.index(bound)
        final = bound >= horizon         # no class draws again
        if final:
            cut = [bisect.bisect_left(d, horizon) for d in drawn]
        else:
            cut = [(bisect.bisect_right if k <= b else bisect.bisect_left)(d, bound)
                   for k, d in enumerate(drawn)]
        pairs = [(t, k) for k, (d, c) in enumerate(zip(drawn, cut)) for t in d[:c]]
        pairs.sort()
        yield from pairs
        if final:
            yield math.inf, -1           # never taken: no run reaches time inf
            return
        for d, c in zip(drawn, cut):
            del d[:c]
        draw(b)


# events whose flow-count integral is folded in at once
FOLD = 1024


def _fold(integral: np.ndarray, x0: Sequence[int], steps: list[float],
          moves: list[int]) -> np.ndarray:
    """The flow-count integral after the stretches ``steps`` from the K
    flow counts ``x0``, where stretch e ends with the move ``moves[e]``: k
    for a class-k arrival, K + k for a class-k departure, 2 K for neither.
    Stretch e's counts are x0 plus the moves before it, exact in float64;
    the integral adds each count times its stretch's length, left to right
    from ``integral``, as ``a + n * dt`` does stretch by stretch."""
    n, K = len(steps), len(x0)
    delta = np.concatenate((np.eye(K), -np.eye(K), np.zeros((1, K))))
    terms = np.empty((n + 1, K))
    terms[0] = integral
    terms[1] = x0
    terms[2:] = delta[moves[:n - 1]]
    counts = terms[1:]
    np.add.accumulate(counts, axis=0, out=counts)
    counts *= np.array(steps)[:, None]
    return np.add.accumulate(terms, axis=0, out=terms)[-1]


def _run(model, traffic: TrafficSpec, cfg: SimConfig) -> Trajectory:
    """The event loop shared by every model (see the module docstring).

    Each event is the next (time, class) pair of ``_arrivals`` unless the
    model's clocks fire first. It logs its stretch length and its move, and
    every ``FOLD`` events, and at the end, ``_fold`` adds the logged
    stretches to the flow-count integral, so the log never holds more than
    ``FOLD`` events. A model's own ``accrue`` is still called stretch by
    stretch."""
    K = model.num_classes
    x = list(state_flows(cfg.initial_state))
    if len(x) != K:
        raise ValueError(f"initial_state has {len(x)} entries, expected {K}")
    for k in range(K):                  # the initial flows enter as arrivals
        for _ in range(x[k]):
            model.arrive(k, 0.0)

    seed, rep = cfg.seed, cfg.replication
    take_arrival = _arrivals(seed, rep, [float(v) for v in traffic.arrival_rate],
                            cfg.horizon).__next__
    holding = block_draws(stream(seed, "holding", 0, rep).standard_exponential)
    uniform = block_draws(stream(seed, "uniform", 0, rep).random)
    t_arrival, i = take_arrival()
    arrivals = [0] * K
    departures = [0] * K
    integral = np.zeros(K)
    x0 = list(x)                        # the flow counts when the log starts
    steps: list[float] = []
    moves: list[int] = []
    unmoved = 2 * K
    flows = sum(x)                      # the running flow total, for the guard
    sampler = _Sampler(cfg.sample_times)
    accrue = model.accrue
    t = 0.0
    abort_time: Optional[float] = None

    while True:
        acc = model.rates(x)
        total = acc[-1]
        t_clock = t + holding() / total if total > 0 else math.inf
        t_next = t_clock if t_clock < t_arrival else t_arrival
        done = t_next >= cfg.horizon
        if done:
            t_next = cfg.horizon
        until = math.inf if done else t_next
        if sampler.next < until:
            sampler.emit(until, x, model.schedule)
        dt = t_next - t
        steps.append(dt)
        if accrue is not None:
            accrue(x, dt)
        t = t_next
        if done:
            break

        if t_arrival <= t_clock:
            x[i] += 1
            arrivals[i] += 1
            moves.append(i)
            model.arrive(i, t)
            t_arrival, i = take_arrival()
            flows += 1
            if flows > cfg.max_total_flows:
                abort_time = t
                sampler.emit(math.inf, x, model.schedule)
                break
        else:
            # u * total < total = acc[-1], so the pick passes every clock
            # of rate zero, whose running sum equals the previous one
            kind, k = divmod(bisect.bisect_right(acc, uniform() * total), K)
            if model.fire(kind, k, uniform, t):
                x[k] -= 1
                departures[k] += 1
                flows -= 1
                moves.append(K + k)
            else:
                moves.append(unmoved)
        if len(steps) == FOLD:
            integral = _fold(integral, x0, steps, moves)
            x0 = list(x)
            steps.clear()
            moves.clear()

    traj = Trajectory(
        samples=sampler.out,
        arrivals=tuple(arrivals),
        departures=tuple(departures),
        aborted=abort_time is not None,
        final_time=t,
        final_state=tuple(x),
        time_integral_flows=tuple(_fold(integral, x0, steps, moves).tolist()),
        abort_time=abort_time,
    )
    model.finish(traj)
    return traj


class _Separated:
    """Separated model: class-k flows depart at rate throughput_k(x) / sigma_k.

    A departure leaves one flow fewer, and the departure rates read only the
    flow counts. On a ``ThroughputCache`` it keeps a table from the cache's
    ``key`` to the running sums of those rates, computed on a miss as
    without it. Equal keys give equal sums: the key holds each x_k or its
    cap min(x_k, J) with J >= 1, so x_k > 0 exactly when the key's entry k
    is. The table belongs to the run, whose sigma it holds, and is bounded
    like the cache; under adhoc and flow_aware the key is the state itself.

    It also keeps the run's flow counts and the key's first K entries,
    updated by ``arrive`` and ``fire``. An event that leaves the key as it
    was, at a capped class outside every share group whose count stays at
    or above J, leaves the running sums raced last in place, and the next
    ``rates`` hands them out again. Any other event makes ``rates`` look up
    the table on the kept entries, or, where the key holds shares, on
    ``key`` of the loop's state. So a model that overrides ``arrive`` or
    ``fire`` chains to it, or it races stale sums. A bare throughput
    function is called on every event: keyed on the state, a table would
    not pay (5 runs of 1,000 s at load 0.65 on the bow-tie visit about
    25,000 states in 31,000 events)."""

    schedule = None
    accrue = None

    def __init__(self, spec: NetworkSpec, throughput_fn: ThroughputFn, traffic: TrafficSpec):
        K = self.num_classes = spec.num_classes
        self.throughput_fn = throughput_fn
        self.sigma = [float(v) for v in traffic.mean_flow_size]
        self.key = None
        self.table: dict[tuple, list[float]] = {}
        # from which count on each class's key entry stays put: J for a
        # capped class outside every share group, never for the others
        self.steady = [math.inf] * K
        self.shares = False
        if isinstance(throughput_fn, ThroughputCache):
            evaluator = throughput_fn.evaluator
            self.key = throughput_fn.key
            self.shares = bool(evaluator.shared)
            for k in set(evaluator.capped) - set(evaluator.shared):
                self.steady[k] = spec.num_channels
        self.counts = [0] * K
        self.kx = [0] * K        # the key's first K entries, where it holds no shares
        self.acc: Optional[list[float]] = None     # the sums raced last; None if stale

    def rates(self, x: list[int]) -> list[float]:
        acc = self.acc
        if acc is not None:
            return acc
        if self.key is None:
            return self._running_sums(x)
        key = self.key(tuple(x)) if self.shares else tuple(self.kx)
        acc = self.table.get(key)
        if acc is None:
            acc = _bounded_insert(self.table, key, self._running_sums(x))
        self.acc = acc
        return acc

    def _running_sums(self, x: list[int]) -> list[float]:
        phi = self.throughput_fn(tuple(x)).tolist()
        return list(itertools.accumulate(
            [p / s if n > 0 else 0.0 for p, s, n in zip(phi, self.sigma, x)]))

    def arrive(self, k: int, t: float) -> None:
        n = self.counts[k] = self.counts[k] + 1
        if n <= self.steady[k]:
            self.kx[k] = n
            self.acc = None

    def fire(self, kind: int, k: int, uniform: Callable[[], float], t: float) -> bool:
        n = self.counts[k] = self.counts[k] - 1
        if n < self.steady[k]:
            self.kx[k] = n
            self.acc = None
        return True

    def finish(self, traj: Trajectory) -> None:
        pass


def simulate_separated(spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                       cfg: SimConfig,
                       throughput_fn: Optional[ThroughputFn] = None) -> Trajectory:
    """Simulate the separated flow-level Markov process.

    Transitions are class-k arrivals at the Poisson rates and class-k
    departures at rate throughput_k(x) / mean_flow_size_k; the throughput
    comes from the policy's packet-level equilibrium (memoized per
    throughput key) unless ``throughput_fn`` overrides it, e.g. with a
    dominating service profile for coupling arguments.
    """
    policy = check_policy(spec, cfg.policy)
    if throughput_fn is None:
        throughput_fn = ThroughputCache(PolicyEvaluator(spec, params, policy))
    return _run(_Separated(spec, throughput_fn, traffic), traffic, cfg)


def _joint_tables(spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                  policy: str, N: int) -> tuple:
    """``simulate_joint``'s checks, then the tables that ``_Joint`` reads and
    never changes, in the order of its attributes."""
    policy = check_policy(spec, policy)
    if policy == "standard_infra":
        check_standard_attempt_rates(spec, params)
    sigma = np.asarray(traffic.mean_flow_size, dtype=float)
    if np.any(sigma * N < 1.0):
        raise ValueError("mean packet count sigma_k * N must be at least one")
    K, J = spec.num_classes, spec.num_channels
    nu = tuple(params.nu.tolist())
    downlink_ap = tuple(spec.downlink_ap(k) for k in range(K))
    shared_queue = tuple(policy == "standard_infra" and i is not None for i in downlink_ap)
    ap_downlink = [tuple(ap.downlink) for ap in spec.access_points]
    eligible = tuple(tuple(k in g.eligible for g in spec.channel_graphs) for k in range(K))
    neighbors = tuple(tuple(frozenset(g.neighbors(k)) for k in range(K))
                      for g in spec.channel_graphs)
    # the downlink classes of class k's access point, if k is one of them
    ap_peers = [frozenset() if i is None else frozenset(ap_downlink[i]) for i in downlink_ap]
    return (
        tuple(params.phi.tolist()), nu, tuple(map(tuple, params.beta.tolist())),
        tuple(1.0 / (float(s) * N) for s in traffic.mean_flow_size),
        # a class's attempt total, added left to right. With one channel the
        # total is the one rate, which is never -0.0, so 0.0 + r == r.
        operator.itemgetter(0) if J == 1 else left_sum,
        downlink_ap, shared_queue,
        # N nu_k, and the classes that share its access point's attempt rate
        # with class k: none where k is alone there, whose share is then
        # x_k / x_k = 1.0 exactly
        tuple(N * v for v in nu),
        tuple(ap_downlink[i] if q and len(ap_downlink[i]) > 1 else ()
              for i, q in zip(downlink_ap, shared_queue)),
        eligible, neighbors,
        tuple(frozenset({k}) | ap_peers[k] if shared_queue[k] else frozenset({k})
              for k in range(K)),
        tuple(tuple(frozenset({k}) | neighbors[j][k] | ap_peers[k] if eligible[k][j]
                    else None for j in range(J)) for k in range(K)),
    )


class _Joint:
    """Joint model: per class an attempt clock over its feasible idle slots
    and a packet clock over its active slots; keeps the schedule feasible
    incrementally.

    ``rates`` recomputes the attempt rates only of the classes in
    ``stale``, which ``arrive`` and ``fire`` fill with the classes whose
    attempt rates read what they changed. Class k's attempt rate reads its
    own flow count and slots, the slots of its neighbours on each channel,
    whether its access point has a downlink slot and, under the shared
    queue, the flow counts of that access point's downlink classes. So a
    class-k arrival marks k and, under the shared queue, its access point's
    downlink classes (``flow_readers``), and a slot that class k takes or
    frees on channel j marks k, its neighbours on j and its access point's
    downlink classes (``slot_readers``); a departure frees a slot in the
    same event. A class's packet clock rate reads only its active-slot count
    y_k and is recomputed by ``_slots_changed``, which ``fire`` calls
    whenever y_k changes. Flows are not told apart: a packet completion ends
    some flow of its class with probability 1 / (sigma_k N).

    What the run reads and never changes, the tables above, the rates and
    the flow-end probabilities, comes from ``_joint_tables``, which also
    runs ``simulate_joint``'s checks; the lanes of ``_joint_final_states``
    read the same tables, built once per N.
    """

    accrue = None

    def __init__(self, spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                 policy: str, cfg: SimConfig):
        self.num_classes = K = spec.num_classes
        self.num_channels = J = spec.num_channels
        self.N = cfg.scaling_n
        (self.phi, self.nu, self.beta, self.flow_end_prob, self.total,
         self.downlink_ap, self.shared_queue, self.queue_rate, self.share_peers,
         self.eligible, self.neighbors, self.flow_readers, self.slot_readers,
         ) = _joint_tables(spec, params, traffic, policy, self.N)
        self.stale = set(range(K))
        self.y = [[0] * J for _ in range(K)]
        self.y_class = [0] * K
        self.channel_active: list[set[int]] = [set() for _ in range(J)]
        self.ap_active = [0] * len(spec.access_points)
        self.attempt: list[Optional[list[float]]] = [None] * K
        self.attempt_total = [0.0] * K
        self.attempt_counts = [0] * K
        self.packet_counts = [0] * K
        self.packet_total = [0.0] * K     # packet clock rates, (y_k N) phi_k

    def _slots_changed(self, k: int) -> None:
        """Recompute class k's packet clock rate from its active-slot count."""
        self.packet_total[k] = self.y_class[k] * self.N * self.phi[k]

    def _attempt_rates(self, x: list[int], k: int) -> Optional[list[float]]:
        """Per-channel rate of activating one more class-k link; None when
        no slot is feasible."""
        i = self.downlink_ap[k]
        if (i is not None and self.ap_active[i] >= 1) or self.y_class[k] >= x[k]:
            return None
        y_k, active = self.y[k], self.channel_active
        feas = [ok and not y_k[j] and self.neighbors[j][k].isdisjoint(active[j])
                for j, ok in enumerate(self.eligible[k])]
        if not any(feas):
            return None
        if self.shared_queue[k]:
            base = self.queue_rate[k]
            peers = self.share_peers[k]
            if peers:
                base = base * (x[k] / sum(x[m] for m in peers))
        else:
            base = self.N * (x[k] - self.y_class[k]) * self.nu[k]
        return [base * b if f else 0.0 for f, b in zip(feas, self.beta[k])]

    def rates(self, x: list[int]) -> list[float]:
        for k in self.stale:
            r = self.attempt[k] = self._attempt_rates(x, k)
            self.attempt_total[k] = 0.0 if r is None else self.total(r)
        self.stale.clear()
        return list(itertools.accumulate(self.attempt_total + self.packet_total))

    def arrive(self, k: int, t: float) -> None:
        self.stale |= self.flow_readers[k]

    def fire(self, kind: int, k: int, uniform: Callable[[], float], t: float) -> bool:
        i = self.downlink_ap[k]
        J = self.num_channels
        if kind == 0:                       # successful channel access
            if J == 1:
                j = 0
            else:
                # the pick scales by the running sum it bisects, so it
                # never passes it onto a trailing channel of rate zero
                acc = list(itertools.accumulate(self.attempt[k]))
                j = bisect.bisect_right(acc, uniform() * acc[-1])
            self.stale |= self.slot_readers[k][j]
            self.y[k][j] = 1
            self.y_class[k] += 1
            self._slots_changed(k)
            self.channel_active[j].add(k)
            if i is not None:
                self.ap_active[i] += 1
            self.attempt_counts[k] += 1
            return False
        # packet completion, which ends its flow with probability 1 / (sigma_k N);
        # a single active slot is taken without a draw
        y_k = self.y[k]
        if self.y_class[k] == 1:
            j = y_k.index(1)
        else:
            js = [j for j in range(J) if y_k[j]]
            j = js[int(uniform() * len(js))]
        ends_flow = uniform() < self.flow_end_prob[k]
        self.stale |= self.slot_readers[k][j]
        y_k[j] = 0
        self.y_class[k] -= 1
        self._slots_changed(k)
        self.channel_active[j].discard(k)
        if i is not None:
            self.ap_active[i] -= 1
        self.packet_counts[k] += 1
        return ends_flow

    def schedule(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(row) for row in self.y)

    def finish(self, traj: Trajectory) -> None:
        traj.event_counts_by_kind = {
            "arrival": traj.arrivals,
            "attempt": tuple(self.attempt_counts),
            "packet": tuple(self.packet_counts),
            "flow_completion": traj.departures,
        }


def simulate_joint(spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                   cfg: SimConfig) -> Trajectory:
    """Simulate the joint (flow counts, schedule) process at scaling N.

    Event types and rates, with N = ``cfg.scaling_n``:

    * class-k flow arrival: rate lambda_k;
    * activation of slot (k, j): N times the policy's attempt rate, provided
      the slot is feasible (otherwise the probe senses a busy channel and
      nothing happens);
    * packet completion without flow completion: N * phi_k * (1 - 1/(sigma_k N))
      per active slot, releasing the slot;
    * packet completion ending the flow: phi_k / sigma_k per active slot,
      releasing the slot and removing the flow.

    The schedule starts empty and always stays feasible for the current flow
    vector because a departing flow frees its slot in the same transition.
    """
    return _run(_Joint(spec, params, traffic, cfg.policy, cfg), traffic, cfg)


class _LaneDraws:
    """The values of one stream per row, drawn ahead for lanes that read
    them with ``take``, each lane at its own position. A row's values are
    drawn ``BLOCK`` at a time into a pool of blocks that every row shares,
    so that a row holds only what its lanes reach; ``table[row, b]`` is the
    pool block of the row's b-th block. A stream's values do not depend on
    how its draws are split into calls."""

    def __init__(self, samplers: list[Callable[[int], np.ndarray]]):
        self.samplers = samplers
        self.pool = np.empty((len(samplers), BLOCK))
        self.used = 0
        self.table = np.zeros((len(samplers), 1), dtype=np.int64)
        self.blocks = np.zeros(len(samplers), dtype=np.int64)

    def take(self, rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
        block, offset = np.divmod(pos, BLOCK)
        return self.pool[self.table[rows, block], offset]

    def reserve(self, rows: np.ndarray, pos: np.ndarray, per_step: int) -> int:
        """Draw so that every lane has ``per_step`` values or more ahead of
        ``pos``, and return the number of steps that its reads of
        ``per_step`` values each may take before the next call. A lane
        never reads past its reserve, so one more block fills a row."""
        short = pos + per_step > self.blocks[rows] * BLOCK
        if short.any():
            for row in np.unique(rows[short]).tolist():
                b = int(self.blocks[row])
                if b == self.table.shape[1]:
                    self.table = np.concatenate((self.table, np.zeros_like(self.table)), axis=1)
                if self.used == len(self.pool):
                    self.pool = np.concatenate((self.pool, np.empty_like(self.pool)))
                self.pool[self.used] = self.samplers[row](BLOCK)
                self.table[row, b] = self.used
                self.used += 1
                self.blocks[row] = b + 1
        return int((self.blocks[rows] * BLOCK - pos).min()) // per_step


def _joint_final_states(spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                        base: SimConfig, n_values: Sequence[int],
                        replications: int) -> list[list[tuple[int, ...]]]:
    """The final flow counts of ``simulate_joint(spec, params, traffic,
    replace(base, scaling_n=N, replication=r))`` for each N of ``n_values``
    (outer list) and each replication r below ``replications`` (inner list),
    bit for bit.

    Every run is a lane, a column of numpy arrays, and each step advances
    every live lane by one event of ``_run`` and ``_Joint``, repeating
    their floating-point operations in their order. Counts are held as
    floats, which are exact for integers below 2**53, so products such as
    (N (x_k - y_k)) nu_k round as the model's ints times floats do. A lane
    leaves when it reaches the horizon or crosses ``max_total_flows``. The
    lanes of one replication read one set of K + 2 streams, each at its own
    position, since a stream's values do not depend on N: a replication's
    arrivals are its pairs of ``_arrivals`` before the horizon, then (inf,
    -1), made once and held as a time array and a class array, into which
    each of its lanes keeps one index. Attempt rates are recomputed for
    every class at every step: they read only the lane's state. A step
    updates every live lane through masks, arrivals and clocks alike: the
    class that arrives or fires, the clock that fires and the channel that
    a slot is taken or freed on are one-hot rows, and a lane that does not
    take an event of a kind has no row set for it. The checks of
    ``SimConfig`` and ``simulate_joint`` run first; a base config with
    ``sample_times`` is rejected, since no lane samples.
    """
    if base.sample_times:
        raise ValueError("the lanes keep final states only; sample_times must be empty")
    K, J = spec.num_classes, spec.num_channels
    x0 = state_flows(base.initial_state)
    tables = []
    for n in n_values:
        replace(base, scaling_n=n)              # SimConfig's checks of N
        tables.append(_joint_tables(spec, params, traffic, base.policy, n))
        if len(x0) != K:
            raise ValueError(f"initial_state has {len(x0)} entries, expected {K}")
    if not tables or replications < 1:
        return [[] for _ in n_values]
    (phi, nu, beta, _, _, downlink_ap, shared_queue, _, share_peers, eligible,
     neighbors, _, _) = tables[0]
    # per N: the flow-end probabilities 1 / (sigma_k N) and the rates N nu_k
    flow_end_n = np.array([tb[3] for tb in tables]).T
    queue_rate_n = np.array([tb[7] for tb in tables]).T
    # the tables as columns, to broadcast over the lanes
    phi, nu = np.array(phi)[:, None], np.array(nu)[:, None]
    beta = np.array(beta).T[:, :, None]
    shared = np.array(shared_queue)[:, None]
    # keeps_off[j K + k, i K + m]: class m's slot on channel i keeps class k
    # off channel j: its own or a neighbour's slot on j, or any slot of a
    # downlink class of its access point, if k is one
    keeps_off = np.array([[
        (i == j and (m == k or m in neighbors[j][k]))
        or (downlink_ap[k] is not None and downlink_ap[m] == downlink_ap[k])
        for i in range(J) for m in range(K)] for j in range(J) for k in range(K)], dtype=float)
    ineligible = np.array([[not eligible[k][j]] for j in range(J) for k in range(K)],
                          dtype=float)
    # peers[k, m]: x_m counts in class k's share of its access point's rate;
    # a class alone there counts itself only, whose share is x_k / x_k = 1.0
    peers = np.array([[m in share_peers[k] or m == k for m in range(K)]
                      for k in range(K)], dtype=float)
    lam = [float(v) for v in traffic.arrival_rate]
    R, seed, horizon, limit = replications, base.seed, base.horizon, base.max_total_flows
    pair_type = np.dtype([("time", float), ("klass", np.min_scalar_type(-K))])
    by_rep = [np.fromiter(_arrivals(seed, r, lam, horizon), pair_type) for r in range(R)]
    first = np.cumsum([0] + [a.size for a in by_rep[:-1]])    # r's first arrival
    arrivals = np.concatenate(by_rep)
    # contiguous copies, which every step gathers from faster than from fields
    arrival_time, arrival_class = arrivals["time"].copy(), arrivals["klass"].copy()
    holding = _LaneDraws([stream(seed, "holding", 0, r).standard_exponential
                          for r in range(R)])
    uniform = _LaneDraws([stream(seed, "uniform", 0, r).random for r in range(R)])

    # Lane i * R + r runs replication r at n_values[i]. Its state is a
    # column of two arrays, so that finished lanes leave in two takes:
    # floats t, N, x (K rows), y (J K rows, channel by channel), queue
    # rates and flow-end probabilities (K rows each), and ints lane,
    # replication, its positions in the holding and uniform streams and
    # the index of its next arrival.
    L = len(tables) * R
    lane = np.arange(L)
    rep = lane % R
    floats = np.concatenate((
        np.zeros((1, L)), np.repeat(np.array(n_values, dtype=float), R)[None],
        np.repeat(np.array(x0, dtype=float)[:, None], L, axis=1), np.zeros((J * K, L)),
        np.repeat(queue_rate_n, R, axis=1), np.repeat(flow_end_n, R, axis=1)))
    ints = np.stack((lane, rep, np.zeros_like(lane), np.zeros_like(lane), first[rep]))
    finals = np.empty((K, L))
    acc = np.empty((2 * K, L))
    # one-hot rows: a lane's class k, channel j or clock c is the row equal
    # to it; clock c is of kind c // K (0 an access, 1 a packet) and class c % K
    classes, channels, clocks = (np.arange(n)[:, None] for n in (K, J, 2 * K))
    ahead = np.arange(3)[:, None]
    any_shared = bool(shared.any())
    # the steps that each stream's last reserve covers: a step reads at
    # most one holding time and three uniforms per lane
    holding_steps = uniform_steps = 0

    def unpack():
        slots = floats[2 + K:2 + K + J * K]
        return (floats[0], floats[1], floats[2:2 + K], slots, slots.reshape(J, K, -1),
                *floats[2 + K + J * K:].reshape(2, K, -1), *ints)

    (t, N, x, slots, y, queue_rate, flow_end,
     lane, rep, pos_holding, pos_uniform, pair_index) = unpack()
    while t.size:
        if not holding_steps:
            holding_steps = holding.reserve(rep, pos_holding, 1)
        if not uniform_steps:
            uniform_steps = uniform.reserve(rep, pos_uniform, 3)
        holding_steps -= 1
        uniform_steps -= 1

        y_class = y[0] if J == 1 else y.sum(axis=0)
        free = ((keeps_off @ slots + ineligible) == 0).reshape(J, K, -1)
        ready = y_class < x
        rate = (N * (x - y_class)) * nu
        if any_shared:
            rate = np.where(shared, queue_rate * (x / np.maximum(peers @ x, 1.0)), rate)
        attempt = np.where(free & ready, rate * beta, 0.0)
        # the running sums of the clock rates, added left to right
        run = acc[:, :t.size]
        run[:K] = attempt[0]
        for j in range(1, J):
            run[:K] += attempt[j]
        np.multiply(y_class * N, phi, out=run[K:])
        total = np.add.accumulate(run, axis=0, out=run)[-1]

        clock = total > 0
        wait = np.divide(holding.take(rep, pos_holding), total,
                         out=np.full(t.size, math.inf), where=clock)
        pos_holding += clock
        t_clock = t + wait
        t_arrival = arrival_time[pair_index]
        arrives = t_arrival <= t_clock
        np.minimum(t_arrival, t_clock, out=t)       # the arrival wins a tie
        live = t < horizon
        arrive = arrives & live
        fire = live & ~arrives

        x += (arrival_class[pair_index] == classes) & arrive
        pair_index += arrive

        # the next three uniforms, of which a clock's event reads one to
        # three: the pick, then, past one channel, the access's channel or
        # the drawn slot of a class holding two or more, then whether a
        # packet ends its flow
        u = uniform.take(rep, pos_uniform + ahead)
        pick = (run <= u[0] * total).sum(axis=0)
        fired = (pick == clocks) & fire
        access, packet = fired[:K], fired[K:]
        pos_uniform += fire * (1 + (pick >= K))
        on = off = True
        flow_end_u = u[1]
        if J > 1:
            # the fired class's rates and slots by channel: sums of one term
            chan = np.cumsum(np.where(access, attempt, 0.0).sum(axis=1), axis=0)
            on = (chan <= u[1] * chan[-1]).sum(axis=0) == channels
            held = np.where(packet, y, 0.0).sum(axis=1)
            y_k = held.sum(axis=0)
            multi = y_k > 1                         # the slot is drawn, else taken
            nth = np.where(multi, (u[1] * y_k).astype(np.int64), 0)
            off = (np.cumsum(held, axis=0) > nth).argmax(axis=0) == channels
            on, off = on[:, None], off[:, None]
            flow_end_u = np.where(multi, u[2], u[1])
            pos_uniform += access.any(axis=0) | multi
        y += on & access
        y -= off & packet
        x -= (flow_end_u < flow_end) & packet

        done = ~live | (x.sum(axis=0) > limit)
        if done.any():
            finals[:, lane[done]] = x[:, done]
            keep = ~done
            floats, ints = floats.compress(keep, axis=1), ints.compress(keep, axis=1)
            (t, N, x, slots, y, queue_rate, flow_end,
             lane, rep, pos_holding, pos_uniform, pair_index) = unpack()

    out = [tuple(int(v) for v in col) for col in finals.T.tolist()]
    return [out[i * R:(i + 1) * R] for i in range(len(tables))]


@dataclass
class DistanceRow:
    scaling_n: int
    distance: float


def _tv_from_counts(counts: dict[tuple[int, ...], int], total: int,
                    index: dict[tuple[int, ...], int], reference: np.ndarray,
                    outside_ref: float) -> float:
    """Total-variation distance between empirical counts and a reference
    distribution over the states of ``index`` (state -> position in
    ``reference``), with every state outside lumped into one atom of mass
    ``outside_ref``. Sums run left to right: the visited states' terms in
    key order, then the unvisited states' reference mass in reference order.
    """
    q = reference.tolist()
    inside = {index[s]: c for s, c in counts.items() if s in index}
    outside = sum(c for s, c in counts.items() if s not in index)
    return 0.5 * (left_sum(abs(c / total - q[i]) for i, c in inside.items())
                  + left_sum(p for i, p in enumerate(q) if i not in inside)
                  + abs(outside / total - outside_ref))


def timescale_convergence(spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                          *, n_values: Sequence[int], t_probe: float,
                          replications: int, seed: int, policy: str,
                          initial_state: Sequence[int]) -> list[DistanceRow]:
    """Total-variation distance between the joint model's flow counts at
    ``t_probe`` and the separated model's exact transient distribution, one
    row per value of ``n_values``.

    The separated distribution is computed by uniformization on a truncated
    box (no simulation noise on the reference side), from the sparse (CSR)
    flow-level generator of :mod:`mccsma.oracles`; the joint side is
    estimated from the final flow counts of ``replications`` independent
    runs per scaling value, which ``_joint_final_states`` runs together, bit
    for bit as ``simulate_joint`` would. Replication r reads the same K + 2
    streams at every N, and the study draws no other stream. The distance is measured over the
    box, with all outside states lumped together. It is a plug-in estimate,
    biased upward: on ap-line3 at 200 replications, by about 0.1 against
    exact distances of 0.013 at N = 1 down to 0.0007 at N = 64. No interval
    is reported until an exact joint side gives an error bound: a percentile
    bootstrap of a distance near 0 excludes its own estimate (Andrews, 2000).

    The box reaches, beyond the initial state, the 1 - 1e-12 Poisson
    quantile of each class's arrivals by ``t_probe``. A box of more than
    ``mccsma.oracles.MAX_ORACLE_STATES`` states raises ``OracleSpaceError``
    before the generator is built. Raises ``ValueError`` naming the input
    when ``t_probe`` is not finite and nonnegative, ``replications`` is
    below 1, an ``n_values`` entry is below 1 or ``initial_state`` does not
    hold K nonnegative integral counts.
    """
    from .oracles import flow_level_generator, poisson_quantile, transient_distribution

    if not (math.isfinite(t_probe) and t_probe >= 0):
        raise ValueError(f"t_probe must be finite and nonnegative, got {t_probe}")
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    if any(n < 1 for n in n_values):
        raise ValueError(f"n_values entries must be at least 1, got {list(n_values)}")
    policy = check_policy(spec, policy)
    K = spec.num_classes
    x0 = state_flows(initial_state)
    if len(x0) != K:
        raise ValueError(f"initial_state must hold {K} nonnegative flow counts, got {x0}")
    if t_probe == 0.0:
        # both models sit at the common initial condition
        return [DistanceRow(int(n), 0.0) for n in n_values]
    window = tuple(
        x0[k] + poisson_quantile(1 - 1e-12, traffic.arrival_rate[k] * t_probe) + 2
        if traffic.arrival_rate[k] > 0 else x0[k]
        for k in range(K)
    )
    states, q = flow_level_generator(spec, params, traffic, policy, window)
    index = {s: i for i, s in enumerate(states)}
    p0 = np.zeros(len(states))
    p0[index[x0]] = 1.0
    p_ref = transient_distribution(q, p0, t_probe)
    outside_ref = max(0.0, 1.0 - float(p_ref.sum()))

    base = SimConfig(policy=policy, horizon=t_probe, seed=seed, initial_state=x0)
    finals = _joint_final_states(spec, params, traffic, base,
                                 [int(n) for n in n_values], replications)
    rows: list[DistanceRow] = []
    for n_val, ends in zip(n_values, finals):
        counts: dict[tuple[int, ...], int] = {}
        for state in ends:
            counts[state] = counts.get(state, 0) + 1
        rows.append(DistanceRow(int(n_val), _tv_from_counts(
            counts, replications, index, p_ref, outside_ref)))
    return rows
