"""Discrete-event simulation of the flow-level dynamics.

Two models are simulated exactly (no time discretization):

* the separated model, where flow counts form a Markov process whose per-class
  departure rates come from the stationary packet-level throughput at the
  current state (packet dynamics treated as infinitely fast), and
* the joint model at scaling parameter N, which tracks the schedule explicitly:
  flows carry geometric packet counts with mean sigma_k * N, packets have mean
  size 1/N, and attempt rates are scaled by N, so growing N accelerates the
  packet level against the flow level at constant traffic intensity.

Randomness comes from counter-based Philox streams, one per (event kind,
class, replication), all derived from the master seed. Identical configs give
bit-identical trajectories, replications are independent, and comparisons
across policies share arrival randomness (common random numbers).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .equilibrium import PolicyEvaluator, check_policy
from .schedule import Schedule
from .topology import CsmaParams, NetworkSpec, TrafficSpec

_STREAM_KINDS = {
    "arrival": 0,
    "service": 1,
    "attempt": 2,
    "packet": 3,
    "flowpick": 4,
    "coupling": 5,
    "bootstrap": 6,
}


def stream(seed: int, kind: str, klass: int = 0, replication: int = 0) -> np.random.Generator:
    """Counter-based generator for one (kind, class, replication) stream."""
    entropy = [seed % 2**64, _STREAM_KINDS[kind], klass, replication]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class SimConfig:
    """Run configuration shared by both simulators.

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
    track_flows: bool = False

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.scaling_n < 1:
            raise ValueError(f"scaling_n must be at least 1, got {self.scaling_n}")
        times = self.sample_times
        if any(t < 0 or t > self.horizon for t in times):
            raise ValueError("sample_times must lie within [0, horizon]")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample_times must be strictly increasing")


@dataclass
class TrajectorySample:
    time: float
    state: tuple[int, ...]
    schedule: Optional[Schedule]


@dataclass
class Trajectory:
    """Sampled path plus exact path integrals of one simulation run."""

    samples: list[TrajectorySample]
    arrivals: tuple[int, ...]
    departures: tuple[int, ...]
    aborted: bool
    final_time: float
    final_state: tuple[int, ...]
    time_integral_flows: tuple[float, ...]
    busy_time: tuple[float, ...]
    served_bits: tuple[float, ...]
    abort_time: Optional[float] = None
    final_schedule: Optional[Schedule] = None
    completed_flow_sizes: Optional[tuple[tuple[float, ...], ...]] = None
    residual_flow_bits: Optional[tuple[float, ...]] = None
    rate_time: Optional[dict[str, tuple[float, ...]]] = None
    event_counts_by_kind: Optional[dict[str, tuple[int, ...]]] = None

    @property
    def mean_flows(self) -> np.ndarray:
        """Time-average flow counts over the realized horizon."""
        return np.asarray(self.time_integral_flows) / self.final_time


def uniform_sample_times(horizon: float, count: int) -> tuple[float, ...]:
    return tuple(float(v) for v in np.linspace(0.0, horizon, count + 1)[1:])


class ThroughputCache:
    """Bounded LRU cache of per-state stationary throughput vectors."""

    def __init__(self, evaluator: PolicyEvaluator, maxsize: int = 100_000):
        self._evaluator = evaluator
        self._maxsize = maxsize
        self._cache: OrderedDict[tuple[int, ...], np.ndarray] = OrderedDict()

    def __call__(self, x: tuple[int, ...]) -> np.ndarray:
        hit = self._cache.get(x)
        if hit is not None:
            self._cache.move_to_end(x)
            return hit
        value = self._evaluator.throughput(x)
        self._cache[x] = value
        if len(self._cache) > self._maxsize:
            self._cache.popitem(last=False)
        return value


ThroughputFn = Callable[[tuple[int, ...]], np.ndarray]


def default_throughput_fn(spec: NetworkSpec, params: CsmaParams,
                          cfg: SimConfig) -> ThroughputFn:
    return ThroughputCache(PolicyEvaluator(spec, params, cfg.policy))


class _Sampler:
    """Emits right-continuous state samples at the configured times."""

    def __init__(self, sample_times: Sequence[float]):
        self.times = list(sample_times)
        self.idx = 0
        self.out: list[TrajectorySample] = []

    def emit_until(self, t_next: float, state, schedule=None, schedule_fn=None) -> None:
        while self.idx < len(self.times) and self.times[self.idx] < t_next:
            if schedule_fn is not None:
                schedule = schedule_fn()
                schedule_fn = None
            self.out.append(TrajectorySample(self.times[self.idx],
                                             tuple(int(v) for v in state), schedule))
            self.idx += 1

    def emit_rest(self, state, schedule=None) -> None:
        while self.idx < len(self.times):
            self.out.append(TrajectorySample(self.times[self.idx],
                                             tuple(int(v) for v in state), schedule))
            self.idx += 1


def simulate_separated(spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                       cfg: SimConfig,
                       throughput_fn: Optional[ThroughputFn] = None) -> Trajectory:
    """Simulate the separated flow-level Markov process.

    Transitions are class-k arrivals at the Poisson rates and class-k
    departures at rate throughput_k(x) / mean_flow_size_k; the throughput
    comes from the policy's packet-level equilibrium (memoized per state)
    unless ``throughput_fn`` overrides it, e.g. with a dominating service
    profile for coupling arguments.

    With ``track_flows`` the run also materializes per-flow service: each
    class shares its throughput equally among its flows and a departure
    removes a uniformly chosen flow, recording its accumulated bits as the
    completed flow size.
    """
    policy = check_policy(spec, cfg.policy)
    K = spec.num_classes
    if len(cfg.initial_state) != K:
        raise ValueError(f"initial_state has {len(cfg.initial_state)} entries, expected {K}")
    if throughput_fn is None:
        throughput_fn = default_throughput_fn(spec, params, replace(cfg, policy=policy))

    lam = np.asarray(traffic.arrival_rate, dtype=float)
    sigma = np.asarray(traffic.mean_flow_size, dtype=float)
    arr_rngs = [stream(cfg.seed, "arrival", k, cfg.replication) for k in range(K)]
    svc_rngs = [stream(cfg.seed, "service", k, cfg.replication) for k in range(K)]
    pick_rng = stream(cfg.seed, "flowpick", 0, cfg.replication)

    x = np.array(cfg.initial_state, dtype=np.int64)
    t = 0.0
    next_arrival = np.array([
        arr_rngs[k].standard_exponential() / lam[k] if lam[k] > 0 else np.inf
        for k in range(K)
    ])
    arrivals = np.zeros(K, dtype=np.int64)
    departures = np.zeros(K, dtype=np.int64)
    integral = np.zeros(K)
    busy = np.zeros(K)
    served = np.zeros(K)
    sampler = _Sampler(cfg.sample_times)
    aborted = False
    abort_time: Optional[float] = None

    flows: list[list[float]] = [[0.0] * int(x[k]) for k in range(K)] if cfg.track_flows else []
    completed: list[list[float]] = [[] for _ in range(K)] if cfg.track_flows else []

    def accrue(phi_x: np.ndarray, dt: float) -> None:
        nonlocal integral, busy, served
        integral += x * dt
        busy += (x > 0) * dt
        served += phi_x * dt
        if cfg.track_flows:
            for k in range(K):
                if x[k] > 0 and phi_x[k] > 0:
                    share = phi_x[k] * dt / x[k]
                    flows[k] = [b + share for b in flows[k]]

    while True:
        phi_x = throughput_fn(tuple(int(v) for v in x))
        dep_rate = np.where(x > 0, phi_x / sigma, 0.0)
        next_departure = np.array([
            t + svc_rngs[k].standard_exponential() / dep_rate[k] if dep_rate[k] > 0 else np.inf
            for k in range(K)
        ])
        times = np.concatenate([next_arrival, next_departure])
        evt = int(np.argmin(times))
        t_next = float(times[evt])

        if t_next >= cfg.horizon:
            sampler.emit_until(cfg.horizon, x)
            sampler.emit_rest(x)
            accrue(phi_x, cfg.horizon - t)
            t = cfg.horizon
            break

        sampler.emit_until(t_next, x)
        accrue(phi_x, t_next - t)
        t = t_next
        if evt < K:
            k = evt
            x[k] += 1
            arrivals[k] += 1
            next_arrival[k] = t + arr_rngs[k].standard_exponential() / lam[k]
            if cfg.track_flows:
                flows[k].append(0.0)
            if int(x.sum()) > cfg.max_total_flows:
                aborted = True
                abort_time = t
                sampler.emit_rest(x)
                break
        else:
            k = evt - K
            x[k] -= 1
            departures[k] += 1
            if cfg.track_flows:
                idx = int(pick_rng.integers(len(flows[k])))
                completed[k].append(flows[k].pop(idx))

    return Trajectory(
        samples=sampler.out,
        arrivals=tuple(int(v) for v in arrivals),
        departures=tuple(int(v) for v in departures),
        aborted=aborted,
        final_time=t,
        final_state=tuple(int(v) for v in x),
        time_integral_flows=tuple(float(v) for v in integral),
        busy_time=tuple(float(v) for v in busy),
        served_bits=tuple(float(v) for v in served),
        abort_time=abort_time,
        completed_flow_sizes=(tuple(tuple(c) for c in completed) if cfg.track_flows else None),
        residual_flow_bits=(tuple(float(sum(f)) for f in flows) if cfg.track_flows else None),
    )


class _JointState:
    """Mutable joint state with incremental feasibility bookkeeping."""

    def __init__(self, spec: NetworkSpec, x0: Sequence[int],
                 y0: Optional[Schedule] = None):
        self.spec = spec
        K, J = spec.num_classes, spec.num_channels
        self.x = np.array(x0, dtype=np.int64)
        self.y = np.zeros((K, J), dtype=np.int64)
        self.y_class = np.zeros(K, dtype=np.int64)
        self.channel_active: list[set[int]] = [set() for _ in range(J)]
        self.ap_active = np.zeros(len(spec.access_points), dtype=np.int64)
        self.downlink_ap = [spec.downlink_ap(k) for k in range(K)]
        self.eligible = np.array([[k in g.eligible for g in spec.channel_graphs]
                                  for k in range(K)])
        self.neighbors = [
            {k: g.neighbors(k) for k in g.eligible} for g in spec.channel_graphs
        ]
        if y0 is not None:
            for k, j in y0.slots:
                if not self.can_add(k)[j]:
                    raise ValueError(f"initial schedule slot ({k},{j}) infeasible")
                self.add(k, j)

    def can_add(self, k: int) -> np.ndarray:
        """Per-channel feasibility of activating one more class-k link."""
        J = self.spec.num_channels
        ok = np.zeros(J, dtype=bool)
        i = self.downlink_ap[k]
        if i is not None and self.ap_active[i] >= 1:
            return ok
        if self.y_class[k] >= self.x[k]:
            return ok
        for j in range(J):
            if not self.eligible[k, j] or self.y[k, j]:
                continue
            if self.neighbors[j].get(k, set()) & self.channel_active[j]:
                continue
            ok[j] = True
        return ok

    def add(self, k: int, j: int) -> None:
        self.y[k, j] = 1
        self.y_class[k] += 1
        self.channel_active[j].add(k)
        i = self.downlink_ap[k]
        if i is not None:
            self.ap_active[i] += 1

    def remove(self, k: int, j: int) -> None:
        self.y[k, j] = 0
        self.y_class[k] -= 1
        self.channel_active[j].discard(k)
        i = self.downlink_ap[k]
        if i is not None:
            self.ap_active[i] -= 1

    def schedule(self) -> Schedule:
        return Schedule(tuple(tuple(int(v) for v in row) for row in self.y))


def simulate_joint(spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                   cfg: SimConfig, initial_schedule: Optional[Schedule] = None
                   ) -> Trajectory:
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

    The schedule always stays feasible for the current flow vector because a
    departing flow frees its slot in the same transition.
    """
    policy = check_policy(spec, cfg.policy)
    if policy == "standard_infra":
        from .equilibrium import check_standard_attempt_rates
        check_standard_attempt_rates(spec, params)
    K, J = spec.num_classes, spec.num_channels
    N = cfg.scaling_n
    sigma = np.asarray(traffic.mean_flow_size, dtype=float)
    if np.any(sigma * N < 1.0):
        raise ValueError("mean packet count sigma_k * N must be at least one")
    lam = np.asarray(traffic.arrival_rate, dtype=float)
    phi = params.phi
    nu = params.nu
    beta = params.beta
    flow_end_prob = 1.0 / (sigma * N)

    st = _JointState(spec, cfg.initial_state, initial_schedule)
    arr_rngs = [stream(cfg.seed, "arrival", k, cfg.replication) for k in range(K)]
    att_rngs = [stream(cfg.seed, "attempt", k, cfg.replication) for k in range(K)]
    pkt_rngs = [stream(cfg.seed, "packet", k, cfg.replication) for k in range(K)]
    pick_rng = stream(cfg.seed, "flowpick", 0, cfg.replication)

    t = 0.0
    next_arrival = np.array([
        arr_rngs[k].standard_exponential() / lam[k] if lam[k] > 0 else np.inf
        for k in range(K)
    ])
    arrivals = np.zeros(K, dtype=np.int64)
    departures = np.zeros(K, dtype=np.int64)
    attempt_counts = np.zeros(K, dtype=np.int64)
    packet_counts = np.zeros(K, dtype=np.int64)
    integral = np.zeros(K)
    busy = np.zeros(K)
    served = np.zeros(K)
    rate_time = {name: np.zeros(K) for name in
                 ("arrival", "attempt", "packet_continue", "packet_complete")}
    sampler = _Sampler(cfg.sample_times)
    aborted = False
    abort_time: Optional[float] = None

    track = cfg.track_flows
    flows: list[dict[int, float]] = [dict() for _ in range(K)]
    idle: list[list[int]] = [[] for _ in range(K)]
    slot_flow: dict[tuple[int, int], int] = {}
    slot_start: dict[tuple[int, int], float] = {}
    completed: list[list[float]] = [[] for _ in range(K)]
    next_fid = 0
    if track:
        for k in range(K):
            for _ in range(int(st.x[k])):
                flows[k][next_fid] = 0.0
                idle[k].append(next_fid)
                next_fid += 1

    def attempt_rates(k: int) -> np.ndarray:
        feas = st.can_add(k)
        if not feas.any():
            return np.zeros(J)
        i = st.downlink_ap[k]
        if policy == "standard_infra" and i is not None:
            total = int(sum(st.x[m] for m in spec.access_points[i].downlink))
            if total == 0:
                return np.zeros(J)
            base = N * nu[k] * (st.x[k] / total)
        else:
            base = N * (st.x[k] - st.y_class[k]) * nu[k]
        return np.where(feas, base * beta[k], 0.0)

    while True:
        per_class_attempt = [attempt_rates(k) for k in range(K)]
        attempt_total = np.array([r.sum() for r in per_class_attempt])
        packet_total = st.y_class * N * phi
        cand = np.full(3 * K, np.inf)
        for k in range(K):
            cand[k] = next_arrival[k]
            if attempt_total[k] > 0:
                cand[K + k] = t + att_rngs[k].standard_exponential() / attempt_total[k]
            if packet_total[k] > 0:
                cand[2 * K + k] = t + pkt_rngs[k].standard_exponential() / packet_total[k]
        evt = int(np.argmin(cand))
        t_next = float(cand[evt])

        def accrue(dt: float) -> None:
            integral[:] += st.x * dt
            busy[:] += (st.x > 0) * dt
            served[:] += phi * st.y_class * dt
            rate_time["arrival"] += lam * dt
            rate_time["attempt"] += attempt_total * dt
            rate_time["packet_continue"] += packet_total * (1.0 - flow_end_prob) * dt
            rate_time["packet_complete"] += st.y_class * phi / sigma * dt

        if t_next >= cfg.horizon:
            sched_now = st.schedule()
            sampler.emit_until(cfg.horizon, st.x, sched_now)
            sampler.emit_rest(st.x, sched_now)
            accrue(cfg.horizon - t)
            t = cfg.horizon
            break

        sampler.emit_until(t_next, st.x, schedule_fn=st.schedule)
        accrue(t_next - t)
        t = t_next

        if evt < K:                                  # flow arrival
            k = evt
            st.x[k] += 1
            arrivals[k] += 1
            next_arrival[k] = t + arr_rngs[k].standard_exponential() / lam[k]
            if track:
                flows[k][next_fid] = 0.0
                idle[k].append(next_fid)
                next_fid += 1
            if int(st.x.sum()) > cfg.max_total_flows:
                aborted = True
                abort_time = t
                sampler.emit_rest(st.x, st.schedule())
                break
        elif evt < 2 * K:                            # successful channel access
            k = evt - K
            rates = per_class_attempt[k]
            u = att_rngs[k].random() * rates.sum()
            j = int(np.searchsorted(np.cumsum(rates), u, side="right"))
            j = min(j, J - 1)
            st.add(k, j)
            attempt_counts[k] += 1
            slot_start[(k, j)] = t
            if track:
                if policy == "standard_infra" and st.downlink_ap[k] is not None:
                    pool = sorted(flows[k].keys())
                else:
                    pool = idle[k]
                fid = pool[int(pick_rng.integers(len(pool)))]
                if fid in idle[k]:
                    idle[k].remove(fid)
                slot_flow[(k, j)] = fid
        else:                                        # packet completion
            k = evt - 2 * K
            js = [j for j in range(J) if st.y[k, j]]
            j = js[int(pkt_rngs[k].integers(len(js)))]
            ends_flow = pkt_rngs[k].random() < flow_end_prob[k]
            st.remove(k, j)
            packet_counts[k] += 1
            if track:
                fid = slot_flow.pop((k, j))
                flows[k][fid] += phi[k] * (t - slot_start.pop((k, j)))
                if ends_flow:
                    completed[k].append(flows[k].pop(fid))
                else:
                    idle[k].append(fid)
            else:
                slot_start.pop((k, j), None)
            if ends_flow:
                st.x[k] -= 1
                departures[k] += 1

    if track:
        # credit the in-flight fraction of each still-active packet
        for (k, j), start in slot_start.items():
            fid = slot_flow.get((k, j))
            if fid is not None:
                flows[k][fid] += phi[k] * (t - start)

    return Trajectory(
        samples=sampler.out,
        arrivals=tuple(int(v) for v in arrivals),
        departures=tuple(int(v) for v in departures),
        aborted=aborted,
        final_time=t,
        final_state=tuple(int(v) for v in st.x),
        time_integral_flows=tuple(float(v) for v in integral),
        busy_time=tuple(float(v) for v in busy),
        served_bits=tuple(float(v) for v in served),
        abort_time=abort_time,
        final_schedule=st.schedule(),
        completed_flow_sizes=(tuple(tuple(c) for c in completed) if track else None),
        residual_flow_bits=(tuple(float(sum(f.values())) for f in flows) if track else None),
        rate_time={name: tuple(float(v) for v in vec) for name, vec in rate_time.items()},
        event_counts_by_kind={
            "arrival": tuple(int(v) for v in arrivals),
            "attempt": tuple(int(v) for v in attempt_counts),
            "packet": tuple(int(v) for v in packet_counts),
            "flow_completion": tuple(int(v) for v in departures),
        },
    )


@dataclass
class DistanceRow:
    scaling_n: int
    distance: float
    ci_lo: float
    ci_hi: float


@dataclass
class DistanceTable:
    t_probe: float
    replications: int
    rows: list[DistanceRow]


def _tv_from_counts(counts: dict[tuple[int, ...], int], total: int,
                    index: dict[tuple[int, ...], int], reference: np.ndarray,
                    outside_ref: float) -> float:
    """Total-variation distance between empirical counts and a reference
    distribution over the states of ``index`` (state -> position in
    ``reference``), with every state outside lumped into one atom of mass
    ``outside_ref``.

    Only visited states are looked up. The unvisited states' mass is the
    left-to-right sum of a copy of the reference with the visited entries
    zeroed: adding an exact zero leaves a float sum unchanged, so this is
    the sum over the unvisited states alone, in reference order.
    """
    tv = 0.0
    seen_outside = 0
    unvisited = reference.tolist()
    for state, c in counts.items():
        i = index.get(state)
        if i is None:
            seen_outside += c
        else:
            tv += abs(c / total - unvisited[i])
            unvisited[i] = 0.0
    tv += sum(unvisited)
    tv += abs(seen_outside / total - outside_ref)
    return 0.5 * tv


def timescale_convergence(spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                          *, n_values: Sequence[int], t_probe: float,
                          replications: int, seed: int, policy: str,
                          initial_state: Sequence[int],
                          window: Optional[Sequence[int]] = None,
                          bootstrap: int = 500) -> DistanceTable:
    """Total-variation distance between the joint model's flow counts at
    ``t_probe`` and the separated model's exact transient distribution.

    The separated distribution is computed by uniformization on a truncated
    box (no simulation noise on the reference side), from the sparse (CSR)
    flow-level generator of :mod:`mccsma.oracles`; the joint side is
    estimated from ``replications`` independent runs per scaling value, with
    a multinomial bootstrap confidence interval. The distance is measured
    over the box, with all outside states lumped together.

    The default box reaches the 1 - 1e-12 Poisson quantile of each class's
    arrivals by ``t_probe``. A box of more than
    ``mccsma.oracles.MAX_ORACLE_STATES`` states raises ``OracleSpaceError``
    before the generator is built.
    """
    from .oracles import flow_level_generator, poisson_quantile, transient_distribution

    policy = check_policy(spec, policy)
    K = spec.num_classes
    x0 = tuple(int(v) for v in initial_state)
    if t_probe == 0.0:
        # both models sit at the common initial condition
        return DistanceTable(0.0, replications,
                             [DistanceRow(int(n), 0.0, 0.0, 0.0) for n in n_values])
    if window is None:
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

    boot_rng = stream(seed, "bootstrap")
    rows: list[DistanceRow] = []
    for n_val in n_values:
        counts: dict[tuple[int, ...], int] = {}
        for rep in range(replications):
            cfg = SimConfig(policy=policy, horizon=t_probe, seed=seed,
                            initial_state=x0, scaling_n=int(n_val),
                            replication=rep)
            traj = simulate_joint(spec, params, traffic, cfg)
            counts[traj.final_state] = counts.get(traj.final_state, 0) + 1
        distance = _tv_from_counts(counts, replications, index, p_ref, outside_ref)
        keys = list(counts.keys())
        weights = np.array([counts[s] for s in keys], dtype=float)
        probs = weights / weights.sum()
        samples = np.zeros(bootstrap)
        for b in range(bootstrap):
            resampled = boot_rng.multinomial(replications, probs)
            boot_counts = {s: int(c) for s, c in zip(keys, resampled) if c > 0}
            samples[b] = _tv_from_counts(boot_counts, replications, index, p_ref,
                                         outside_ref)
        lo, hi = np.percentile(samples, [2.5, 97.5])
        rows.append(DistanceRow(int(n_val), distance, float(lo), float(hi)))
    return DistanceTable(t_probe, replications, rows)


@dataclass
class CoupledRun:
    dominated: Trajectory            # run with the larger service rates
    base: Trajectory
    ordered: bool                    # componentwise dominated <= base throughout


def simulate_coupled_pair(spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                          cfg: SimConfig, throughput_hi: ThroughputFn,
                          throughput_lo: ThroughputFn) -> CoupledRun:
    """Run two separated-model chains on one uniformized event stream.

    Both chains see identical arrivals; departure events use nested uniform
    intervals, so whenever the first chain's service rates dominate the
    second's pointwise (on ordered states), its flow counts stay below.
    Used for stochastic-domination spot checks.
    """
    check_policy(spec, cfg.policy)
    K = spec.num_classes
    lam = np.asarray(traffic.arrival_rate, dtype=float)
    sigma = np.asarray(traffic.mean_flow_size, dtype=float)
    dep_cap = spec.num_channels * params.phi / sigma
    total_rate = float(lam.sum() + dep_cap.sum())
    rng = stream(cfg.seed, "coupling", 0, cfg.replication)

    x_hi = np.array(cfg.initial_state, dtype=np.int64)
    x_lo = np.array(cfg.initial_state, dtype=np.int64)
    dep_off = lam.sum() + np.concatenate([[0.0], np.cumsum(dep_cap)[:-1]])

    t = 0.0
    ordered = True
    samp_hi = _Sampler(cfg.sample_times)
    samp_lo = _Sampler(cfg.sample_times)
    int_hi = np.zeros(K)
    int_lo = np.zeros(K)
    counts = [np.zeros(K, dtype=np.int64) for _ in range(4)]  # arr/dep per chain

    while True:
        dt = rng.exponential(1.0 / total_rate)
        t_next = t + dt
        if t_next >= cfg.horizon:
            samp_hi.emit_until(cfg.horizon, x_hi)
            samp_hi.emit_rest(x_hi)
            samp_lo.emit_until(cfg.horizon, x_lo)
            samp_lo.emit_rest(x_lo)
            int_hi += x_hi * (cfg.horizon - t)
            int_lo += x_lo * (cfg.horizon - t)
            t = cfg.horizon
            break
        samp_hi.emit_until(t_next, x_hi)
        samp_lo.emit_until(t_next, x_lo)
        int_hi += x_hi * dt
        int_lo += x_lo * dt
        t = t_next
        u = rng.random() * total_rate

        if u < lam.sum():
            k = int(np.searchsorted(np.cumsum(lam), u, side="right"))
            x_hi[k] += 1
            x_lo[k] += 1
            counts[0][k] += 1
            counts[2][k] += 1
        else:
            phi_hi = throughput_hi(tuple(int(v) for v in x_hi))
            phi_lo = throughput_lo(tuple(int(v) for v in x_lo))
            for k in range(K):
                if dep_off[k] <= u < dep_off[k] + dep_cap[k]:
                    local = u - dep_off[k]
                    if x_hi[k] > 0 and local < phi_hi[k] / sigma[k]:
                        x_hi[k] -= 1
                        counts[1][k] += 1
                    if x_lo[k] > 0 and local < phi_lo[k] / sigma[k]:
                        x_lo[k] -= 1
                        counts[3][k] += 1
                    break
        if np.any(x_hi > x_lo):
            ordered = False

    def mk(samples, ints, arr, dep, xf) -> Trajectory:
        return Trajectory(samples=samples, arrivals=tuple(int(v) for v in arr),
                          departures=tuple(int(v) for v in dep), aborted=False,
                          final_time=t, final_state=tuple(int(v) for v in xf),
                          time_integral_flows=tuple(float(v) for v in ints),
                          busy_time=tuple(0.0 for _ in range(K)),
                          served_bits=tuple(0.0 for _ in range(K)))

    return CoupledRun(mk(samp_hi.out, int_hi, counts[0], counts[1], x_hi),
                      mk(samp_lo.out, int_lo, counts[2], counts[3], x_lo),
                      ordered)
