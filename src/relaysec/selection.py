"""Per-slot relay/jammer role assignment: the joint receive/jam policy, the
conventional baselines, and the exhaustive assignment oracle.

Role semantics shared by the whole simulator:

* ``receiving_relays`` listen to the source this slot and push a classified
  reception record into their buffer.
* ``transmitting_relays`` replay a buffered signal; their replays are the
  users' signal source.
* ``jamming_relays`` are the transmitting relays whose replays also degrade
  the eavesdroppers.  The joint policies use one set for both roles; the
  conventional baselines forward without bothering the eavesdroppers, so
  their jamming set is empty.

A transmitting relay with an empty buffer stays silent for the slot and
contributes nothing anywhere (counted in the diagnostics).

The policies differ only in how they pick those roles; :func:`_serve` serves
them for every policy: buffer replays, reception and storage, the slot count.

This module owns the selection metrics and the slot machinery that feeds
realizations and buffers into the formula kernels: the rate formulas live in
:mod:`relaysec.rates`, the reception formulas in :mod:`relaysec.link_metrics`
and the Gram in :mod:`relaysec.channel`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import rates
from .buffers import BufferedSignal, RelayBuffer, classify_signal
from .channel import gram
from .config import SystemConfig, power_split
from .errors import ConfigError
from .link_metrics import (iri_feasible, reception_sinr, relayed_link_power,
                           source_link_power)


@dataclass(frozen=True)
class SelectionOutcome:
    receiving_relays: tuple       # sorted relay ids, |.| == T
    jamming_relays: tuple         # sorted relay ids, |.| <= K
    transmitting_relays: tuple    # sorted relay ids serving the users
    replays: dict                 # relay id -> BufferedSignal actually replayed
    objective: float | None = None  # oracle: maximized slot secrecy rate


@dataclass
class DiagCounters:
    phi_tests: int = 0
    phi_feasible: int = 0
    silent_transmitters: int = 0
    clamp_events: int = 0
    collect_sinrs: bool = False
    sinrs: list = field(default_factory=list)


@dataclass
class PolicyState:
    """Single-owner per-trial state: buffers, the index of the next slot, and
    the jammer set picked at the end of the previous slot.  Every policy step
    advances it in place."""

    buffers: dict                 # relay id -> RelayBuffer
    slot: int
    pending_jammers: tuple | None = None
    diag: DiagCounters = field(default_factory=DiagCounters)


def fresh_state(config: SystemConfig) -> PolicyState:
    buffers = {q: RelayBuffer(q, config.buffer_capacity)
               for q in range(1, config.Q + 1)}
    return PolicyState(buffers=buffers, slot=0)


# ---------------------------------------------------------------------------
# metric primitives


def initial_ranking(realization) -> dict:
    """Real det(H_q H_q^H) per relay id, in rank order: descending
    determinant, ties by ascending id."""
    dets = {q + 1: float(d) for q, d in
            enumerate(np.linalg.det(gram(realization.su_stack)).real)}
    return {q: dets[q] for q in sorted(dets, key=lambda q: (-dets[q], q))}


def _peek_replays(state: PolicyState, relay_ids) -> dict:
    """Record each relay would replay as jamming now; silent relays are
    absent."""
    return {k: rec for k in relay_ids
            if (rec := state.buffers[k].peek_jamming()) is not None}


def _replay_stack(replays: dict, relay_ids) -> tuple:
    """Ascending ids of the relays in ``relay_ids`` that have a replay, and
    their (A, N_i, N_t) snapshot stack (None when there are none)."""
    active = [k for k in sorted(relay_ids) if k in replays]
    if not active:
        return active, None
    return active, np.stack([np.asarray(replays[k].snapshot) for k in active])


def _rr_block(realization, senders, receivers) -> np.ndarray:
    """(len(senders), len(receivers), N_i, N_k) relay->relay channels."""
    rows = [[realization.rr_row(k, i) for i in receivers] for k in senders]
    return realization.rr_stack[rows]


def _user_terms(realization, config: SystemConfig, active, snaps) -> np.ndarray:
    """(A, T, N_r, N_r) user-side terms of the replaying relays ``active``
    (ascending ids, snapshot stack ``snaps``); user-side entry t is user
    t mod M."""
    p_tx, p_rel = power_split(config)
    users = [t % config.M for t in range(config.T)]
    H_u = realization.ru_stack[[k - 1 for k in active]][:, users]
    factors = rates.stored_signal_factor(snaps, p_tx / config.sigma2, config.N_t)
    return rates.relay_terms(gram(H_u), factors[:, None], p_rel / config.sigma2,
                             config.N_k)


def _jamming_terms(realization, config: SystemConfig, active, snaps) -> np.ndarray:
    """(A, N_e, N_e) jamming terms of the replaying relays ``active``."""
    p_tx, p_rel = power_split(config)
    factors = rates.stored_signal_factor(snaps, p_tx / config.sigma2, config.N_t)
    grams = gram(realization.re_stack[[k - 1 for k in active]]).sum(axis=1)
    return rates.relay_terms(grams, factors, p_rel / config.sigma2, config.N_k)


def _eav_interference(realization, config: SystemConfig, active,
                      snaps) -> np.ndarray:
    """Aggregate jamming covariance at the eavesdroppers: the terms of the
    replaying jammers ``active`` (a :func:`_replay_stack`) summed in
    ascending relay order."""
    if not active:
        return np.zeros((config.N_e, config.N_e))
    return _jamming_terms(realization, config, active, snaps).sum(axis=0)


def _slot_rates(realization, config: SystemConfig, user_gammas: np.ndarray,
                Delta: np.ndarray) -> tuple:
    """User rates, eavesdropper rates and the clamp count for user signal
    matrices and interference covariances with matching leading axes."""
    p_tx, _ = power_split(config)
    eav_gammas = rates.eav_sinr(realization.se_stack, Delta,
                                p_tx / config.sigma2, config.N_t)
    user_rates, user_clamps = rates.clamped_logdet_rate_stack(
        user_gammas, config.log_base)
    eav_rates, eav_clamps = rates.clamped_logdet_rate_stack(
        eav_gammas, config.log_base)
    return user_rates, eav_rates, user_clamps + eav_clamps


# ---------------------------------------------------------------------------
# receive-side and jam-side selection


def select_receiving_relays(state: PolicyState, realization,
                            config: SystemConfig, jammers: tuple) -> tuple:
    """Pick the T receivers among relays not jamming this slot.

    Candidates are ranked by logdet(I + Gamma_m), where
    Gamma_m = (I + D_m)^{-1} H_m H_m^H and D_m sums the inter-relay
    interference of the active jammers' replays at candidate m; ties break
    by ascending id.  Returns (ids, metric map of those log-dets); the metric
    map is empty when the pool is exactly T (forced set).
    """
    pool = [q for q in sorted(state.buffers) if q not in set(jammers)]
    if len(pool) < config.T:
        raise ConfigError(
            f"receive pool has {len(pool)} relays but T={config.T}")
    if len(pool) == config.T:
        return tuple(pool), {}

    active, snaps = _replay_stack(_peek_replays(state, jammers), jammers)

    G_m = gram(realization.su_stack[[m - 1 for m in pool]])
    if active:
        H_km = _rr_block(realization, active, pool)  # (A, C, N_i, N_k)
        D_m = np.einsum("kcab,kbd,kced->cae", H_km, gram(snaps), H_km.conj())
    else:
        D_m = np.zeros_like(G_m)
    if config.selection_noise_floor:
        D_m = D_m + (config.N_i * config.sigma2) * np.eye(config.N_i)
    gammas = np.linalg.solve(np.eye(config.N_i) + D_m, G_m)
    logdets = rates.logdet_identity_plus_stack(gammas, config.log_base, "neginf")
    metrics = dict(zip(pool, logdets.tolist()))
    chosen = sorted(pool, key=lambda m: (-metrics[m], m))[:config.T]
    return tuple(sorted(chosen)), metrics


def select_jamming_relays(state: PolicyState, realization,
                          config: SystemConfig, current_jammers: tuple = (),
                          replays: dict | None = None) -> tuple:
    """Pick the K relays that will jam (and serve the users) next slot.

    Every relay is a candidate; disjointness from the receivers is restored
    when the next slot's receive pool excludes the picked set.  A candidate n
    is scored with its own replayable snapshot: delivered-signal matrix
    Gamma_n = sum_r H_nr Hs Hs^H H_nr^H against its eavesdropper-side leak
    (I + Delta)^{-1} (P/N_k) sum_e H_ne Hs Hs^H H_ne^H, where Delta is the
    interference floor created by the currently active jammers.  Relays with
    empty buffers rank last; ties break by ascending id.
    """
    if config.K == 0:
        return (), {}
    pool = sorted(state.buffers)
    _, p_rel = power_split(config)

    if replays is None:
        replays = _peek_replays(state, current_jammers)
    own = _peek_replays(state, pool)
    eligible, snaps = _replay_stack(own, pool)
    metrics = {n: 0.0 for n in pool}

    if eligible:
        idx = [n - 1 for n in eligible]
        snap_grams = gram(snaps)
        H_nr = realization.ru_stack[idx]              # (C, M, N_r, N_k)
        gamma_n = np.einsum("cuab,cbd,cued->cae", H_nr, snap_grams, H_nr.conj())
        H_ne = realization.re_stack[idx]              # (C, N, N_e, N_k)
        leak = (p_rel / config.sigma2 / config.N_k) * np.einsum(
            "ceab,cbd,cefd->caf", H_ne, snap_grams, H_ne.conj())
        Delta = _eav_interference(realization, config,
                                  *_replay_stack(replays, current_jammers))
        gamma_e = np.linalg.solve(rates._eye(config.N_e) + Delta, leak)
        # N_e == N_r whenever K > 0, so both metrics share one log-det call
        ld_n, ld_e = rates.logdet_identity_plus_stack(
            np.stack([gamma_n, gamma_e]), config.log_base, "neginf")
        # degenerate determinants rank the candidate last, not crash a trial
        with np.errstate(invalid="ignore"):
            scores = np.where(np.isfinite(ld_n) & np.isfinite(ld_e), ld_n - ld_e,
                              -np.inf)
        metrics.update(zip(eligible, scores.tolist()))

    has = {n: (1 if n in own else 0) for n in pool}
    chosen = sorted(pool, key=lambda n: (-has[n], -metrics[n], n))[:config.K]
    return tuple(sorted(chosen)), metrics


# ---------------------------------------------------------------------------
# shared slot machinery


def _resolve_replays(state: PolicyState, transmitters, config: SystemConfig,
                     forward_only: bool) -> dict:
    """Pick the record each transmitting relay sends this slot.

    Joint policies replay via peek (reusable jamming signal) unless
    ``consume_on_jam``; the conventional baselines deliver and consume their
    oldest forward-class record.
    """
    replays = {}
    for k in sorted(transmitters):
        buf = state.buffers[k]
        if forward_only:
            rec = buf.pop_forward()
        else:
            rec = buf.peek_jamming()
            if rec is not None and config.consume_on_jam:
                buf.remove(rec)
        if rec is None:
            state.diag.silent_transmitters += 1
        else:
            replays[k] = rec
    return replays


def _receive_and_store(state: PolicyState, realization, config: SystemConfig,
                       receivers, replays: dict) -> None:
    """Compute each receiver's (ascending ids) reception SINR, with per-pair
    IRI cancellation where feasible, classify it, and push the record."""
    threshold = config.sinr_threshold
    if threshold is None:
        raise ConfigError(
            "sinr_threshold is unresolved (None); set a value or run through "
            "monte_carlo, which calibrates it per sweep cell")
    p_tx, p_rel = power_split(config)
    active, snaps = _replay_stack(replays, replays)
    H_rx = realization.su_stack[[i - 1 for i in receivers]]   # (R, N_i, N_t)
    gamma_S = (p_tx / config.N_t) * np.einsum(
        "rab,rab->r", H_rx, H_rx.conj()).real
    powers = np.zeros((0, len(receivers)))
    phi = 1
    if active:
        H_ki = _rr_block(realization, active, receivers)      # (A, R, N_i, N_k)
        prod = np.einsum("krab,kbc->krac", H_ki, snaps)
        powers = (p_rel / config.N_k) * np.einsum(
            "krab,krab->kr", prod, prod.conj()).real
        if config.iri_cancellation:
            feasible = iri_feasible(H_rx, H_ki, p_tx / config.sigma2,
                                    p_rel / config.sigma2, config.N_t,
                                    config.N_k, config.gamma0)
            state.diag.phi_tests += feasible.size
            state.diag.phi_feasible += int(np.count_nonzero(feasible))
            phi = ~feasible
    sinrs = reception_sinr(gamma_S, powers, phi, config.N_i, config.sigma2)
    for i, sinr in zip(receivers, sinrs.tolist()):
        if state.diag.collect_sinrs:
            state.diag.sinrs.append(sinr)
        state.buffers[i].push(BufferedSignal(
            snapshot=realization.su_stack[i - 1], sinr_at_reception=sinr,
            slot=realization.slot,
            signal_class=classify_signal(sinr, threshold)))


def _serve(state: PolicyState, realization, config: SystemConfig, receivers,
           transmitters, jamming: bool, objective: float | None = None) -> tuple:
    """Serve one slot's roles and advance the slot: the transmitting relays
    replay from their buffers (``jamming``: a peeked record that also jams
    the eavesdroppers; otherwise a consumed forward-class record), then the
    receivers classify and store what they hear.  Returns (outcome, state).
    """
    receivers, transmitters = tuple(sorted(receivers)), tuple(sorted(transmitters))
    replays = _resolve_replays(state, transmitters, config, forward_only=not jamming)
    outcome = SelectionOutcome(
        receiving_relays=receivers, jamming_relays=transmitters if jamming else (),
        transmitting_relays=transmitters, replays=replays, objective=objective)
    _receive_and_store(state, realization, config, receivers, replays)
    state.slot += 1
    return outcome, state


def slot_rate_report(realization, config: SystemConfig, replays: dict,
                     jammers: tuple, transmitters: tuple) -> tuple:
    """Per-slot achievable rates for a role assignment.

    The users are served by the transmitting relays' replays; the
    eavesdroppers see the source plus interference from the jamming relays'
    replays.  Returns (RateReport, clamp_event_count).
    """
    active_tx, snaps = _replay_stack(replays, transmitters)
    if active_tx:
        user_gammas = _user_terms(realization, config, active_tx, snaps).sum(axis=0)
    else:
        user_gammas = np.zeros((config.T, config.N_r, config.N_r))
    jam_stack = ((active_tx, snaps) if jammers == transmitters
                 else _replay_stack(replays, jammers))
    Delta = _eav_interference(realization, config, *jam_stack)
    user_rates, eav_rates, clamps = _slot_rates(realization, config,
                                                user_gammas, Delta)
    report = rates.RateReport(
        user_rates=tuple(map(float, user_rates)),
        eav_rates=tuple(map(float, eav_rates)),
        secrecy_rate=float(rates.secrecy_rate(user_rates, eav_rates)))
    return report, clamps


# ---------------------------------------------------------------------------
# policies


def bf_rjfs_step(state: PolicyState, realization, config: SystemConfig,
                 rng=None) -> tuple:
    """One slot of the joint receive/jam function selection.

    Slot 0 seeds the jammer set from the source-channel determinant ranking
    (best first unless ``worst_sinr_seeding``); afterwards the jammers are the
    set picked at the end of the previous slot.  Receivers are selected from
    the remaining pool, reception records are classified and buffered, and
    the next slot's jammers are then chosen with the jam-side metric.
    """
    if state.pending_jammers is not None:
        jammers = state.pending_jammers
    elif state.slot == 0:
        ranking = list(initial_ranking(realization))
        picked = (ranking[-config.K:] if config.worst_sinr_seeding
                  else ranking[:config.K]) if config.K else []
        jammers = tuple(sorted(picked))
    else:
        jammers, _ = select_jamming_relays(state, realization, config)

    receivers, _ = select_receiving_relays(state, realization, config, jammers)
    outcome, state = _serve(state, realization, config, receivers, jammers,
                            jamming=True)
    state.pending_jammers, _ = select_jamming_relays(
        state, realization, config, current_jammers=jammers,
        replays=outcome.replays)
    return outcome, state


def policy_conventional_bf(state: PolicyState, realization,
                           config: SystemConfig, rng=None) -> tuple:
    """Buffer-aided forwarding without jamming: the T strongest source links
    receive; of the rest, the T relays with the strongest aggregate
    relay-to-user channels deliver a stored forward-class record."""
    ids = sorted(state.buffers)
    rx_vals = source_link_power(realization.su_stack).tolist()
    receivers = sorted(ids, key=lambda q: (-rx_vals[q - 1], q))[:config.T]
    rest = [q for q in ids if q not in set(receivers)]
    tx_vals = source_link_power(realization.ru_stack).sum(axis=1).tolist()
    transmitters = sorted(rest, key=lambda q: (-tx_vals[q - 1], q))[:config.T]
    return _serve(state, realization, config, receivers, transmitters,
                  jamming=False)


def policy_max_link(state: PolicyState, realization, config: SystemConfig,
                    rng=None) -> tuple:
    """Strongest-link scheduling: merge all source->relay links (non-full
    buffers preferred) and relay->user links (non-empty buffers only), then
    greedily fill T receive and up to T transmit roles in descending link
    strength, one role per relay."""
    ids = sorted(state.buffers)
    rx_vals = source_link_power(realization.su_stack).tolist()
    tx_vals = source_link_power(realization.ru_stack).max(axis=1).tolist()
    links = []
    for q in ids:
        eligible = 0 if state.buffers[q].is_full else 1
        links.append((eligible, rx_vals[q - 1], "rx", q))
        if len(state.buffers[q]) > 0:
            links.append((1, tx_vals[q - 1], "tx", q))
    links.sort(key=lambda item: (-item[0], -item[1], item[3], item[2]))
    receivers, transmitters, assigned = [], [], set()
    for _, power, kind, q in links:
        if q in assigned:
            continue
        if kind == "rx" and len(receivers) < config.T:
            receivers.append(q)
            assigned.add(q)
        elif kind == "tx" and len(transmitters) < config.T:
            transmitters.append(q)
            assigned.add(q)
    return _serve(state, realization, config, receivers, transmitters,
                  jamming=False)


def policy_max_ratio(state: PolicyState, realization, config: SystemConfig,
                     rng=None) -> tuple:
    """Rank relays by legitimate-power-to-eavesdropper-leakage ratio; the top
    T receive, and of the rest the top T by the transmit-side analogue of the
    same ratio deliver."""
    ids = sorted(state.buffers)
    active, snaps = _replay_stack(_peek_replays(state, ids), ids)
    # relays with nothing to replay leak and deliver nothing
    leak = np.zeros(config.Q)
    delivered = np.zeros(config.Q)
    if active:
        idx = [q - 1 for q in active]
        leak[idx] = relayed_link_power(realization.re_stack[idx],
                                       snaps[:, None]).sum(axis=1)
        delivered[idx] = relayed_link_power(realization.ru_stack[idx],
                                            snaps[:, None]).sum(axis=1)
    floor = config.N_e * config.sigma2
    rx_ratio = (source_link_power(realization.su_stack) / (leak + floor)).tolist()
    receivers = sorted(ids, key=lambda q: (-rx_ratio[q - 1], q))[:config.T]
    rest = [q for q in ids if q not in set(receivers)]
    tx_ratio = (delivered / (leak + floor)).tolist()
    transmitters = sorted(rest, key=lambda q: (-tx_ratio[q - 1], q))[:config.T]
    return _serve(state, realization, config, receivers, transmitters,
                  jamming=False)


def policy_random(state: PolicyState, realization, config: SystemConfig,
                  rng: np.random.Generator) -> tuple:
    """Uniformly random disjoint receive and jam sets (lower baseline)."""
    if rng is None:
        raise ValueError("the random policy needs an rng substream")
    ids = np.array(sorted(state.buffers))
    perm = rng.permutation(len(ids))
    receivers = tuple(sorted(int(ids[j]) for j in perm[:config.T]))
    jammers = tuple(sorted(int(ids[j])
                           for j in perm[config.T:config.T + config.K]))
    return _serve(state, realization, config, receivers, jammers, jamming=True)


_ORACLE_GUARD = 100_000


def _jam_set_scores(realization, config: SystemConfig, replays: dict,
                    jam_sets: np.ndarray) -> np.ndarray:
    """Slot secrecy rate of each row of ``jam_sets`` ((S, K) ascending relay
    ids) as the jamming and transmitting set, each member replaying its
    record in ``replays`` (silent when it has none).

    Each replaying relay's user-side signal term and eavesdropper-side
    interference term are computed once, then summed per set in ascending
    relay order with a silent relay adding an exact zero, so sets with the
    same replaying members score bit-identically, and each score equals
    ``slot_rate_report`` of its set bit for bit.
    """
    S = len(jam_sets)
    user_terms = np.zeros((config.Q, config.T, config.N_r, config.N_r), dtype=complex)
    eav_terms = np.zeros((config.Q, config.N_e, config.N_e), dtype=complex)
    active, snaps = _replay_stack(replays, set(jam_sets.ravel().tolist()))
    if active:
        idx = [k - 1 for k in active]
        user_terms[idx] = _user_terms(realization, config, active, snaps)
        eav_terms[idx] = _jamming_terms(realization, config, active, snaps)
    user_gammas = np.zeros((S, config.T, config.N_r, config.N_r), dtype=complex)
    Delta = np.zeros((S, config.N_e, config.N_e), dtype=complex)
    for col in (jam_sets - 1).T:
        user_gammas += user_terms[col]
        Delta += eav_terms[col]
    user_rates, eav_rates, _ = _slot_rates(realization, config, user_gammas, Delta)
    return rates.secrecy_rate(user_rates, eav_rates)


def exhaustive_oracle(state: PolicyState, realization, config: SystemConfig,
                      rng=None) -> tuple:
    """Take the disjoint (receive, jam) assignment with the highest slot
    secrecy rate under the current buffers.

    That rate does not depend on the receive set, so the search scores each
    of the C(Q, K) jam sets once, in one batch.  Ties go to the first receive
    set in ``itertools.combinations`` order that is disjoint from a
    max-scoring jam set, then to the first such jam set in the same order:
    the first best assignment of a receive-major enumeration.  The objective
    is that set's batch score, which equals ``slot_rate_report`` of the
    chosen assignment bit for bit.

    Refuses to run when C(Q, K) exceeds 100000.
    """
    ids = sorted(state.buffers)
    count = math.comb(config.Q, config.K)
    if count > _ORACLE_GUARD:
        raise ConfigError(
            f"oracle would score {count} jam sets (> {_ORACLE_GUARD})")
    jam_sets = list(itertools.combinations(ids, config.K))
    scores = _jam_set_scores(realization, config, _peek_replays(state, ids),
                             np.array(jam_sets, dtype=int))
    top = scores.max()
    best = [jam_sets[s] for s in np.flatnonzero(scores == top)]
    for rx in itertools.combinations(ids, config.T):
        jam = next((j for j in best if set(j).isdisjoint(rx)), None)
        if jam is not None:
            break
    return _serve(state, realization, config, rx, jam, jamming=True,
                  objective=float(top))


POLICIES = {
    "bf-rjfs": bf_rjfs_step,
    "conventional-bf": policy_conventional_bf,
    "max-link": policy_max_link,
    "max-ratio": policy_max_ratio,
    "random": policy_random,
    "oracle": exhaustive_oracle,
}
