"""Per-slot relay/jammer role assignment on lanes: the joint receive/jam
policy, the conventional baselines, and the exhaustive assignment oracle.

The engine advances B independent slot sequences, its lanes, in lockstep as
one lane set; each run of one policy's lanes is a range of it.  Every array
carries the lane axis first.  Lane b has its own noise variance, power split
and threshold (:class:`Lanes`) and its own buffers (a
:class:`~relaysec.buffers.BufferBank`); the other config fields are shared.
Relays are indexed 0..Q-1 here (relay id q is index q - 1), and a role set
is a (B, Q) boolean mask, so ascending ids are index order.  Every tie-break
is taken per lane.

Role semantics shared by the whole simulator:

* the receivers listen to the source this slot and push a classified
  reception record into their buffer.
* the transmitters replay a buffered signal; their replays are the users'
  signal source.
* the jammers are the transmitters whose replays also degrade the
  eavesdroppers.  The joint policies use one set for both roles; the
  conventional baselines forward without bothering the eavesdroppers, so
  their jamming set is empty.

A transmitter with an empty buffer stays silent for the slot and contributes
nothing anywhere (counted in the diagnostics).

The policies differ only in how they pick those roles.  A ``LANE_STEPS``
entry picks them for its policy's lane range, from the buffers as the slot
found them, and changes no state; :func:`_serve` then serves the roles of
every lane at once: buffer replays (per lane, peek-and-jam for the
``JAMMING_POLICIES``, consume-forward for the rest), reception and storage.

The one-lane views (:func:`fresh_state`, the ``POLICIES`` steps and
:func:`slot_rate_report`) take one realization without lane axis and one
config, give roles as tuples of relay ids and records as
:class:`~relaysec.buffers.BufferedSignal`, and run the lane code on one lane:
a ``POLICIES`` step picks, then serves.

This module owns the selection metrics and the slot machinery that feeds
realizations and buffers into the formula kernels: the rate formulas live in
:mod:`relaysec.rates`, the reception formulas in :mod:`relaysec.link_metrics`
and the Gram in :mod:`relaysec.channel`.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rates
from .buffers import BufferBank, Records, SignalClass, classify_signal
from .channel import NetworkRealization, gram
from .config import SystemConfig, power_split
from .errors import ConfigError
from .link_metrics import (iri_feasible, reception_sinr, relayed_link_power,
                           source_link_power)


@dataclass(frozen=True)
class SelectionOutcome:
    """One lane's slot roles, as relay ids."""

    receiving_relays: tuple       # sorted relay ids, |.| <= T
    jamming_relays: tuple         # sorted relay ids, |.| <= K
    transmitting_relays: tuple    # sorted relay ids serving the users
    replays: dict                 # relay id -> BufferedSignal actually replayed
    objective: float | None = None  # oracle: maximized slot secrecy rate


@dataclass(frozen=True)
class LaneOutcome:
    """One slot's roles in every lane, as (B, Q) masks.  ``replays`` holds
    the record each transmitter replayed, ``sinr`` the reception SINR each
    receiver stored (0 elsewhere).  ``realization`` is the slot's lane
    realization (its draws and lane rows, not a per-lane copy), whose
    relay->user and relay->eavesdropper channels the next ``bf-rjfs`` slot
    reads.  ``factors`` (the replays' stored-signal factors) and ``delta``
    (the jammers' jamming covariance) are computed with ``lanes`` on first
    read, once."""

    receivers: np.ndarray
    transmitters: np.ndarray
    jammers: np.ndarray
    replays: Records
    sinr: np.ndarray
    realization: NetworkRealization
    lanes: Lanes

    @functools.cached_property
    def factors(self) -> np.ndarray:
        """(B, Q, N_i, N_i), see :func:`_factors`."""
        return _factors(self.lanes, self.replays)

    @functools.cached_property
    def delta(self) -> np.ndarray:
        """(B, N_e, N_e), see :func:`_eav_interference`."""
        return _eav_interference(self.realization, self.lanes,
                                 _sets(self.replays.found & self.jammers),
                                 self.factors)

    def view(self, lane: int, objective: float | None = None) -> SelectionOutcome:
        def ids(mask):
            return tuple((np.flatnonzero(mask[lane]) + 1).tolist())

        transmitters = ids(self.transmitters)
        return SelectionOutcome(
            receiving_relays=ids(self.receivers),
            jamming_relays=ids(self.jammers),
            transmitting_relays=transmitters,
            replays={q: self.replays.record(lane, q - 1) for q in transmitters
                     if self.replays.found[lane, q - 1]},
            objective=objective)


@dataclass
class DiagCounters:
    """Event counts: (B,) arrays in a lane state, integer sums over trials."""

    phi_tests: int = 0
    phi_feasible: int = 0
    silent_transmitters: int = 0
    clamp_events: int = 0


@dataclass
class PolicyState:
    """Single-owner state of a lane set: buffers, per-lane counters and the
    last served slot's LaneOutcome, which :func:`_serve` advances in place.
    A lane range's state (:meth:`index_lanes`) views these arrays and shares
    the last slot, whose lanes ``at`` it covers."""

    buffers: BufferBank
    diag: DiagCounters
    last_slot: LaneOutcome | None = None
    at: slice = dataclasses.field(default_factory=lambda: slice(None))

    def index_lanes(self, index: slice) -> PolicyState:
        """The state of the contiguous lane range ``index`` of a lane set."""
        return PolicyState(
            buffers=self.buffers.index_lanes(index),
            diag=DiagCounters(**{f.name: getattr(self.diag, f.name)[index]
                                 for f in dataclasses.fields(DiagCounters)}),
            last_slot=self.last_slot, at=index)


def fresh_state(config: SystemConfig, lanes: int = 1) -> PolicyState:
    return PolicyState(
        buffers=BufferBank(lanes, config.Q, config.buffer_capacity,
                           (config.N_i, config.N_t)),
        diag=DiagCounters(**{f.name: np.zeros(lanes, dtype=np.int64)
                             for f in dataclasses.fields(DiagCounters)}))


@dataclass(frozen=True)
class Lanes:
    """Per-lane parameters of a batch.  ``config`` holds every shared field;
    a lane's own configuration may differ from it only in eta, sigma2 and
    sinr_threshold."""

    config: SystemConfig
    p_tx: np.ndarray          # (B,) transmitter power
    p_rel: np.ndarray         # (B,) power of each transmitting relay
    sigma2: np.ndarray        # (B,) noise variance
    threshold: np.ndarray     # (B,) classification threshold, NaN if unresolved
    snr_tx: np.ndarray        # (B,) p_tx / sigma2
    snr_rel: np.ndarray       # (B,) p_rel / sigma2

    @classmethod
    def of(cls, configs) -> "Lanes":
        """Lane b runs ``configs[b]``; raises ConfigError if two of them
        differ in a shared field."""
        base = configs[0]
        for cfg in set(configs):
            if cfg is not base and cfg.replace(
                    eta=base.eta, sigma2=base.sigma2,
                    sinr_threshold=base.sinr_threshold) != base:
                raise ConfigError("the lanes of a batch may differ only in "
                                  "eta, sigma2 and sinr_threshold")
        p_tx, p_rel = np.array([power_split(cfg) for cfg in configs]).T
        sigma2 = np.array([cfg.sigma2 for cfg in configs])
        return cls(config=base, p_tx=p_tx, p_rel=p_rel, sigma2=sigma2,
                   threshold=np.array([np.nan if cfg.sinr_threshold is None
                                       else cfg.sinr_threshold for cfg in configs]),
                   snr_tx=p_tx / sigma2, snr_rel=p_rel / sigma2)


# ---------------------------------------------------------------------------
# lane helpers


def _col(values: np.ndarray, ndim: int) -> np.ndarray:
    """Per-lane values (B,) shaped to broadcast against a rank-``ndim``
    array whose first axis is the lane axis."""
    return values.reshape((-1,) + (1,) * (ndim - 1))


def _mask(relays: np.ndarray, Q: int) -> np.ndarray:
    """(B, Q) mask of the relay indices in each row of ``relays``."""
    mask = np.zeros((len(relays), Q), dtype=bool)
    mask[np.arange(len(relays))[:, None], relays] = True
    return mask


def _members(mask: np.ndarray) -> tuple:
    """Each lane's relay indices in ``mask``, ascending, as a (B, X) array
    padded with indices outside the mask (X is the largest count), and the
    (B, X) mask of the real entries."""
    counts = mask.sum(axis=1)
    relays = np.argsort(~mask, axis=1, kind="stable")[:, :counts.max(initial=0)]
    return relays, np.arange(relays.shape[1]) < counts[:, None]


def _top(values: np.ndarray, n: int, allowed: np.ndarray | None = None) -> np.ndarray:
    """(B, Q) mask of each lane's n largest ``values`` among the ``allowed``
    relays (all by default), ties to the lower index."""
    if allowed is None:
        return _mask(np.argsort(-values, axis=1, kind="stable")[:, :n], values.shape[1])
    order = np.lexsort((-values, ~allowed), axis=1)
    return _mask(order[:, :n], values.shape[1]) & allowed


def _sets(mask: np.ndarray) -> np.ndarray:
    """(B, Q) masks as the relay sets that :func:`_set_sum` reads."""
    return np.where(mask, np.arange(mask.shape[1]), mask.shape[1])


def _set_sum(terms: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Sums of (B, Q, ...) per-relay terms over (B, ..., X) relay sets, rows
    of relay indices whose members ascend and where index Q is no relay.
    Each sum starts at zero and adds its members' terms in that order, so it
    does not depend on the other sets, and a Q entry adds an exact zero."""
    B, Q = terms.shape[:2]
    padded = np.zeros((B, Q + 1) + terms.shape[2:], dtype=terms.dtype)
    padded[:, :Q] = terms
    # row b * (Q + 1) + q of the flat stack is lane b's term of relay q
    flat = padded.reshape((-1,) + terms.shape[2:])
    rows = sets + _col(np.arange(B) * (Q + 1), sets.ndim)
    total = np.zeros(sets.shape[:-1] + terms.shape[2:], dtype=terms.dtype)
    for members in flat.take(rows.transpose(-1, *range(sets.ndim - 1)), axis=0):
        total += members
    return total


def _peek(state: PolicyState) -> Records:
    """The record each relay would replay as jamming now."""
    return state.buffers.take(*state.buffers.peek_jamming())


# ---------------------------------------------------------------------------
# metric primitives


def _summed_gram(H: np.ndarray) -> np.ndarray:
    """Grams of a (B, Q, N, ...) stack summed over its N eavesdroppers."""
    return gram(H).sum(axis=2)


def initial_ranking(realization) -> np.ndarray:
    """Relay indices of each lane in rank order, (B, Q): descending real
    det(H_q H_q^H) of the source links, ties by ascending index."""
    dets = np.linalg.det(realization.per_lane("su_stack", of=gram)).real
    return np.argsort(-dets, axis=1, kind="stable")


def _factors(lanes: Lanes, replays: Records) -> np.ndarray:
    """(B, Q, N_i, N_i) stored-signal factors of every relay's replay (of a
    zero snapshot where it has none)."""
    return rates.stored_signal_factor(
        replays.snapshot, _col(lanes.snr_tx, 4), lanes.config.N_t)


def _eav_interference(realization, lanes: Lanes, jammers: np.ndarray,
                      factors: np.ndarray) -> np.ndarray:
    """(B, ..., N_e, N_e) jamming covariance at the eavesdroppers of each
    relay set of ``jammers`` (B, ..., X), whose members replay records with
    stored-signal ``factors``: the :func:`_set_sum` of their jamming terms.
    Only the lanes with a member compute terms."""
    config = lanes.config
    Delta = np.zeros(jammers.shape[:-1] + (config.N_e, config.N_e), dtype=complex)
    at = np.flatnonzero((jammers < config.Q).reshape(len(jammers), -1).any(axis=1))
    if len(at):
        grams = realization.index_lanes(at).per_lane("re_stack", of=_summed_gram)
        terms = rates.relay_terms(grams, factors[at], _col(lanes.snr_rel[at], 4),
                                  config.N_k)
        Delta[at] = _set_sum(terms, jammers[at])
    return Delta


def _slot_rates(realization, lanes: Lanes, transmitters: np.ndarray,
                factors: np.ndarray, Delta: np.ndarray) -> tuple:
    """User rates (B, ..., T), eavesdropper rates (B, ..., N), secrecy rates
    (B, ...) and clamp counts (B,) when the relay sets of ``transmitters``
    (B, ..., X) replay records with stored-signal ``factors`` to the users
    (the :func:`_set_sum` of their terms; user-side entry t is user t mod M)
    and the eavesdroppers' jamming covariances are ``Delta``."""
    config = lanes.config
    users = [t % config.M for t in range(config.T)]
    grams = realization.per_lane("ru_stack", of=gram)[:, :, users]
    terms = rates.relay_terms(grams, factors[:, :, None], _col(lanes.snr_rel, 5),
                              config.N_k)
    user_gammas = _set_sum(terms, transmitters)
    se = realization.per_lane("se_stack", of=gram)
    G_e = se.reshape(se.shape[:1] + (1,) * (Delta.ndim - 3) + se.shape[1:])
    eav_gammas = rates.eav_sinr(G_e, Delta, _col(lanes.snr_tx, G_e.ndim),
                                config.N_t)
    user_rates, user_clamped = rates.clamped_logdet_rate_stack(
        user_gammas, config.log_base)
    eav_rates, eav_clamped = rates.clamped_logdet_rate_stack(
        eav_gammas, config.log_base)
    lanes_n = len(user_rates)
    clamps = (user_clamped.reshape(lanes_n, -1).sum(axis=1)
              + eav_clamped.reshape(lanes_n, -1).sum(axis=1))
    return (user_rates, eav_rates, rates.secrecy_rate(user_rates, eav_rates),
            clamps)


# ---------------------------------------------------------------------------
# receive-side and jam-side selection


def select_receiving_relays(state: PolicyState, realization, lanes: Lanes,
                            jammers: np.ndarray) -> tuple:
    """Pick each lane's T receivers among the relays not jamming this slot.

    Candidates are ranked by logdet(I + Gamma_m), where
    Gamma_m = (I + D_m)^{-1} H_m H_m^H and D_m sums the inter-relay
    interference of the jammers' replays at candidate m; ties break by
    ascending id.  Returns the (B, Q) receiver mask and the (B, Q) metric
    (meaningless off the pool), or None for the metric when every lane's
    pool is exactly T (forced set).
    """
    config = lanes.config
    pool = ~jammers
    size = pool.sum(axis=1)
    if (size < config.T).any():
        raise ConfigError(
            f"receive pool has {int(size.min())} relays but T={config.T}")
    if (size == config.T).all():
        return pool, None

    senders, real = _members(jammers)
    lane = np.arange(len(senders))[:, None]
    # zero for silent jammers and for padding
    snaps = np.where(real[..., None, None], _peek(state).snapshot[lane, senders], 0)
    # (B, K, Q, N_i, N_k)
    H_km = realization.rr_block(senders[:, :, None], np.arange(config.Q)[None, None])
    D_m = np.einsum("xkcab,xkbd,xkced->xcae", H_km, gram(snaps), H_km.conj())
    if config.selection_noise_floor:
        D_m = D_m + _col(config.N_i * lanes.sigma2, 4) * np.eye(config.N_i)
    gammas = np.linalg.solve(np.eye(config.N_i) + D_m,
                             realization.per_lane("su_stack", of=gram))
    metrics = rates.logdet_identity_plus_stack(gammas, config.log_base)
    return _top(metrics, config.T, allowed=pool), metrics


def select_jamming_relays(state: PolicyState, realization, lanes: Lanes,
                          Delta: np.ndarray | None = None) -> tuple:
    """Pick each lane's K relays that will jam (and serve the users) next
    slot, through the relay->user channels H_nr (B, Q, M, N_r, N_k) and
    relay->eavesdropper channels H_ne (B, Q, N, N_e, N_k) of ``realization``.

    Every relay is a candidate; disjointness from the receivers is restored
    when the next slot's receive pool excludes the picked set.  A candidate n
    is scored with its own replayable snapshot: delivered-signal matrix
    Gamma_n = sum_r H_nr Hs Hs^H H_nr^H against its eavesdropper-side leak
    (I + Delta)^{-1} (P/N_k) sum_e H_ne Hs Hs^H H_ne^H, where Delta is the
    (B, N_e, N_e) interference floor of the current jammers (none by
    default; see :func:`_eav_interference`).  Relays with empty buffers rank
    last (metric 0); ties break by ascending id.  Returns the (B, Q) mask and
    the (B, Q) metric.
    """
    config = lanes.config
    if config.K == 0:
        shape = state.buffers.valid.shape[:2]
        return np.zeros(shape, dtype=bool), np.zeros(shape)
    own = _peek(state)
    H_nr, H_ne = realization.per_lane("ru_stack"), realization.per_lane("re_stack")
    if Delta is None:
        Delta = np.zeros((len(own.found), config.N_e, config.N_e), dtype=complex)
    snap_grams = gram(own.snapshot)                  # zero for empty buffers
    gamma_n = np.einsum("xcuab,xcbd,xcued->xcae", H_nr, snap_grams, H_nr.conj())
    leak = _col(lanes.snr_rel / config.N_k, 4) * np.einsum(
        "xceab,xcbd,xcefd->xcaf", H_ne, snap_grams, H_ne.conj())
    gamma_e = np.linalg.solve(rates._eye(config.N_e) + Delta[:, None], leak)
    # N_e == N_r whenever K > 0, so both metrics share one log-det call
    ld_n, ld_e = rates.logdet_identity_plus_stack(
        np.stack([gamma_n, gamma_e]), config.log_base)
    # degenerate determinants rank the candidate last, not crash a trial
    with np.errstate(invalid="ignore"):
        scores = np.where(np.isfinite(ld_n) & np.isfinite(ld_e), ld_n - ld_e,
                          -np.inf)
    metrics = np.where(own.found, scores, 0.0)
    order = np.lexsort((-metrics, ~own.found), axis=1)
    return _mask(order[:, :config.K], config.Q), metrics


# ---------------------------------------------------------------------------
# shared slot machinery


def _resolve_replays(state: PolicyState, transmitters: np.ndarray,
                     config: SystemConfig, jamming: np.ndarray) -> Records:
    """Pick the record each transmitter sends this slot.

    In the ``jamming`` (B,) lanes, those of the joint policies, transmitters
    replay via peek (reusable jamming signal) unless ``consume_on_jam``; in
    the others, those of the conventional baselines, they deliver and
    consume their oldest forward-class record.
    """
    bank = state.buffers
    cell, found = bank.peek_jamming()
    found = found & transmitters & jamming[:, None]
    if config.consume_on_jam:
        bank.remove(found, cell)
    if not jamming.all():
        forwarding = transmitters & ~jamming[:, None]
        popped, delivered = bank.pop_forward(forwarding)
        cell, found = np.where(forwarding, popped, cell), found | delivered
    state.diag.silent_transmitters += (transmitters & ~found).sum(axis=1)
    return bank.take(cell, found)


def _receive_and_store(state: PolicyState, realization, lanes: Lanes,
                       receivers: np.ndarray, replays: Records) -> np.ndarray:
    """Compute each receiver's reception SINR, with per-pair IRI cancellation
    where feasible, classify it, and push the record; returns the (B, Q)
    SINRs (0 off the receivers)."""
    config = lanes.config
    if np.isnan(lanes.threshold).any():
        raise ConfigError(
            "sinr_threshold is unresolved (None); set a value or run through "
            "monte_carlo, which calibrates it per sweep cell")
    rx, rx_real = _members(receivers)
    tx, tx_real = _members(replays.found)
    lane = np.arange(len(rx))[:, None]
    H_rx = realization.per_lane("su_stack", rx)               # (B, R, N_i, N_t)
    gamma_S = _col(lanes.p_tx / config.N_t, 2) * np.einsum(
        "xrab,xrab->xr", H_rx, H_rx.conj()).real
    H_ki = realization.rr_block(tx[:, :, None], rx[:, None, :])  # (B, A, R, ...)
    prod = np.einsum("xkrab,xkbc->xkrac", H_ki, replays.snapshot[lane, tx])
    powers = _col(lanes.p_rel / config.N_k, 3) * np.einsum(
        "xkrab,xkrab->xkr", prod, prod.conj()).real
    phi = 1
    if config.iri_cancellation and tx.shape[1]:
        feasible = iri_feasible(realization.per_lane("su_stack", rx, gram)[:, None],
                                gram(H_ki), _col(lanes.snr_tx, 5),
                                _col(lanes.snr_rel, 5), config.N_t,
                                config.N_k, config.gamma0)
        tested = tx_real[:, :, None] & rx_real[:, None, :]
        state.diag.phi_tests += tested.sum(axis=(1, 2))
        state.diag.phi_feasible += (feasible & tested).sum(axis=(1, 2))
        phi = ~feasible
    sinrs = reception_sinr(gamma_S, powers, phi, config.N_i, _col(lanes.sigma2, 2))
    at_lane, at_relay = np.nonzero(receivers)      # the order of [rx_real]
    received = sinrs[rx_real]
    threshold = lanes.threshold.tolist()
    forward = [classify_signal(sinr, threshold[b]) is SignalClass.FORWARD
               for b, sinr in zip(at_lane.tolist(), received.tolist())]
    state.buffers.push(receivers, H_rx[rx_real], received, realization.slot,
                       forward)
    stored = np.zeros(receivers.shape)
    stored[at_lane, at_relay] = received
    return stored


def _serve(state: PolicyState, realization, lanes: Lanes, receivers: np.ndarray,
           transmitters: np.ndarray, jamming: np.ndarray) -> LaneOutcome:
    """Serve one slot's roles in every lane: the transmitters replay from
    their buffers (in the ``jamming`` (B,) lanes a peeked record that also
    jams the eavesdroppers, elsewhere a consumed forward-class record), then
    the receivers classify and store what they hear.  The outcome becomes
    the state's last slot."""
    state.last_slot = None      # only the picks read it, so free it first
    replays = _resolve_replays(state, transmitters, lanes.config, jamming)
    sinr = _receive_and_store(state, realization, lanes, receivers, replays)
    outcome = LaneOutcome(
        receivers=receivers, transmitters=transmitters,
        jammers=transmitters & jamming[:, None], replays=replays, sinr=sinr,
        realization=realization, lanes=lanes)
    state.last_slot = outcome
    return outcome


def lane_rates(outcome: LaneOutcome) -> tuple:
    """Per-slot achievable rates of each lane's served roles: the users hear
    the transmitters' replays, the eavesdroppers the source against the
    outcome's jamming covariance ``delta``.  Returns user rates (B, T),
    eavesdropper rates (B, N), secrecy rates (B,) and clamp counts (B,)."""
    serving = _sets(outcome.replays.found & outcome.transmitters)
    return _slot_rates(outcome.realization, outcome.lanes, serving,
                       outcome.factors, outcome.delta)


def slot_rate_report(realization, config: SystemConfig, replays: dict,
                     jammers: tuple, transmitters: tuple) -> tuple:
    """One-lane view of :func:`lane_rates`: ``replays`` maps relay ids to
    the BufferedSignal each replays.  Returns (RateReport, clamp count)."""
    found = np.zeros((1, config.Q), dtype=bool)
    snapshot = np.zeros((1, config.Q, config.N_i, config.N_t), dtype=complex)
    for q, record in replays.items():
        found[0, q - 1] = True
        snapshot[0, q - 1] = record.snapshot
    zeros = np.zeros(found.shape)
    records = Records(found=found, snapshot=snapshot, sinr=zeros, slot=zeros,
                      forward=np.zeros_like(found))
    realization, lanes = realization.index_lanes(None), Lanes.of([config])
    outcome = LaneOutcome(
        receivers=np.zeros_like(found),
        transmitters=_ids_mask(transmitters, config.Q),
        jammers=_ids_mask(jammers, config.Q), replays=records, sinr=zeros,
        realization=realization, lanes=lanes)
    user, eav, secrecy, clamps = lane_rates(outcome)
    report = rates.RateReport(user_rates=tuple(user[0].tolist()),
                              eav_rates=tuple(eav[0].tolist()),
                              secrecy_rate=float(secrecy[0]))
    return report, int(clamps[0])


def _ids_mask(ids, Q: int) -> np.ndarray:
    return _mask(np.array(ids, dtype=np.intp).reshape(1, -1) - 1, Q)


# ---------------------------------------------------------------------------
# policies: each takes (state, lane realization, Lanes, per-lane rngs or None)
# of its lane range and returns (receivers, transmitters, objective or None);
# only the one-lane view reads the oracle's objective


def _bf_rjfs(state: PolicyState, realization, lanes: Lanes, rngs=None) -> tuple:
    """One slot of the joint receive/jam function selection.

    Slot 0 seeds the jammer set from the source-channel determinant ranking
    (best first unless ``worst_sinr_seeding``); afterwards the jammers are
    chosen with the jam-side metric on the last served slot's channels
    against the jamming covariance its outcome carries (both read at the
    state's lanes ``at``), and against the buffers as that slot left them.
    Receivers are selected from the remaining pool.
    """
    config = lanes.config
    if state.last_slot is not None:
        served, at = state.last_slot, state.at
        jammers, _ = select_jamming_relays(state, served.realization.index_lanes(at),
                                           lanes, served.delta[at])
    elif realization.slot == 0:
        ranking = initial_ranking(realization)
        picked = (ranking[:, config.Q - config.K:] if config.worst_sinr_seeding
                  else ranking[:, :config.K])
        jammers = _mask(picked, config.Q)
    else:
        jammers, _ = select_jamming_relays(state, realization, lanes)

    receivers, _ = select_receiving_relays(state, realization, lanes, jammers)
    return receivers, jammers, None


def _conventional_bf(state: PolicyState, realization, lanes: Lanes,
                     rngs=None) -> tuple:
    """Buffer-aided forwarding without jamming: the T strongest source links
    receive; of the rest, the T relays with the strongest aggregate
    relay-to-user channels deliver a stored forward-class record."""
    T = lanes.config.T
    receivers = _top(realization.per_lane("su_stack", of=source_link_power), T)
    tx_vals = realization.per_lane("ru_stack", of=source_link_power).sum(axis=2)
    transmitters = _top(tx_vals, T, allowed=~receivers)
    return receivers, transmitters, None


def _max_link(state: PolicyState, realization, lanes: Lanes,
              rngs=None) -> tuple:
    """Strongest-link scheduling: merge all source->relay links (non-full
    buffers preferred) and relay->user links (non-empty buffers only), then
    greedily fill T receive and up to T transmit roles in descending link
    strength, one role per relay."""
    config = lanes.config
    rx_vals = realization.per_lane("su_stack", of=source_link_power).tolist()
    tx_vals = realization.per_lane("ru_stack", of=source_link_power).max(axis=2)
    tx_vals = tx_vals.tolist()
    occupancy = state.buffers.occupancy().tolist()
    receivers = np.zeros((len(rx_vals), config.Q), dtype=bool)
    transmitters = np.zeros_like(receivers)
    for b, held in enumerate(occupancy):
        links = []
        for q in range(config.Q):
            eligible = 0 if held[q] >= config.buffer_capacity else 1
            links.append((eligible, rx_vals[b][q], "rx", q))
            if held[q] > 0:
                links.append((1, tx_vals[b][q], "tx", q))
        links.sort(key=lambda item: (-item[0], -item[1], item[3], item[2]))
        n_rx = n_tx = 0
        for _, power, kind, q in links:
            if receivers[b, q] or transmitters[b, q]:
                continue
            if kind == "rx" and n_rx < config.T:
                receivers[b, q] = True
                n_rx += 1
            elif kind == "tx" and n_tx < config.T:
                transmitters[b, q] = True
                n_tx += 1
    return receivers, transmitters, None


def _max_ratio(state: PolicyState, realization, lanes: Lanes,
               rngs=None) -> tuple:
    """Rank relays by legitimate-power-to-eavesdropper-leakage ratio; the top
    T receive, and of the rest the top T by the transmit-side analogue of the
    same ratio deliver."""
    config = lanes.config
    # a relay with nothing to replay has a zero snapshot: it leaks and
    # delivers exactly nothing
    snaps = _peek(state).snapshot[:, :, None]
    leak = relayed_link_power(realization.per_lane("re_stack"), snaps).sum(axis=2)
    delivered = relayed_link_power(realization.per_lane("ru_stack"),
                                   snaps).sum(axis=2)
    floor = _col(config.N_e * lanes.sigma2, 2)
    rx_power = realization.per_lane("su_stack", of=source_link_power)
    receivers = _top(rx_power / (leak + floor), config.T)
    transmitters = _top(delivered / (leak + floor), config.T, allowed=~receivers)
    return receivers, transmitters, None


def _random(state: PolicyState, realization, lanes: Lanes, rngs) -> tuple:
    """Uniformly random disjoint receive and jam sets (lower baseline): one
    permutation of the relays per lane, from that lane's rng; lanes handed
    the same rng share one draw."""
    if rngs is None or any(rng is None for rng in rngs):
        raise ValueError("the random policy needs an rng substream")
    config = lanes.config
    drawn = {rng: rng.permutation(config.Q) for rng in dict.fromkeys(rngs)}
    perms = np.stack([drawn[rng] for rng in rngs])
    return (_mask(perms[:, :config.T], config.Q),
            _mask(perms[:, config.T:config.T + config.K], config.Q), None)


_ORACLE_GUARD = 100_000


@functools.lru_cache(maxsize=4)
def _oracle_sets(Q: int, T: int, K: int) -> tuple:
    """The C(Q, K) jam sets in ``itertools.combinations`` order as (S, K)
    relay indices and (S, Q) masks, the (S, Q) mask of the first receive set
    in combinations order that is disjoint from each, and the rank of that
    receive set in combinations order among the S of them."""
    count = math.comb(Q, K)
    if count > _ORACLE_GUARD:
        raise ConfigError(
            f"oracle would score {count} jam sets (> {_ORACLE_GUARD})")
    jam = np.array(list(itertools.combinations(range(Q), K)),
                   dtype=np.intp).reshape(count, K)
    jam_mask = _mask(jam, Q)
    receive = np.argsort(jam_mask, axis=1, kind="stable")[:, :T]
    rank = np.empty(count, dtype=np.intp)
    rank[np.lexsort(receive.T[::-1])] = np.arange(count)
    sets = (jam, jam_mask, _mask(receive, Q), rank)
    for array in sets:
        array.flags.writeable = False     # shared by every caller
    return sets


def _jam_set_scores(realization, lanes: Lanes, replays: Records,
                    jam_sets: np.ndarray) -> np.ndarray:
    """(B, S) slot secrecy rate of each row of ``jam_sets`` ((S, K) relay
    indices, ascending) as the jamming and transmitting set, each member
    replaying its record in ``replays`` (silent when it has none).

    The factors are computed once for every set, whose sums and rates are
    those of :func:`lane_rates` for that set: a silent member adds an exact
    zero, so sets with the same replaying members score bit-identically.
    """
    factors = _factors(lanes, replays)
    sets = np.where(replays.found[:, jam_sets], jam_sets, lanes.config.Q)
    Delta = _eav_interference(realization, lanes, sets, factors)
    return _slot_rates(realization, lanes, sets, factors, Delta)[2]


def _oracle(state: PolicyState, realization, lanes: Lanes, rngs=None) -> tuple:
    """Take the disjoint (receive, jam) assignment with the highest slot
    secrecy rate under the current buffers.

    That rate does not depend on the receive set, so the search scores each
    of the C(Q, K) jam sets once, in one batch.  Ties go to the first receive
    set in ``itertools.combinations`` order that is disjoint from a
    max-scoring jam set, then to the first such jam set in the same order:
    the first best assignment of a receive-major enumeration.  The objective
    is that set's batch score, which :func:`_jam_set_scores` computes with
    the same set sums as :func:`lane_rates` of the chosen assignment.

    Refuses to run when C(Q, K) exceeds 100000.
    """
    config = lanes.config
    jam, jam_mask, receive_mask, rank = _oracle_sets(config.Q, config.T, config.K)
    scores = _jam_set_scores(realization, lanes, _peek(state), jam)
    top = scores.max(axis=1)
    best = scores == top[:, None]
    # the first receive set disjoint from a best set is the first of the
    # best sets' own first disjoint receive sets
    receivers = receive_mask[np.where(best, rank, len(rank)).argmin(axis=1)]
    clear = ~(receivers @ jam_mask.T)
    jammers = jam_mask[np.argmax(best & clear, axis=1)]
    return receivers, jammers, top


LANE_STEPS = {
    "bf-rjfs": _bf_rjfs,
    "conventional-bf": _conventional_bf,
    "max-link": _max_link,
    "max-ratio": _max_ratio,
    "random": _random,
    "oracle": _oracle,
}
# the policies whose transmitters replay by peek and jam; the others deliver
# forward-class records
JAMMING_POLICIES = frozenset({"bf-rjfs", "random", "oracle"})


def _one_lane(name: str):
    step, jamming = LANE_STEPS[name], np.array([name in JAMMING_POLICIES])

    def one_lane(state: PolicyState, realization, config: SystemConfig, rng=None):
        realization, lanes = realization.index_lanes(None), Lanes.of([config])
        receivers, transmitters, best = step(state, realization, lanes, [rng])
        outcome = _serve(state, realization, lanes, receivers, transmitters,
                         jamming)
        return outcome.view(0, None if best is None else float(best[0])), state

    one_lane.__doc__ = (
        "One-lane view, on a realization without lane axis, one config and "
        "its rng (None unless the policy draws), returning (SelectionOutcome, "
        "state), of a step that picks, then serves:\n\n    " + step.__doc__)
    return one_lane


POLICIES = {name: _one_lane(name) for name in LANE_STEPS}
bf_rjfs_step = POLICIES["bf-rjfs"]
policy_conventional_bf = POLICIES["conventional-bf"]
policy_max_link = POLICIES["max-link"]
policy_max_ratio = POLICIES["max-ratio"]
policy_random = POLICIES["random"]
exhaustive_oracle = POLICIES["oracle"]
