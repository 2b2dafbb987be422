import itertools
import math

import numpy as np
import pytest

from relaysec.buffers import BufferedSignal, SignalClass
from relaysec.channel import (STREAM_CHANNEL, NetworkRealization,
                              gen_network_realization, gram, received_power,
                              substream)
from relaysec.config import SystemConfig, power_split
from relaysec.errors import ConfigError
from relaysec.rates import logdet_identity_plus
from relaysec.buffers import Records
from relaysec.selection import (POLICIES, Lanes, _eav_interference, _factors,
                                _jam_set_scores, _peek, _set_sum, _sets,
                                _summed_gram, fresh_state, initial_ranking,
                                select_jamming_relays,
                                select_receiving_relays, slot_rate_report)

from conftest import (buffer_records, cn_matrix, make_instance, peek_all,
                      realization_from_arrays, rr_map, small_config)
from conftest import stock as push_record
from reference import (eav_sinr_matrix, max_ratio_roles, secrecy_rate,
                       user_sinr_matrix)
from views import pair_feasible, pair_sinr, rate


def stock(state, relay_id, snapshot, sinr=5.0, slot=0,
          signal_class=SignalClass.JAM):
    push_record(state, relay_id, BufferedSignal(
        snapshot=snapshot, sinr_at_reception=sinr, slot=slot,
        signal_class=signal_class))


def id_mask(ids, Q):
    """(1, Q) role mask of a tuple of relay ids."""
    mask = np.zeros((1, Q), dtype=bool)
    mask[0, [q - 1 for q in ids]] = True
    return mask


def mask_ids(mask):
    return tuple((np.flatnonzero(mask[0]) + 1).tolist())


def ranking(real):
    return (initial_ranking(real)[0] + 1).tolist()


def select_receivers(state, real, config, jammers):
    """(receiver ids, {pool relay id: metric}, empty when forced)."""
    chosen, metrics = select_receiving_relays(
        state, real, Lanes.of([config]), id_mask(jammers, config.Q))
    pool = [q for q in range(1, config.Q + 1) if q not in jammers]
    return mask_ids(chosen), ({} if metrics is None
                              else {q: float(metrics[0, q - 1]) for q in pool})


def select_jammers(state, real, config, current_jammers=()):
    """(jammer ids, {relay id: metric}); the current jammers replay their
    peeks."""
    lanes = Lanes.of([config])
    peeks = _peek(state)
    Delta = _eav_interference(real, lanes,
                              _sets(peeks.found & id_mask(current_jammers, config.Q)),
                              _factors(lanes, peeks))
    chosen, metrics = select_jamming_relays(state, real, lanes, Delta)
    return mask_ids(chosen), {q + 1: float(m) for q, m in enumerate(metrics[0])}


def jam_set_scores(real, config, replays, jam_sets):
    """Scores of jam sets (rows of relay ids) with ``replays`` ({relay id:
    record}) as the one lane's replays."""
    found = np.zeros((1, config.Q), dtype=bool)
    snapshot = np.zeros((1, config.Q, config.N_i, config.N_t), dtype=complex)
    for q, rec in replays.items():
        found[0, q - 1] = True
        snapshot[0, q - 1] = rec.snapshot
    zeros = np.zeros(found.shape)
    records = Records(found=found, snapshot=snapshot, sinr=zeros, slot=zeros,
                      forward=np.zeros_like(found))
    return _jam_set_scores(real, Lanes.of([config]), records,
                           np.asarray(jam_sets, dtype=int).reshape(len(jam_sets), -1) - 1)[0]


def served_rate(real, config, outcome):
    """Secrecy rate of a one-lane step's served roles and replays."""
    report, _ = slot_rate_report(real, config, outcome.replays,
                                 outcome.jamming_relays,
                                 outcome.transmitting_relays)
    return report.secrecy_rate


def run_steps(config, policy, n_slots, trial=0):
    step = POLICIES[policy]
    state = fresh_state(config)
    outcomes = []
    for slot in range(n_slots):
        real = gen_network_realization(
            config, slot, [substream(config.seed, STREAM_CHANNEL, trial, slot)])
        rng = substream(config.seed, 1, trial, slot) if policy == "random" else None
        outcome, state = step(state, real, config, rng)
        outcomes.append(outcome)
    return outcomes


# ---------------------------------------------------------------------------
# initial ranking


def test_initial_ranking_analytic():
    config = small_config(Q=2, T=1, K=1)
    rng = np.random.default_rng(0)
    su = np.stack([np.eye(2), 0.5 * np.eye(2)]).astype(complex)
    real = realization_from_arrays(
        config, 0, su, cn_matrix(rng, 2, 2)[None].repeat(2, 0),
        {(1, 2): cn_matrix(rng, 2, 2), (2, 1): cn_matrix(rng, 2, 2)},
        np.zeros((2, 2, 2, 2)), np.zeros((2, 2, 2, 2)))
    assert ranking(real) == [1, 2]


def test_initial_ranking_tie_break():
    config = small_config()
    rng = np.random.default_rng(1)
    H = cn_matrix(rng, 2, 2)
    su = np.stack([H] * 4)
    rr = {(k, i): cn_matrix(rng, 2, 2) for k in range(1, 5)
          for i in range(1, 5) if k != i}
    real = realization_from_arrays(config, 0, su, np.zeros((2, 2, 2)), rr,
                                   np.zeros((4, 2, 2, 2)), np.zeros((4, 2, 2, 2)))
    assert ranking(real) == [1, 2, 3, 4]


def test_initial_ranking_matches_brute_force(rng):
    config = small_config()
    real = gen_network_realization(config, 0, [substream(3, 0, 0, 0)])
    dets = {q: np.linalg.det(H @ H.conj().T).real
            for q, H in enumerate(real.su_stack[0], start=1)}
    expected = sorted(dets, key=lambda q: (-dets[q], q))
    assert ranking(real) == expected


# ---------------------------------------------------------------------------
# receive-side selection


def test_receiving_forced_when_pool_equals_T():
    config = small_config()
    state, real = make_instance(config, seed=0)
    chosen, metrics = select_receivers(state, real, config, jammers=(2, 4))
    assert chosen == (1, 3)
    assert metrics == {}


def test_receiving_pool_too_small():
    config = small_config()
    state, real = make_instance(config, seed=0)
    with pytest.raises(ConfigError):
        select_receivers(state, real, config, jammers=(1, 2, 4))


def test_receiving_dominant_candidate_wins():
    config = small_config(K=1)
    rng = np.random.default_rng(7)
    H = cn_matrix(rng, 2, 2)
    su = np.stack([H, 10.0 * H, H, H])
    rr = {(k, i): cn_matrix(rng, 2, 2) for k in range(1, 5)
          for i in range(1, 5) if k != i}
    real = realization_from_arrays(
        config, 0, su, np.stack([cn_matrix(rng, 2, 2) for _ in range(2)]), rr,
        np.stack([np.stack([cn_matrix(rng, 2, 2) for _ in range(2)]) for _ in range(4)]),
        np.stack([np.stack([cn_matrix(rng, 2, 2) for _ in range(2)]) for _ in range(4)]))
    state = fresh_state(config)
    chosen, metrics = select_receivers(state, real, config, jammers=(4,))
    assert 2 in chosen
    assert metrics[2] == max(metrics.values())


def test_receiving_all_identical_tie_break():
    config = small_config(K=1)
    rng = np.random.default_rng(8)
    H = cn_matrix(rng, 2, 2)
    G = cn_matrix(rng, 2, 2)
    rr = {(k, i): G for k in range(1, 5) for i in range(1, 5) if k != i}
    real = realization_from_arrays(
        config, 0, np.stack([H] * 4),
        np.stack([cn_matrix(rng, 2, 2) for _ in range(2)]), rr,
        np.zeros((4, 2, 2, 2)), np.zeros((4, 2, 2, 2)))
    state = fresh_state(config)
    chosen, _ = select_receivers(state, real, config, jammers=(4,))
    assert chosen == (1, 2)


# ---------------------------------------------------------------------------
# jam-side selection


def test_jamming_prefers_helpful_nonleaky_candidate():
    config = small_config(K=1)
    rng = np.random.default_rng(9)
    strong = 2.0 * np.eye(2, dtype=complex)
    ru = np.zeros((4, 2, 2, 2), dtype=complex)
    re = np.zeros((4, 2, 2, 2), dtype=complex)
    ru[0] = strong          # relay 1 reaches the users, silent to eavesdroppers
    re[1] = strong          # relay 2 leaks to eavesdroppers, useless to users
    rr = {(k, i): cn_matrix(rng, 2, 2) for k in range(1, 5)
          for i in range(1, 5) if k != i}
    real = realization_from_arrays(
        config, 5, np.stack([cn_matrix(rng, 2, 2) for _ in range(4)]),
        np.stack([cn_matrix(rng, 2, 2) for _ in range(2)]), rr, re, ru)
    state = fresh_state(config)
    snap = np.eye(2, dtype=complex)
    stock(state, 1, snap)
    stock(state, 2, snap)
    chosen, metrics = select_jammers(state, real, config)
    assert chosen == (1,)
    assert metrics[1] > 0 > metrics[2]


def test_jamming_empty_buffers_rank_last_and_break_ties_by_id():
    config = small_config()
    _, real = make_instance(config, seed=3)
    state = fresh_state(config)
    chosen, metrics = select_jammers(state, real, config)
    assert chosen == (1, 2)
    assert all(v == 0.0 for v in metrics.values())


def test_jamming_k_zero():
    config = small_config(K=0)
    state, real = make_instance(config, seed=3)
    chosen, metrics = select_jammers(state, real, config)
    assert chosen == () and set(metrics.values()) == {0.0}


def test_jamming_metrics_match_literal_formulas():
    config = small_config(Q=5, T=2, K=2)
    state, real = make_instance(config, seed=11)
    current = (1, 2)
    chosen, metrics = select_jammers(state, real, config, current_jammers=current)
    peeked = peek_all(state)
    p_tx, p_rel = power_split(config)
    p_tx_e, p_rel_e = p_tx / config.sigma2, p_rel / config.sigma2

    delta = np.zeros((2, 2), dtype=complex)
    for k in current:
        rec = peeked.get(k)
        if rec is None:
            continue
        inner = np.eye(2) + (p_tx_e / config.N_t) * (rec.snapshot @ rec.snapshot.conj().T)
        for e in range(config.N):
            H_ke = real.re_stack[0, k - 1][e]
            delta += (p_rel_e / config.N_k) * (H_ke @ H_ke.conj().T) @ inner

    for n in range(1, config.Q + 1):
        rec = peeked.get(n)
        if rec is None:
            assert metrics[n] == 0.0
            continue
        S = rec.snapshot @ rec.snapshot.conj().T
        H_nu, H_ne = real.ru_stack[0, n - 1], real.re_stack[0, n - 1]
        gamma_n = sum(H_nu[u] @ S @ H_nu[u].conj().T for u in range(config.M))
        leak = sum(H_ne[e] @ S @ H_ne[e].conj().T for e in range(config.N))
        gamma_e = np.linalg.solve(np.eye(2) + delta, (p_rel_e / config.N_k) * leak)
        expected = (logdet_identity_plus(gamma_n)
                    - logdet_identity_plus(gamma_e))
        assert metrics[n] == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_per_draw_products_equal_per_lane_products():
    # the engine computes each channel-only product once per draw and reads
    # it by lane; on lanes that repeat draws, that must give the bits of the
    # same product of a per-lane copy of the draws
    config = small_config(M=3, N=3)
    rows = [2, 0, 2, 1, 0, 2]
    real = gen_network_realization(
        config, 0, [substream(7, 0, t, 0) for t in range(3)]).index_lanes(rows)
    names = ("su_stack", "se_stack", "rr_stack", "re_stack", "ru_stack")
    copy = NetworkRealization(slot=0, Q=config.Q, rows=np.arange(len(rows)),
                              **{name: getattr(real, name)[rows] for name in names})
    for name, of in (("su_stack", gram), ("se_stack", gram), ("ru_stack", gram),
                     ("re_stack", _summed_gram), ("su_stack", received_power),
                     ("ru_stack", received_power)):
        want = of(getattr(copy, name))
        assert real.per_lane(name, of=of).tobytes() == want.tobytes()
        assert copy.per_lane(name, of=of).tobytes() == want.tobytes()
    # the user-side Grams of user t mod M, and the source Grams of each
    # lane's receivers as the reception step reads them
    users = [0, 1, 2, 0]
    assert (real.per_lane("ru_stack", of=gram)[:, :, users].tobytes()
            == gram(copy.ru_stack[:, :, users]).tobytes())
    rx = np.array([[0, 3], [1, 2], [2, 3], [0, 1], [3, 0], [1, 3]])
    lane = np.arange(len(rows))[:, None]
    assert (real.per_lane("su_stack", rx, gram).tobytes()
            == gram(copy.su_stack[lane, rx]).tobytes())
    assert (real.per_lane("su_stack", rx).tobytes()
            == copy.su_stack[lane, rx].tobytes())


# ---------------------------------------------------------------------------
# joint policy step


def test_bf_rjfs_slot0_seeds_best_ranking():
    config = small_config()
    real = gen_network_realization(config, 0, [substream(4, 0, 0, 0)])
    state = fresh_state(config)
    outcome, new_state = POLICIES["bf-rjfs"](state, real, config)
    ranks = ranking(real)
    assert outcome.jamming_relays == tuple(sorted(ranks[:2]))
    assert outcome.transmitting_relays == outcome.jamming_relays
    assert outcome.receiving_relays == tuple(sorted(ranks[2:]))
    # the next slot picks its jammers on this slot's channels and served
    # outcome: its jammers, and their replays (none yet: the buffers started
    # empty)
    served = new_state.last_slot
    np.testing.assert_array_equal(served.realization.per_lane("ru_stack")[0],
                                  real.ru_stack[0])
    np.testing.assert_array_equal(served.realization.per_lane("re_stack")[0],
                                  real.re_stack[0])
    assert mask_ids(served.jammers) == outcome.jamming_relays
    assert not served.replays.found.any()


def test_bf_rjfs_slot0_worst_seeding_flag():
    config = small_config(worst_sinr_seeding=True)
    real = gen_network_realization(config, 0, [substream(4, 0, 0, 0)])
    outcome, _ = POLICIES["bf-rjfs"](fresh_state(config), real, config)
    assert outcome.jamming_relays == tuple(sorted(ranking(real)[-2:]))


def test_bf_rjfs_step_deterministic():
    config = small_config()
    real = gen_network_realization(config, 5, [substream(4, 0, 0, 5)])
    s1, _ = make_instance(config, seed=5), None
    out1, _ = POLICIES["bf-rjfs"](s1[0], real, config)
    s2, _ = make_instance(config, seed=5), None
    out2, _ = POLICIES["bf-rjfs"](s2[0], real, config)
    assert out1.receiving_relays == out2.receiving_relays
    assert out1.jamming_relays == out2.jamming_relays


def test_bf_rjfs_receivers_push_records():
    config = small_config()
    real = gen_network_realization(config, 0, [substream(4, 0, 0, 0)])
    state = fresh_state(config)
    outcome, new_state = POLICIES["bf-rjfs"](state, real, config)
    for q in outcome.receiving_relays:
        assert len(buffer_records(new_state, q)) == 1
        assert buffer_records(new_state, q)[0].slot == 0
    for q in outcome.jamming_relays:
        assert len(buffer_records(new_state, q)) == 0


def test_bf_rjfs_requires_resolved_threshold():
    config = small_config(sinr_threshold=None)
    real = gen_network_realization(config, 0, [substream(4, 0, 0, 0)])
    with pytest.raises(ConfigError):
        POLICIES["bf-rjfs"](fresh_state(config), real, config)


# ---------------------------------------------------------------------------
# baselines


def test_conventional_bf_selects_strongest_links():
    config = small_config()
    state, real = make_instance(config, seed=21)
    outcome, _ = POLICIES["conventional-bf"](state, real, config)
    rx_power = {q: np.sum(np.abs(real.su_stack[0, q - 1]) ** 2)
                for q in range(1, 5)}
    expected_rx = tuple(sorted(sorted(rx_power, key=lambda q: (-rx_power[q], q))[:2]))
    assert outcome.receiving_relays == expected_rx
    assert outcome.jamming_relays == ()
    rest = [q for q in range(1, 5) if q not in expected_rx]
    tx_power = {q: sum(np.sum(np.abs(H) ** 2) for H in real.ru_stack[0, q - 1])
                for q in rest}
    expected_tx = tuple(sorted(sorted(tx_power, key=lambda q: (-tx_power[q], q))[:2]))
    assert outcome.transmitting_relays == expected_tx


def test_conventional_bf_dominant_source_link():
    config = small_config()
    rng = np.random.default_rng(13)
    su = np.stack([cn_matrix(rng, 2, 2) for _ in range(4)])
    su = su.copy()
    su[2] *= 20.0
    rr = {(k, i): cn_matrix(rng, 2, 2) for k in range(1, 5)
          for i in range(1, 5) if k != i}
    real = realization_from_arrays(
        config, 0, su, np.stack([cn_matrix(rng, 2, 2) for _ in range(2)]), rr,
        np.zeros((4, 2, 2, 2)),
        np.stack([np.stack([cn_matrix(rng, 2, 2) for _ in range(2)])
                  for _ in range(4)]))
    outcome, _ = POLICIES["conventional-bf"](fresh_state(config), real, config)
    assert 3 in outcome.receiving_relays


def test_conventional_bf_transmits_forward_records():
    config = small_config()
    _, real = make_instance(config, seed=22)
    state = fresh_state(config)
    snap = np.eye(2, dtype=complex)
    stock(state, 1, snap, signal_class=SignalClass.JAM, slot=0)
    stock(state, 1, snap, signal_class=SignalClass.FORWARD, slot=1)
    outcome, _ = POLICIES["conventional-bf"](state, real, config)
    if 1 in outcome.transmitting_relays:
        assert 1 in outcome.replays
        assert outcome.replays[1].signal_class is SignalClass.FORWARD
        # forward delivery consumes the record
        assert all(r.signal_class is SignalClass.JAM
                   for r in buffer_records(state, 1))


def test_max_link_roles_and_eligibility():
    config = small_config(buffer_capacity=1)
    _, real = make_instance(config, seed=23)
    state = fresh_state(config)
    stock(state, 1, np.eye(2, dtype=complex), signal_class=SignalClass.FORWARD)
    outcome, _ = POLICIES["max-link"](state, real, config)
    assert len(outcome.receiving_relays) == config.T
    assert outcome.jamming_relays == ()
    assert set(outcome.transmitting_relays) <= {1}
    assert set(outcome.receiving_relays).isdisjoint(outcome.transmitting_relays)


def test_max_link_prefers_globally_strongest(rng):
    config = small_config()
    state, real = make_instance(config, seed=24)
    outcome, _ = POLICIES["max-link"](state, real, config)
    assert len(outcome.receiving_relays) == 2
    assert set(outcome.receiving_relays).isdisjoint(outcome.transmitting_relays)


def test_max_ratio_zero_leakage_reduces_to_max_power():
    config = small_config()
    _, real = make_instance(config, seed=25)
    state = fresh_state(config)   # empty buffers: zero leakage
    outcome, _ = POLICIES["max-ratio"](state, real, config)
    rx_power = {q: np.sum(np.abs(real.su_stack[0, q - 1]) ** 2)
                for q in range(1, 5)}
    expected = tuple(sorted(sorted(rx_power, key=lambda q: (-rx_power[q], q))[:2]))
    assert outcome.receiving_relays == expected
    assert outcome.jamming_relays == ()


def test_max_ratio_penalizes_leaky_relay():
    config = small_config(Q=2, T=1, K=1, M=1, N=1)
    rng = np.random.default_rng(14)
    H = cn_matrix(rng, 2, 2)
    su = np.stack([H, H])
    re = np.zeros((2, 1, 2, 2), dtype=complex)
    re[0] = 5.0 * np.eye(2)   # relay 1 leaks strongly
    ru = np.stack([np.stack([cn_matrix(rng, 2, 2)]) for _ in range(2)])
    real = realization_from_arrays(
        config, 5, su, np.stack([cn_matrix(rng, 2, 2)]),
        {(1, 2): cn_matrix(rng, 2, 2), (2, 1): cn_matrix(rng, 2, 2)}, re, ru)
    state = fresh_state(config)
    stock(state, 1, np.eye(2, dtype=complex))
    stock(state, 2, np.eye(2, dtype=complex))
    outcome, _ = POLICIES["max-ratio"](state, real, config)
    assert outcome.receiving_relays == (2,)


def test_random_policy_deterministic_and_disjoint():
    config = small_config()
    state1, real = make_instance(config, seed=31)
    out1, _ = POLICIES["random"](state1, real, config, substream(9, 1, 0, 0))
    state2, _ = make_instance(config, seed=31)
    out2, _ = POLICIES["random"](state2, real, config, substream(9, 1, 0, 0))
    assert out1.receiving_relays == out2.receiving_relays
    assert out1.jamming_relays == out2.jamming_relays
    assert set(out1.receiving_relays).isdisjoint(out1.jamming_relays)
    assert len(out1.receiving_relays) == 2 and len(out1.jamming_relays) == 2


def test_random_policy_requires_rng():
    config = small_config()
    state, real = make_instance(config, seed=31)
    with pytest.raises(ValueError):
        POLICIES["random"](state, real, config, None)


def test_random_policy_uniform_memberships():
    config = small_config()
    state, real = make_instance(config, seed=32)
    draws = 10_000
    rx_counts = np.zeros(5)
    jam_counts = np.zeros(5)
    for i in range(draws):
        rng = substream(17, 1, 0, i)
        ids = np.arange(1, config.Q + 1)
        perm = rng.permutation(len(ids))
        rx = [int(ids[j]) for j in perm[:config.T]]
        jam = [int(ids[j]) for j in perm[config.T:config.T + config.K]]
        for q in rx:
            rx_counts[q] += 1
        for q in jam:
            jam_counts[q] += 1
    expected = draws * config.T / config.Q
    sigma = math.sqrt(draws * 0.5 * 0.5)
    for q in range(1, 5):
        assert abs(rx_counts[q] - expected) < 3 * sigma
        assert abs(jam_counts[q] - expected) < 3 * sigma


# ---------------------------------------------------------------------------
# exhaustive oracle


def test_oracle_small_enumeration_matches_manual_argmax():
    config = small_config(Q=3, T=1, K=1)
    state, real = make_instance(config, seed=41)
    ids = [1, 2, 3]
    peeked = {q: peek_all(state).get(q) for q in ids}
    best = None
    n_assignments = 0
    for rx in itertools.combinations(ids, 1):
        for jam in itertools.combinations([q for q in ids if q not in rx], 1):
            replays = {k: peeked[k] for k in jam if peeked[k] is not None}
            report, _ = slot_rate_report(real, config, replays, jam, jam)
            n_assignments += 1
            if best is None or report.secrecy_rate > best[0]:
                best = (report.secrecy_rate, rx, jam)
    assert n_assignments == 6
    outcome, _ = POLICIES["oracle"](state, real, config)
    assert served_rate(real, config, outcome) == pytest.approx(best[0], rel=1e-12)
    assert outcome.receiving_relays == best[1]
    assert outcome.jamming_relays == best[2]


def test_oracle_guard_refuses_combinatorial_blowup():
    config = small_config(Q=24, T=8, K=8, buffer_capacity=2)
    state = fresh_state(config)
    real = gen_network_realization(config, 0, [substream(1, 0, 0, 0)])
    with pytest.raises(ConfigError):
        POLICIES["oracle"](state, real, config)


def test_oracle_dominates_other_policies_on_instances():
    config = small_config()
    worse = 0
    for seed in range(25):
        state_o, real = make_instance(config, seed=seed)
        out_o, _ = POLICIES["oracle"](state_o, real, config)
        state_b, _ = make_instance(config, seed=seed)
        out_b, _ = POLICIES["bf-rjfs"](state_b, real, config)
        rate_o, rate_b = (served_rate(real, config, out) for out in (out_o, out_b))
        assert rate_o >= rate_b - 1e-9
        if rate_o < rate_b:
            worse += 1
    assert worse == 0


def reference_oracle(state, real, config):
    """Receive-major search over all C(Q,T) C(Q-T,K) assignments with one
    slot_rate_report each, keeping the first best (strict >)."""
    ids = list(range(1, config.Q + 1))
    peeked = peek_all(state)
    best = None
    for rx in itertools.combinations(ids, config.T):
        rest = [q for q in ids if q not in rx]
        for jam in itertools.combinations(rest, config.K):
            replays = {k: peeked[k] for k in jam if k in peeked}
            report, _ = slot_rate_report(real, config, replays, jam, jam)
            if best is None or report.secrecy_rate > best[0]:
                best = (report.secrecy_rate, rx, jam)
    return best


def scalar_jam_set_score(state, real, config, jam):
    """Slot secrecy rate of a jam set from the per-matrix rate operations."""
    p_tx, p_rel = power_split(config)
    peeked = peek_all(state)
    active = [k for k in jam if k in peeked]
    snaps = [peeked[k].snapshot for k in active]
    user_rates = []
    for t in range(config.T):
        if active:
            G = user_sinr_matrix([real.ru_stack[0, k - 1, t % config.M]
                                  for k in active],
                                 snaps, p_rel / config.sigma2,
                                 p_tx / config.sigma2, config.N_k, config.N_t)
            user_rates.append(rate(G, config.log_base))
        else:
            user_rates.append(0.0)
    eav_rates = [rate(eav_sinr_matrix(
        real.se_stack[0, e], [real.re_stack[0, k - 1] for k in active], snaps,
        p_tx / config.sigma2, p_rel / config.sigma2,
        config.N_t, config.N_k, config.N), config.log_base)
        for e in range(config.N)]
    return secrecy_rate(user_rates, eav_rates)


ORACLE_CONFIGS = {
    "T+K=Q": dict(),
    "T+K<Q": dict(Q=5),
    "K=0, N_e != N_i": dict(Q=4, K=0, N_e=1),
    "capacity 1": dict(Q=5, buffer_capacity=1),
    "single antenna": dict(Q=5, N_t=1, N_r=1, N_e=1, N_i=1, N_k=1),
    "consume_on_jam": dict(Q=5, T=1, consume_on_jam=True),
    "nats, high snr": dict(Q=6, T=2, K=3, rate_unit="nats", sigma2=0.01),
}


def oracle_slots(config, n_instances=6, n_slots=6):
    """(state, realization) pairs for the oracle: the slots of one trial from
    empty buffers (slot 0 ties every jam set), then pre-stocked instances in
    which some relays have nothing to replay.  The caller steps the oracle
    once on each pair, which carries the trial's buffers to its next slot."""
    state = fresh_state(config)
    for slot in range(n_slots):
        real = gen_network_realization(
            config, slot, [substream(config.seed, STREAM_CHANNEL, 0, slot)])
        yield state, real
    for seed in range(n_instances):
        yield make_instance(config, seed=seed)


@pytest.mark.parametrize("overrides", ORACLE_CONFIGS.values(),
                         ids=ORACLE_CONFIGS.keys())
def test_oracle_matches_receive_major_reference(overrides):
    config = small_config(**overrides)
    jam_sets = np.array(list(itertools.combinations(range(1, config.Q + 1),
                                                    config.K)), dtype=int)
    silent = 0
    for state, real in oracle_slots(config):
        score, rx, jam = reference_oracle(state, real, config)
        # before the oracle runs: it pushes reception records
        peeks = peek_all(state)
        scores = jam_set_scores(real, config, peeks, jam_sets)
        # every set's score is the rate report of that set, bit for bit
        for members, set_score in zip(jam_sets.tolist(), scores):
            set_replays = {q: peeks[q] for q in members if q in peeks}
            set_report, _ = slot_rate_report(real, config, set_replays,
                                             tuple(members), tuple(members))
            assert set_score == set_report.secrecy_rate
        best = scores.max()
        silent += int((state.buffers.occupancy() == 0).sum())
        outcome, _ = POLICIES["oracle"](state, real, config)
        assert outcome.receiving_relays == rx
        assert outcome.jamming_relays == jam
        assert outcome.transmitting_relays == jam
        report, _ = slot_rate_report(real, config, outcome.replays, jam, jam)
        assert report.secrecy_rate == score
        assert report.secrecy_rate == best
    assert silent > 0


@pytest.mark.parametrize("overrides", ORACLE_CONFIGS.values(),
                         ids=ORACLE_CONFIGS.keys())
def test_max_ratio_matches_per_matrix_reference(overrides):
    config = small_config(**overrides)
    silent = 0
    for state, real in oracle_slots(config):
        own = peek_all(state)
        silent += config.Q - len(own)
        receivers, transmitters = max_ratio_roles(config, real, own)
        outcome, _ = POLICIES["max-ratio"](state, real, config)
        assert outcome.receiving_relays == receivers
        assert outcome.transmitting_relays == transmitters
    assert silent > 0


@pytest.mark.parametrize("overrides", ORACLE_CONFIGS.values(),
                         ids=ORACLE_CONFIGS.keys())
def test_jam_set_scores_match_rates_module_composition(overrides):
    config = small_config(**overrides)
    ids = list(range(1, config.Q + 1))
    jam_sets = list(itertools.combinations(ids, config.K))
    for state, real in oracle_slots(config, n_instances=6, n_slots=3):
        scores = jam_set_scores(real, config, peek_all(state), jam_sets)
        assert scores.shape == (len(jam_sets),)
        for jam, got in zip(jam_sets, scores):
            expected = scalar_jam_set_score(state, real, config, jam)
            assert got == pytest.approx(expected, rel=1e-12)
        POLICIES["oracle"](state, real, config)


@pytest.mark.parametrize("K", [0, 2])
def test_set_sum_of_jam_sets_is_each_set_alone(K):
    # the oracle's (B, S, K) jam sets, silent members in place, sum bit for
    # bit as each set's (B, Q) mask alone does, which is how a served slot
    # sums, and as the ascending masked running sum of the members' terms
    rng = np.random.default_rng(4)
    Q = 5
    terms = (rng.standard_normal((3, Q, 2, 2, 2))
             + 1j * rng.standard_normal((3, Q, 2, 2, 2)))
    found = np.array([[False] * Q,                      # a lane with no record
                      [True, True, False, True, True],  # relay 2 is silent
                      [True] * Q])
    jam = np.array(list(itertools.combinations(range(Q), K)),
                   dtype=np.intp).reshape(math.comb(Q, K), K)
    sums = _set_sum(terms, np.where(found[:, jam], jam, Q))
    assert sums.shape == (3, len(jam), 2, 2, 2)
    for s, members in enumerate(jam):
        mask = found & np.isin(np.arange(Q), members)
        alone = _set_sum(terms, _sets(mask))
        assert np.array_equal(sums[:, s], alone)
        masked = np.where(mask[:, :, None, None, None], terms, 0)
        assert np.array_equal(alone, np.cumsum(masked, axis=1)[:, -1])
    assert not sums[0].any()


def test_oracle_empty_buffers_tie_every_jam_set():
    config = small_config(Q=6, T=2, K=2)
    state = fresh_state(config)
    real = gen_network_realization(config, 0, [substream(3, 0, 0, 0)])
    jam_sets = np.array(list(itertools.combinations(range(1, 7), 2)))
    scores = jam_set_scores(real, config, {}, jam_sets)
    assert np.all(scores == scores[0])
    outcome, _ = POLICIES["oracle"](state, real, config)
    assert outcome.receiving_relays == (1, 2)
    assert outcome.jamming_relays == (3, 4)


def test_oracle_silent_members_tie_exactly():
    # sets that differ only in silent relays score bit-identically, so the
    # tie-break, not rounding, picks between them
    config = small_config(Q=6, T=2, K=2)
    state = fresh_state(config)
    stock(state, 5, cn_matrix(np.random.default_rng(8), 2, 2))
    real = gen_network_realization(config, 4, [substream(3, 0, 0, 4)])
    jam_sets = np.array([(1, 5), (2, 5), (3, 5), (4, 5), (5, 6)])
    scores = jam_set_scores(real, config, {5: peek_all(state)[5]}, jam_sets)
    assert np.all(scores == scores[0])


def test_oracle_scores_jam_sets_not_assignments():
    # Q=16, T=4, K=4: 900 900 assignments but 1 820 jam sets, under the guard
    config = small_config(Q=16, T=4, K=4)
    state, real = make_instance(config, seed=5)
    scores = jam_set_scores(real, config, peek_all(state),
                            list(itertools.combinations(range(1, 17), 4)))
    outcome, _ = POLICIES["oracle"](state, real, config)
    assert len(outcome.receiving_relays) == 4
    assert len(outcome.jamming_relays) == 4
    assert not set(outcome.receiving_relays) & set(outcome.jamming_relays)
    assert served_rate(real, config, outcome) == pytest.approx(scores.max(),
                                                               rel=1e-12)


# ---------------------------------------------------------------------------
# structural invariants


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_outcome_cardinality_and_disjointness(policy):
    config = small_config()
    for outcome in run_steps(config, policy, 6):
        assert len(outcome.receiving_relays) == config.T
        assert len(outcome.jamming_relays) <= config.K
        assert set(outcome.receiving_relays).isdisjoint(outcome.jamming_relays)
        assert set(outcome.receiving_relays) <= set(range(1, config.Q + 1))
        assert set(outcome.transmitting_relays) <= set(range(1, config.Q + 1))
        assert set(outcome.replays) <= set(outcome.transmitting_relays)
        # every policy's roles are served by the one _serve path
        assert outcome.jamming_relays in ((), outcome.transmitting_relays)
        for roles in (outcome.receiving_relays, outcome.jamming_relays,
                      outcome.transmitting_relays):
            assert isinstance(roles, tuple) and roles == tuple(sorted(roles))


def _permute_realization(real, config, perm):
    """perm maps old relay id -> new relay id (1-based)."""
    Q = config.Q
    inv = {perm[q]: q for q in perm}
    su = np.stack([real.su_stack[0, inv[q] - 1] for q in range(1, Q + 1)])
    re = np.stack([real.re_stack[0, inv[q] - 1] for q in range(1, Q + 1)])
    ru = np.stack([real.ru_stack[0, inv[q] - 1] for q in range(1, Q + 1)])
    rr = {(perm[k], perm[i]): H for (k, i), H in rr_map(real).items()}
    return realization_from_arrays(config, real.slot, su, real.se_stack[0], rr,
                                   re, ru)


def _permute_state(state, config, perm):
    new = fresh_state(config)
    for q in range(1, config.Q + 1):
        for rec in buffer_records(state, q):
            push_record(new, perm[q], rec)
    return new


@pytest.mark.parametrize("policy", ["bf-rjfs", "conventional-bf", "max-link",
                                    "max-ratio"])
def test_permutation_equivariance(policy):
    config = small_config()
    perm = {1: 3, 2: 1, 3: 4, 4: 2}
    state, real = make_instance(config, seed=55)
    out, _ = POLICIES[policy](state, real, config, None)

    state2, _ = make_instance(config, seed=55)
    p_state = _permute_state(state2, config, perm)
    p_real = _permute_realization(real, config, perm)
    p_out, _ = POLICIES[policy](p_state, p_real, config, None)

    assert p_out.receiving_relays == tuple(sorted(perm[q] for q in out.receiving_relays))
    assert p_out.jamming_relays == tuple(sorted(perm[q] for q in out.jamming_relays))
    assert p_out.transmitting_relays == tuple(
        sorted(perm[q] for q in out.transmitting_relays))


def test_reception_matches_scalar_link_ops():
    # the batched reception path must reproduce the per-pair scalar operations
    from relaysec.channel import relayed_link_power
    from relaysec.selection import _receive_and_store, _resolve_replays
    config = small_config(gamma0=0.2)
    state, real = make_instance(config, seed=88)
    jammers = (1, 2)
    resolved = _resolve_replays(state, id_mask(jammers, 4), config,
                                jamming=np.array([True]))
    replays = {q: resolved.record(0, q - 1) for q in jammers
               if resolved.found[0, q - 1]}
    receivers = (3, 4)
    state2, _ = make_instance(config, seed=88)
    replays2 = _resolve_replays(state2, id_mask(jammers, 4), config,
                                jamming=np.array([True]))
    _receive_and_store(state2, real, Lanes.of([config]), id_mask(receivers, 4),
                       replays2)

    p_tx, p_rel = power_split(config)
    relay_channels = rr_map(real)
    for i in receivers:
        H_i = real.su_stack[0, i - 1]
        gamma_S = (p_tx / config.N_t) * received_power(H_i)
        residual = 0.0
        for k in sorted(replays):
            H_ki = relay_channels[k, i]
            feasible = pair_feasible(
                H_i, H_ki, p_tx / config.sigma2, p_rel / config.sigma2,
                config.N_t, config.N_k, config.gamma0)
            if not feasible:
                residual += (p_rel / config.N_k) * relayed_link_power(
                    H_ki, replays[k].snapshot)
        expected = pair_sinr(gamma_S, residual, 1, config.N_i, config.sigma2)
        stored = buffer_records(state2, i)[-1]
        assert stored.sinr_at_reception == pytest.approx(expected, rel=1e-10)
        np.testing.assert_array_equal(stored.snapshot, H_i)


@pytest.mark.parametrize("iri", [True, False], ids=["iri-on", "iri-off"])
def test_reception_sinr_bits_match_labelled_einsums(iri):
    # the stored reception SINRs, which set every calibrated threshold, keep
    # the bits of reference.reception_sinrs, whose replay products are an
    # explicit sum over the contracted index, and agree with the replay
    # product as one labelled einsum; lanes of one trial share a draw, and
    # every lane has R = T < Q receivers
    from relaysec.rates import iri_feasible
    from relaysec.selection import _members
    from relaysec.sim import _lockstep
    from reference import labelled_replay_products, reception_sinrs
    base = SystemConfig(Q=6, T=2, K=3, gamma0=0.3, seed=41, iri_cancellation=iri)
    cells = [base.replace(eta=eta, sinr_threshold=0.3).with_snr_db(snr)
             for snr, eta in ((0.0, 0.5), (10.0, 1.0), (20.0, 1.5))]
    lanes = [(policy, cfg, trial)
             for policy in ("bf-rjfs", "conventional-bf", "max-ratio", "random")
             for cfg in cells for trial in (0, 1)]
    checked = []

    def each(outcome, state, rates):
        real, ls, replays = outcome.realization, outcome.lanes, outcome.replays
        rx, rx_real = _members(outcome.receivers)
        tx, tx_real = _members(replays.found)
        H_rx = real.per_lane("su_stack", rx)
        H_ki = real.rr_block(tx[:, :, None], rx[:, None, :])
        phi = 1
        if iri and tx.shape[1]:
            at = (slice(None),) + (None,) * 4
            phi = ~iri_feasible(real.per_lane("su_stack", rx, gram)[:, None],
                                gram(H_ki), ls.snr_tx[at], ls.snr_rel[at],
                                base.N_t, base.N_k, base.gamma0)
        lane = np.arange(len(rx))[:, None]
        args = (H_rx, H_ki, replays.snapshot[lane, tx], phi, ls.p_tx, ls.p_rel,
                ls.sigma2, base)
        want = reception_sinrs(*args)
        labelled = reception_sinrs(*args, replay=labelled_replay_products)
        got = outcome.sinr[lane, rx]
        assert np.array_equal(got[rx_real], want[rx_real])
        np.testing.assert_allclose(got[rx_real], labelled[rx_real], rtol=1e-13)
        checked.append(int(tx_real.sum()))

    _lockstep(lanes, 8, each, score=False)
    assert len(checked) == 8 and sum(checked) > 0


def test_slot_rate_report_matches_rates_module_composition():
    # the batched slot path must agree with the per-matrix rate operations
    config = small_config()
    state, real = make_instance(config, seed=77)
    out, _ = POLICIES["bf-rjfs"](state, real, config)
    report, _ = slot_rate_report(real, config, out.replays,
                                 out.jamming_relays, out.transmitting_relays)
    p_tx, p_rel = power_split(config)
    active = [k for k in sorted(out.transmitting_relays) if k in out.replays]
    snaps = [out.replays[k].snapshot for k in active]
    for t in range(config.T):
        u = t % config.M
        if active:
            G = user_sinr_matrix([real.ru_stack[0, k - 1][u] for k in active],
                                 snaps, p_rel / config.sigma2,
                                 p_tx / config.sigma2, config.N_k, config.N_t)
            expected = rate(G)
        else:
            expected = 0.0
        assert report.user_rates[t] == pytest.approx(expected, abs=1e-10)
    jam_active = [k for k in sorted(out.jamming_relays) if k in out.replays]
    for e in range(config.N):
        G = eav_sinr_matrix(real.se_stack[0, e],
                            [real.re_stack[0, k - 1] for k in jam_active],
                            [out.replays[k].snapshot for k in jam_active],
                            p_tx / config.sigma2, p_rel / config.sigma2,
                            config.N_t, config.N_k, config.N)
        assert report.eav_rates[e] == pytest.approx(rate(G), abs=1e-10)
    assert report.secrecy_rate == pytest.approx(
        secrecy_rate(report.user_rates, report.eav_rates), abs=1e-10)


def test_metric_scale_invariance_of_ranking():
    # scaling all source channels by a common factor preserves the det ranking
    config = small_config()
    real = gen_network_realization(config, 0, [substream(6, 0, 0, 0)])
    scaled = realization_from_arrays(
        config, 0, 3.0 * real.su_stack[0], real.se_stack[0],
        rr_map(real), real.re_stack[0], real.ru_stack[0])
    assert ranking(real) == ranking(scaled)
