import math

from hypothesis import given, settings
from hypothesis import strategies as st

from relaysec.config import SystemConfig
from relaysec.errors import ConfigError
from relaysec.selection import POLICIES
from relaysec.sim import run_trial


@st.composite
def small_scenarios(draw):
    """Keyword arguments of a small scenario plus its SNR.  Most draws are
    valid; antenna counts sometimes differ from N_i, which is invalid where
    the model needs them equal and must then fail at construction."""
    Q = draw(st.integers(1, 6))
    K = draw(st.integers(0, Q - 1))
    T = draw(st.integers(1, Q - K))
    N_i = draw(st.integers(1, 2))
    like_n_i = st.one_of(st.just(N_i), st.just(N_i), st.integers(1, 2))
    kwargs = dict(
        Q=Q, T=T, K=K, N_i=N_i, N_r=draw(like_n_i), N_k=draw(like_n_i),
        N_e=draw(like_n_i), N_t=draw(st.integers(1, 3)),
        M=draw(st.integers(1, 3)), N=draw(st.integers(1, 3)),
        buffer_capacity=draw(st.sampled_from([1, 2, 4])),
        eta=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        gamma0=draw(st.sampled_from([0.1, 1.0, 10.0])),
        sinr_threshold=draw(st.sampled_from([0.0, 0.15, 5.0])),
        iri_cancellation=draw(st.booleans()),
        consume_on_jam=draw(st.booleans()),
        worst_sinr_seeding=draw(st.booleans()),
        selection_noise_floor=draw(st.booleans()),
        rate_unit=draw(st.sampled_from(["bits", "nats"])),
        seed=draw(st.integers(0, 2**32)),
        warmup_slots=0)
    return kwargs, draw(st.sampled_from([-10.0, 10.0, 30.0]))


@settings(max_examples=120, deadline=None)
@given(small_scenarios())
def test_every_policy_runs_every_valid_config(scenario):
    kwargs, snr_db = scenario
    try:
        config = SystemConfig(**kwargs).with_snr_db(snr_db)
    except ConfigError:
        return
    for policy in POLICIES:
        reports = run_trial(config, policy, 0, 3)
        assert len(reports) == 3
        for report in reports:
            values = report.user_rates + report.eav_rates + (report.secrecy_rate,)
            assert all(math.isfinite(v) and v >= 0.0 for v in values), (policy, report)
