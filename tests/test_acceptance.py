"""Acceptance suite: one test per stated criterion, each printing a single
PASS/FAIL line with the measured quantity next to its tolerance.

These are deliberately end-to-end and heavier than the unit tests; the whole
file runs in a few minutes on a laptop. Nothing here relaxes a bound — if a
criterion fails, it fails visibly.
"""

import dataclasses
import itertools
import time

import numpy as np

from fedcl.config import apply_arm, from_dict, preset_config
from fedcl.datagen import make_eval_split
from fedcl.evaluate import fine_tune, linear_probe
from fedcl.federation import (MessageKind, audit_privacy, payload_digest, run_training,
                              save_checkpoint)
from fedcl.metadata import NodeMetadata, boxcox, inv_boxcox, sample_gaussian
from fedcl.nn import EncoderParams, init_params, loss_and_grad, mlp_shapes, normalize_rows
from fedcl.rsa import fedavg_weights, self_adaptive_weights, spearman
from fedcl.seeding import rng_for, seed_for

from test_nn import whole_gradient


def report(num, name, ok, detail):
    print(f"criterion {num:>2} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, f"criterion {num} [{name}]: {detail}"


# -- 1: analytic gradients vs central finite differences ----------------------

def test_criterion_01_gradients_match_finite_differences():
    shapes = mlp_shapes(36, [12], 8)
    worst = 0.0
    h = 1e-5
    for enc_seed in range(10):
        rng = rng_for(enc_seed, "crit1")
        params = init_params(shapes, enc_seed)
        queries = rng.random((6, 36)) + 0.05
        positives = normalize_rows(rng.standard_normal((6, 8)))
        negatives = normalize_rows(rng.standard_normal((20, 8)))
        synth = normalize_rows(rng.standard_normal((8, 8)))

        def loss_at(values):
            p = EncoderParams(values, shapes)
            return whole_gradient(loss_and_grad, p, queries, positives, negatives, synth, 0.2)[0]

        _, grad = whole_gradient(loss_and_grad, params, queries, positives, negatives, synth,
                                 0.2)
        for i in rng.choice(params.values.size, size=100, replace=False):
            bumped = params.values.copy()
            bumped[i] += h
            up = loss_at(bumped)
            bumped[i] -= 2 * h
            down = loss_at(bumped)
            fd = (up - down) / (2 * h)
            rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8)
            worst = max(worst, rel)
    report(1, "gradient oracle", worst <= 1e-4,
           f"max relative error {worst:.3e} over 10 encoders x 100 coordinates, "
           f"tolerance 1e-4")


# -- 2: power-transform roundtrip ----------------------------------------------

def test_criterion_02_power_transform_roundtrip():
    x = np.linspace(0.0, 10.0, 10_000)
    err = float(np.max(np.abs(inv_boxcox(boxcox(x, 0.5), 0.5) - x)))
    report(2, "power-transform roundtrip", err <= 1e-9,
           f"max |roundtrip - x| = {err:.3e} over 10^4 grid points, tolerance 1e-9")


# -- 3: rank correlation against a definition-level recomputation ---------------

def _counting_ranks(x):
    return np.array([np.sum(x < v) + 0.5 * (np.sum(x == v) + 1.0) for v in x])


def _rank_pearson(ru, rv):
    ru = ru - ru.mean()
    rv = rv - rv.mean()
    return float(np.sum(ru * rv) / np.sqrt(np.sum(ru * ru) * np.sum(rv * rv)))


def test_criterion_03_spearman_matches_brute_force():
    started = time.perf_counter()
    pairs = 0
    for n in range(2, 7):
        perms = [np.array(p, dtype=np.float64) for p in itertools.permutations(range(n))]
        for u in perms:
            for v in perms:
                d2 = float(np.sum((u - v) ** 2))
                want = 1.0 - (6.0 * d2) / (n * (n * n - 1))
                got = spearman(u, v)
                assert got == want, (u.tolist(), v.tolist(), got, want)
                pairs += 1

    rng = rng_for(3, "crit3")
    worst_tied = 0.0
    for case in range(1000):
        n = int(rng.integers(2, 9))
        if case % 3 == 0:  # untied real vectors
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
        else:  # quantized: ties almost surely
            u = np.round(rng.random(n), 1)
            v = np.round(rng.random(n), 1)
        got = spearman(u, v)
        ru, rv = _counting_ranks(u), _counting_ranks(v)
        u_const = np.all(u == u[0])
        v_const = np.all(v == v[0])
        if u_const and v_const:
            assert got == 1.0
        elif u_const or v_const:
            assert got == 0.0
        elif np.unique(u).size == n and np.unique(v).size == n:
            d2 = float(np.sum((ru - rv) ** 2))
            want = 1.0 - (6.0 * d2) / (n * (n * n - 1))
            assert got == want, (u.tolist(), v.tolist(), got, want)
        else:
            worst_tied = max(worst_tied, abs(got - _rank_pearson(ru, rv)))
    elapsed = time.perf_counter() - started
    report(3, "rank-correlation oracle",
           worst_tied <= 1e-12 and elapsed < 30.0,
           f"{pairs} permutation pairs exact, 1000 random vectors; "
           f"worst tied-case gap {worst_tied:.2e} <= 1e-12; {elapsed:.1f}s < 30s")


# -- 4: Gaussian sampler moments ------------------------------------------------

def test_criterion_04_gaussian_sampler_moments():
    mu = np.array([0.5, -1.0, 2.0])
    ell = np.array([[1.0, 0.0, 0.0], [0.3, 0.8, 0.0], [-0.2, 0.4, 0.6]])
    sigma = ell @ ell.T
    draws = sample_gaussian(NodeMetadata(mu, sigma), 10_000, rng_for(4, "crit4"))
    mean_err = float(np.max(np.abs(draws.mean(axis=0) - mu)))
    cov_err = float(np.max(np.abs(np.cov(draws.T) - sigma)))
    mean_tol = 0.05 * (1.0 + float(np.max(np.abs(mu))))
    report(4, "gaussian sampler", mean_err <= mean_tol and cov_err <= 0.1,
           f"mean error {mean_err:.4f} <= {mean_tol:.3f}, "
           f"max covariance-entry error {cov_err:.4f} <= 0.1, 10^4 draws")


# -- 5: aggregation weight identities -------------------------------------------

def test_criterion_05_weight_identities():
    t1 = self_adaptive_weights([0.0, 0.0, 0.0])
    t2 = self_adaptive_weights([1.0, 0.0, -1.0])
    t3 = self_adaptive_weights([1.0, 1.0])
    t4 = fedavg_weights([1, 1, 2])
    tables_ok = (np.array_equal(t1, np.full(3, 1.0 / 3.0))
                 and np.array_equal(t2, np.array([0.0, 1.0 / 3.0, 2.0 / 3.0]))
                 and np.array_equal(t3, np.array([0.5, 0.5]))
                 and np.array_equal(t4, np.array([0.25, 0.25, 0.5])))

    rng = rng_for(5, "crit5")
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 9))
        if rng.random() < 0.5:
            w = self_adaptive_weights(rng.uniform(-1.0, 1.0, k))
        else:
            w = fedavg_weights(rng.integers(1, 100, k))
        worst = max(worst, abs(float(w.sum()) - 1.0))
    report(5, "weight identities", tables_ok and worst <= 1e-12,
           f"tabled cases exact; max |sum - 1| = {worst:.2e} over 10^4 random inputs")


# -- 6: desk-scale protocol audit ------------------------------------------------

def test_criterion_06_desk_run_passes_privacy_audit():
    cfg, _ = preset_config("desk")
    cfg = apply_arm(cfg, "fedmoco")
    assert (cfg.nodes, cfg.data.base_size, cfg.rounds, cfg.warmup_rounds) == (3, 2000, 40, 10)
    started = time.perf_counter()
    result = run_training(cfg)
    elapsed = time.perf_counter() - started
    rep = audit_privacy(result.messages)
    k, t, tw = cfg.nodes, cfg.rounds, cfg.warmup_rounds
    expected = {"params_down": k * t, "params_up": k * t,
                "metadata_up": k * (t - tw), "metadata_down": k * (t - tw)}
    counts_ok = rep.counts == expected
    report(6, "protocol audit",
           rep.passed and counts_ok and elapsed < 600.0,
           f"audit passed={rep.passed}, counts={rep.counts} vs formula {expected}, "
           f"0 violations, {elapsed:.0f}s < 600s")


# -- 7: bit-identical reruns ------------------------------------------------------

def test_criterion_07_reruns_are_bit_identical(tmp_path):
    overrides = {
        "nodes": 3, "rounds": 8, "warmup_rounds": 2, "queue_capacity": 64,
        "batch_size": 16, "probe_size": 24,
        "data": {"base_size": 120, "eval_per_class": 4},
    }
    a = run_training(from_dict(overrides))
    b = run_training(from_dict(overrides))
    save_checkpoint(a.theta0, tmp_path / "a.bin")
    save_checkpoint(b.theta0, tmp_path / "b.bin")
    theta_ok = (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    metrics_ok = a.metrics == b.metrics
    log_ok = ([payload_digest(m.payload) for m in a.messages]
              == [payload_digest(m.payload) for m in b.messages])
    report(7, "determinism", theta_ok and metrics_ok and log_ok,
           f"final params bit-identical={theta_ok}, metrics identical={metrics_ok}, "
           f"message digests identical={log_ok}")


# -- 8: module toggles reduce to the baseline ------------------------------------

def round_params(result):
    """Every round's aggregate: round t's is what round t + 1 sends down,
    and the last round's is the final theta0."""
    down = {m.round_index: m.payload for m in result.messages
            if m.kind is MessageKind.PARAMS_DOWN}
    return [down[t] for t in sorted(down)][1:] + [result.theta0]


def test_criterion_08_disabled_modules_match_baseline_bitwise():
    base = {
        "nodes": 3, "rounds": 10, "warmup_rounds": 2, "queue_capacity": 64,
        "batch_size": 16, "probe_size": 24, "aggregation_mode": "fedavg",
        "data": {"base_size": 150, "eval_per_class": 4},
    }
    with_meta = run_training(from_dict({**base, "metadata_enabled": True, "eta": 0.0}))
    baseline = run_training(from_dict({**base, "metadata_enabled": False}))
    rounds_equal = [
        x.values.tobytes() == y.values.tobytes()
        for x, y in zip(round_params(with_meta), round_params(baseline))
    ]
    ok = len(rounds_equal) == 10 and all(rounds_equal)
    report(8, "ablation identity", ok,
           f"eta=0 metadata pipeline vs baseline arm: per-round parameters "
           f"bit-identical for all {len(rounds_equal)} rounds = {all(rounds_equal)}")


# -- 9: label-skew ablation ordering ----------------------------------------------

def test_criterion_09_label_skew_arms_beat_or_match_baseline():
    started = time.perf_counter()
    base, preset = preset_config("ablation-desk")
    assert (base.nodes, base.rounds) == (3, 40)
    assert base.data.scenario == "label_skew"
    # the noisier evaluation rendering of finetune-desk and the benchmark:
    # at the default 0.15 every arm probes at 1.0, and each gate compares 1.0
    # with 1.0. eval_noise renders only the evaluation split, not the shards.
    base = dataclasses.replace(base, data=dataclasses.replace(base.data, eval_noise=0.55))
    means = {}
    per_seed = {}
    for arm in preset.arms:
        accs = []
        for seed in (0, 1, 2):
            cfg = apply_arm(dataclasses.replace(base, seed=seed), arm)
            result = run_training(cfg)
            train, test = make_eval_split(cfg.data, seed)
            probe = linear_probe(result.theta0, train, test, cfg.probe, seed)
            accs.append(probe.accuracy)
        means[arm] = float(np.mean(accs))
        per_seed[arm] = [round(a, 4) for a in accs]
    elapsed = time.perf_counter() - started
    gates = {
        "fedmoco": means["fedmoco"] >= means["fedavg"] - 0.005,
        "fedmoco_m": means["fedmoco_m"] >= means["fedavg"] - 0.01,
        "fedmoco_s": means["fedmoco_s"] >= means["fedavg"] - 0.01,
    }
    strict = all(means[a] >= means["fedavg"] for a in ("fedmoco", "fedmoco_m", "fedmoco_s"))
    print(f"  per-seed probe accuracy: {per_seed}")
    print(f"  strict ordering (reported, not gated): every arm >= fedavg is {strict}")
    rounded = {k: round(v, 4) for k, v in means.items()}
    report(9, "label-skew ablation", all(gates.values()) and elapsed < 2700.0,
           f"means {rounded}, gates {gates}, {elapsed:.0f}s < 2700s")


# -- 10: fine-tune label efficiency ------------------------------------------------

def test_criterion_10_pretraining_beats_random_init_fine_tune():
    started = time.perf_counter()
    base, _ = preset_config("finetune-desk")
    cfg = apply_arm(dataclasses.replace(base, seed=0), "fedmoco")
    pretrained = run_training(cfg).theta0
    diffs = []
    for seed in range(5):
        train, test = make_eval_split(cfg.data, seed)
        pre = fine_tune(pretrained, cfg.fine_tune_fraction, train, test, cfg.fine_tune, seed)
        rand_enc = init_params(cfg.encoder_shapes(), seed_for(seed, "random-init"))
        rand = fine_tune(rand_enc, cfg.fine_tune_fraction, train, test, cfg.fine_tune, seed)
        diffs.append(pre.final_accuracy - rand.final_accuracy)
    median = float(np.median(diffs))
    elapsed = time.perf_counter() - started
    report(10, "fine-tune label efficiency",
           median >= 0.02 and elapsed < 1200.0,
           f"median(pretrained - random) final accuracy = {median:+.4f} >= 0.02 "
           f"over 5 paired seeds at {cfg.fine_tune_fraction:.0%} labels; "
           f"per-seed {[round(d, 4) for d in diffs]}; {elapsed:.0f}s < 1200s")
