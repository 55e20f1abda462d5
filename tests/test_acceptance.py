"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
Desk-scale geometry throughout: 20 replicates per Monte Carlo criterion with
paired per-replicate streams.
"""

import time

import numpy as np
import pytest

from wgom import (
    Bernoulli,
    Binomial,
    Exponential,
    GeneralDiscrete,
    ItemParams,
    MembershipMatrix,
    ModelSpec,
    Normal,
    Poisson,
    SignedBinary,
    Uniform,
    construct_discrete,
    expected_responses,
    fuzzy_weighted_modularity,
    hamming_error,
    ideal_rmsp,
    ideal_scgoma,
    linalg,
    relative_error,
    rmsp,
    sample_response,
    scgoma,
    select_k,
    simulation_spec,
)
from wgom.experiments import replicate_rng

from helpers import brute_hamming, brute_relative, leading, modularity_double_sum, random_row_stochastic

REPLICATES = 20


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def mean_hamming(dist, *, n, rho, seed, sparsity=1.0, k=3, method=scgoma):
    errors = []
    for rep in range(REPLICATES):
        rng = replicate_rng(seed, rep)
        spec = simulation_spec(dist, n=n, rho=rho, sparsity=sparsity, k=k, rng=rng)
        responses, _ = sample_response(spec, rng)
        result = method(responses, k)
        errors.append(hamming_error(result.membership_hat, spec.membership))
    return float(np.mean(errors))


def test_criterion_1_oracle_exact_recovery():
    # 3 classes, 800 subjects, 400 items, 200 pure subjects per class, mixed
    # rows with the first two weights uniform on (0, 1/3).
    rng = np.random.default_rng(1)
    spec = simulation_spec(
        Binomial(m=5), n=800, j=400, k=3, n_pure=200, mixed="random", rho=1.0, rng=rng
    )
    r0 = expected_responses(spec)
    started = time.perf_counter()
    results = {
        "ideal_scgoma": ideal_scgoma(r0, 3),
        "scgoma": scgoma(r0, 3),
        "ideal_rmsp": ideal_rmsp(r0, 3),
        "rmsp": rmsp(r0, 3),
    }
    elapsed = time.perf_counter() - started
    worst_ham, worst_rel = 0.0, 0.0
    for name, result in results.items():
        if isinstance(result, tuple):
            pi_hat, theta_hat = result
        else:
            pi_hat, theta_hat = result.membership_hat, result.item_params_hat
        worst_ham = max(worst_ham, hamming_error(pi_hat, spec.membership))
        worst_rel = max(worst_rel, relative_error(theta_hat, spec.item_params.values))
    report(
        1,
        worst_ham <= 1e-8 and worst_rel <= 1e-8 and elapsed < 5.0,
        f"noiseless recovery: worst hamming {worst_ham:.2e}, worst relative "
        f"{worst_rel:.2e}, runtime {elapsed:.2f}s (< 5 s)",
    )


def test_criterion_2_binomial_rho_trend():
    started = time.perf_counter()
    low = mean_hamming(Binomial(m=5), n=400, rho=0.5, seed=1)
    high = mean_hamming(Binomial(m=5), n=400, rho=5.0, seed=1)
    elapsed = time.perf_counter() - started
    report(
        2,
        high < low and low < 0.5 and elapsed < 120.0,
        f"binomial mean hamming: rho=5 -> {high:.4f} < rho=0.5 -> {low:.4f} "
        f"(and {low:.4f} < 0.5), runtime {elapsed:.1f}s (< 120 s)",
    )


def test_criterion_3_uniform_rho_insensitivity():
    at_10 = mean_hamming(Uniform(), n=400, rho=10.0, seed=3)
    at_100 = mean_hamming(Uniform(), n=400, rho=100.0, seed=3)
    factor = max(at_10, at_100) / min(at_10, at_100)
    report(
        3,
        factor < 2.0,
        f"uniform mean hamming: rho=10 -> {at_10:.4f}, rho=100 -> {at_100:.4f}, "
        f"factor {factor:.3f} (< 2)",
    )


def test_criterion_4_subject_count_trend():
    small = mean_hamming(Normal(sigma2=1.0), n=400, rho=0.5, seed=4)
    large = mean_hamming(Normal(sigma2=1.0), n=1600, rho=0.5, seed=4)
    report(
        4,
        large < small,
        f"normal mean hamming: N=1600 -> {large:.4f} < N=400 -> {small:.4f}",
    )


def test_criterion_5_sparsity_trend():
    sparse = mean_hamming(SignedBinary(), n=400, rho=1.0, sparsity=0.3, seed=5)
    dense = mean_hamming(SignedBinary(), n=400, rho=1.0, sparsity=1.0, seed=5)
    report(
        5,
        dense < sparse,
        f"signed mean hamming: p=1.0 -> {dense:.4f} < p=0.3 -> {sparse:.4f}",
    )


def test_criterion_6_class_count_selection_accuracy():
    accuracies = {}
    for true_k in (1, 2, 3):
        hits = []
        for rep in range(REPLICATES):
            rng = replicate_rng(608 + true_k, rep)
            spec = simulation_spec(Binomial(m=5), n=400, k=true_k, rho=1.0, rng=rng)
            responses, _ = sample_response(spec, rng)
            k_hat, _ = select_k(responses, "scgoma", k_max=15)
            hits.append(k_hat == true_k)
        accuracies[true_k] = float(np.mean(hits))
    report(
        6,
        accuracies[2] >= 0.9 and accuracies[3] >= 0.9,
        f"selection accuracy: K=2 -> {accuracies[2]:.2f}, K=3 -> {accuracies[3]:.2f} "
        f"(both >= 0.9); K=1 -> {accuracies[1]:.2f} (reported only; expected to fail)",
    )


def test_criterion_7_modularity_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 51))
        j = int(rng.integers(3, 30))
        r = rng.standard_normal((n, j))  # mixed-sign responses
        k = int(rng.integers(2, 6))
        pi = random_row_stochastic(rng, n, k)
        worst = max(worst, abs(fuzzy_weighted_modularity(r, pi) - modularity_double_sum(r, pi)))
        if fuzzy_weighted_modularity(r, np.ones((n, 1))) != 0.0:
            report(7, False, "Q(k=1) not exactly zero")
    report(
        7,
        worst <= 1e-10,
        f"trace form vs double-sum oracle on 50 instances: worst gap {worst:.2e} "
        f"(<= 1e-10); Q(k=1) == 0 exactly on each",
    )


def test_criterion_8_permutation_metric_oracle():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(3, 40))
        pi_hat = random_row_stochastic(rng, n, k)
        pi_true = random_row_stochastic(rng, n, k)
        worst = max(worst, abs(hamming_error(pi_hat, pi_true) - brute_hamming(pi_hat, pi_true)))
        theta_hat = rng.standard_normal((n, k))
        theta_true = rng.standard_normal((n, k))
        worst = max(
            worst, abs(relative_error(theta_hat, theta_true) - brute_relative(theta_hat, theta_true))
        )
    report(
        8,
        worst <= 1e-12,
        f"assignment vs exhaustive permutations on 100 pairs: worst gap {worst:.2e} "
        f"(<= 1e-12)",
    )


def test_criterion_9_sampler_mean_correctness():
    variants = {
        "bernoulli": (Bernoulli(), [0.1, 0.3, 0.5, 0.7, 0.9]),
        "binomial": (Binomial(m=5), [0.5, 1.5, 2.5, 3.5, 4.5]),
        "uniform": (Uniform(), [0.2, 1.0, 2.0, 5.0, 10.0]),
        "normal": (Normal(sigma2=1.0), [-3.0, -1.0, 0.0, 1.0, 3.0]),
        "signed": (SignedBinary(), [-0.9, -0.3, 0.0, 0.4, 0.8]),
        "poisson": (Poisson(), [0.3, 1.0, 3.0, 7.0, 12.0]),
        "exponential": (Exponential(), [0.2, 1.0, 2.0, 5.0, 9.0]),
        "discrete": (
            GeneralDiscrete(support=(-2.0, 1.0, 1.5), scheme="mean-locked"),
            [0.25, 0.27, 0.3, 0.32, 1.0 / 3.0],
        ),
    }
    draws = 10_000
    for case, (name, (dist, means)) in enumerate(variants.items()):
        for point, mu in enumerate(means):
            pi = np.tile([1.0, 0.0], (draws, 1))
            theta = np.array([[mu, mu + 1.0]])
            spec = ModelSpec(
                membership=MembershipMatrix(pi),
                item_params=ItemParams(theta),
                distribution=dist,
            )
            values, _ = sample_response(spec, 9000 + 10 * case + point)
            sample = values.values.ravel()
            stderr = max(sample.std() / np.sqrt(draws), 1e-12)
            if abs(sample.mean() - mu) > 4 * stderr:
                report(
                    9,
                    False,
                    f"{name} at mean {mu}: sample mean {sample.mean():.4f} "
                    f"beyond 4 standard errors",
                )

    triple = construct_discrete((-2.0, 1.0, 1.5), "mean-locked", 0.3)
    triple_ok = np.allclose(triple, [0.3, 0.3, 0.4], atol=1e-12) and triple.sum() == 1.0
    rng = np.random.default_rng(9)
    sums_exact, mean_hit = True, True
    for support, scheme in [((-1.0, 1.0), "binary"), ((0.0, 1.0, 2.0), 0), ((-2.0, 1.0, 1.5), "mean-locked")]:
        from wgom.sampling import discrete_mean_interval

        lo, hi = discrete_mean_interval(support, scheme)
        for _ in range(10):
            mu = rng.uniform(lo, hi)
            p = construct_discrete(support, scheme, mu)
            sums_exact &= p.sum() == 1.0
            mean_hit &= abs(np.dot(support, p) - mu) <= 1e-12
    report(
        9,
        triple_ok and sums_exact and mean_hit,
        f"8 variants x 5 means within 4 standard errors of the target; "
        f"finite-support vectors sum to 1 exactly and hit means to 1e-12; "
        f"three-point triple at 0.3 -> {np.round(triple, 12).tolist()}",
    )


def test_criterion_10_randomized_svd_matches_dense_oracle():
    rng = np.random.default_rng(10)
    worst = 0.0
    for trial in range(20):
        left, _ = np.linalg.qr(rng.standard_normal((1000, 60)))
        right, _ = np.linalg.qr(rng.standard_normal((500, 60)))
        spectrum = 0.65 ** np.arange(60)
        a = (left * spectrum) @ right.T
        exact = np.linalg.svd(a, compute_uv=False)[:10]
        randomized = leading(*linalg._randomized_svd(a, 10, seed=trial), 10)
        worst = max(worst, (np.abs(randomized.singulars - exact) / exact).max())

    left, _ = np.linalg.qr(rng.standard_normal((1000, 10)))
    right, _ = np.linalg.qr(rng.standard_normal((500, 10)))
    a = (left * (2.0 ** -np.arange(10))) @ right.T
    svd = leading(*linalg._randomized_svd(a, 10, seed=99), 10)
    recon = np.linalg.norm(a - (svd.left * svd.singulars) @ svd.right.T, 2) / svd.singulars[0]
    report(
        10,
        worst <= 1e-6 and recon <= 1e-8,
        f"randomized vs dense singular values on 20 1000x500 matrices: worst "
        f"relative gap {worst:.2e} (<= 1e-6); exact-rank reconstruction "
        f"{recon:.2e} (<= 1e-8)",
    )
