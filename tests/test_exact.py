"""Monte Carlo rates checked against exact answers on the orthonormal design.

On the orthonormal design with Gaussian noise, Sigma = I and
b ~ N(s, sigma^2 / n I).  So IMP prunes in the order of |b_i|, hard
thresholding keeps the |b_i| above tau, and lemma 1's projected noise is
N(0, sigma^2 / n I): each run's rate has a closed form in `oracles`.  The
grid, the seeds and the level below were fixed before the test first ran.
A point whose interval misses its exact value is a finding to report, not a
reason to re-seed.
"""

import pytest

from implinear.harness import (
    DesignSpec,
    ExperimentSpec,
    ImpSpec,
    NoiseSpec,
    SignalSpec,
    run_baseline_comparison,
    run_concentration_check,
    run_support_recovery,
)
from implinear.theory import exact_binomial_ci
from oracles import (
    ht_recovery_probability,
    lemma1_exceedance_probability,
    recover_failure_probability,
)

# recover-p50's config (p = 50, k = 5, gamma 0.5, sigma 1, q = 45, so five
# coordinates survive) at n below the bound's 222, and at n = 75 with the
# same five survivors by per_round 3 and q 15, and at horizon 0.5:
# (n, base_seed, imp)
RECOVER_GRID = (
    pytest.param(55, 31_055_000, ImpSpec(q=45), id="55-31055000"),
    pytest.param(75, 31_075_000, ImpSpec(q=45), id="75-31075000"),
    pytest.param(75, 32_000_000, ImpSpec(q=15, per_round=3), id="75-32000000-per_round_3"),
    pytest.param(75, 32_100_000, ImpSpec(q=45, horizon=0.5), id="75-32100000-horizon_0.5"),
)
RECOVER_TRIALS = 2000
# lemma 1 at p = 20, sigma 1, epsilon 0.25, delta 0.1, whose bound is n = 192:
# (n, base_seed)
LEMMA1_GRID = ((20, 32_200_000), (30, 32_300_000), (192, 32_400_000))
LEMMA1_DRAWS = 4000
# recover-p50's signal with hard thresholding's default tau = gamma / 2, and
# IMP at q = p - k: (n, base_seed, methods checked)
BASELINE_GRID = ((75, 32_500_000, ("ht", "imp")), (150, 32_600_000, ("ht",)))
BASELINE_TRIALS = 2000

FAMILY_LEVEL = 0.01  # Bonferroni-corrected over every interval of the grid
INTERVALS = len(RECOVER_GRID) + len(LEMMA1_GRID) + sum(len(m) for *_, m in BASELINE_GRID)
LEVEL = 1.0 - FAMILY_LEVEL / INTERVALS


def assert_covers(count: int, trials: int, exact: float, where: str) -> None:
    lo, hi = exact_binomial_ci(count, trials, LEVEL)
    assert lo <= exact <= hi, f"{count}/{trials} {where}: [{lo:.4f}, {hi:.4f}] vs {exact:.4f}"


def recover_spec(n: int, base_seed: int, trials: int, imp: ImpSpec) -> ExperimentSpec:
    return ExperimentSpec(
        kind="support_recovery",
        design=DesignSpec(kind="orthonormal", p=50, n=n),
        trials=trials,
        base_seed=base_seed,
        signal=SignalSpec(k=5, gamma=0.5),
        noise=NoiseSpec(kind="gaussian", sigma=1.0),
        imp=imp,
    )


def recover_p50(n):
    return recover_failure_probability(n, p=50, k=5, gamma=0.5, sigma=1.0, survivors=5)


def lemma1_p20(n):
    return lemma1_exceedance_probability(n, p=20, epsilon=0.25, sigma=1.0)


def ht_p50(n):
    return ht_recovery_probability(n, p=50, k=5, gamma=0.5, sigma=1.0, tau=0.25)


@pytest.mark.parametrize("n, base_seed, imp", RECOVER_GRID)
def test_recover_failure_rate_covers_the_exact_probability(n, base_seed, imp):
    summary = run_support_recovery(recover_spec(n, base_seed, RECOVER_TRIALS, imp)).summary
    exact = recover_failure_probability(n, p=50, k=5, gamma=0.5, sigma=1.0,
                                        survivors=50 - imp.q * imp.per_round)
    failures = summary.failure_counts["false_exclusion"]
    assert summary.failure_counts == {"false_exclusion": failures, "onp_rejected": 0,
                                      "sparsity": 0}
    assert_covers(failures, RECOVER_TRIALS, exact, f"failures at n={n}, {imp}")


@pytest.mark.parametrize("n, base_seed", LEMMA1_GRID)
def test_lemma1_exceedance_rate_covers_the_exact_probability(n, base_seed):
    spec = ExperimentSpec(
        kind="lemma1_check",
        design=DesignSpec(kind="orthonormal", p=20, n=n),
        trials=LEMMA1_DRAWS,
        base_seed=base_seed,
        signal=SignalSpec(k=1, gamma=0.5),
        noise=NoiseSpec(kind="gaussian", sigma=1.0),
        epsilon=0.25,
        delta=0.1,
    )
    report = run_concentration_check(spec)
    assert (report.n, report.bound_n) == (n, 192)
    exact = lemma1_p20(n)
    assert_covers(report.summary.failure_counts["exceedance"], LEMMA1_DRAWS, exact,
                  f"exceedances at n={n}")


@pytest.mark.parametrize("n, base_seed, methods", BASELINE_GRID)
def test_baseline_exact_rates_cover_the_exact_probabilities(n, base_seed, methods):
    spec = ExperimentSpec(
        kind="baseline_comparison",
        design=DesignSpec(kind="orthonormal", p=50, n=n),
        trials=BASELINE_TRIALS,
        base_seed=base_seed,
        signal=SignalSpec(k=5, gamma=0.5),
        noise=NoiseSpec(kind="gaussian", sigma=1.0),
    )
    exact = {"ht": ht_p50(n), "imp": 1.0 - recover_p50(n)}
    counts = {c.method: c.exact_count for c in run_baseline_comparison(spec)}
    for method in methods:
        assert_covers(counts[method], BASELINE_TRIALS, exact[method],
                      f"exact recoveries of {method} at n={n}")


def test_verdicts_depend_only_on_the_survivor_count():
    """On the orthonormal design Sigma = I bit for bit, so every round prunes
    the smallest active |b_i| whatever the horizon, and a trial's verdicts
    depend on q and per_round only through the p - q * per_round survivors."""
    runs = [run_support_recovery(recover_spec(75, 32_700_000, 300, imp)).records
            for imp in (ImpSpec(q=9, per_round=5, horizon=0.5), ImpSpec(q=45, per_round=1))]
    verdicts = [[(r.sparsity_ok, r.no_false_exclusion) for r in records] for records in runs]
    assert len(verdicts[0]) == 300
    assert verdicts[0] == verdicts[1]
    assert 0 < sum(ok for _, ok in verdicts[0]) < 300  # some trials fail, so rows can differ


@pytest.mark.parametrize("n, exact", [(55, 0.4443), (75, 0.1868), (88, 0.0970), (222, 2.937e-5)])
def test_exact_failure_probability_at_recover_p50(n, exact):
    """The README's table of exact failure probabilities at recover-p50's
    config, from n = 55 (a quarter of the bound) to the bound itself."""
    assert recover_p50(n) == pytest.approx(exact, rel=5e-4)


@pytest.mark.parametrize("oracle, n, exact", [
    (lemma1_p20, 20, 0.9978), (lemma1_p20, 30, 0.9764), (lemma1_p20, 192, 0.01059),
    (ht_p50, 75, 0.2311), (ht_p50, 150, 0.9007),
])
def test_exact_lemma1_and_hard_thresholding_values(oracle, n, exact):
    """The README's other exact values: lemma 1's exceedance at p = 20 up to
    its bound n = 192, and hard thresholding's exact recovery at
    recover-p50's signal with tau = gamma / 2."""
    assert oracle(n) == pytest.approx(exact, rel=5e-4)
