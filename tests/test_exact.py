"""Monte Carlo rates checked against exact answers on the orthonormal design.

On the orthonormal design with Gaussian noise, IMP prunes in the order of
|b_i| with b ~ N(s, sigma^2 / n I), so a recover run's failure rate has a
closed form (`oracles.recover_failure_probability`).  The grid, the seeds and
the level below were fixed before the test first ran.  A point whose interval
misses its exact value is a finding to report, not a reason to re-seed.
"""

import pytest

from implinear.harness import (
    DesignSpec,
    ExperimentSpec,
    ImpSpec,
    NoiseSpec,
    SignalSpec,
    run_support_recovery,
)
from implinear.theory import exact_binomial_ci
from oracles import recover_failure_probability

# recover-p50's config (p = 50, k = 5, gamma 0.5, sigma 1, q = 45, so five
# coordinates survive) at n below the bound's 222: (n, base_seed)
GRID = ((55, 31_055_000), (75, 31_075_000))
TRIALS = 2000
FAMILY_LEVEL = 0.01  # Bonferroni-corrected over the grid


@pytest.mark.parametrize("n, base_seed", GRID)
def test_recover_failure_rate_covers_the_exact_probability(n, base_seed):
    spec = ExperimentSpec(
        kind="support_recovery",
        design=DesignSpec(kind="orthonormal", p=50, n=n),
        trials=TRIALS,
        base_seed=base_seed,
        signal=SignalSpec(k=5, gamma=0.5),
        noise=NoiseSpec(kind="gaussian", sigma=1.0),
        imp=ImpSpec(q=45),
    )
    summary = run_support_recovery(spec).summary
    exact = recover_failure_probability(n, p=50, k=5, gamma=0.5, sigma=1.0, survivors=5)
    failures = summary.failure_counts["false_exclusion"]
    assert summary.failure_counts == {"false_exclusion": failures, "onp_rejected": 0,
                                      "sparsity": 0}
    lo, hi = exact_binomial_ci(failures, TRIALS, 1.0 - FAMILY_LEVEL / len(GRID))
    assert lo <= exact <= hi, f"{failures}/{TRIALS} at n={n}: [{lo:.4f}, {hi:.4f}] vs {exact:.4f}"


@pytest.mark.parametrize("n, exact", [(55, 0.4443), (75, 0.1868), (88, 0.0970), (222, 2.937e-5)])
def test_exact_failure_probability_at_recover_p50(n, exact):
    """The README's table of exact failure probabilities at recover-p50's
    config, from n = 55 (a quarter of the bound) to the bound itself."""
    got = recover_failure_probability(n, p=50, k=5, gamma=0.5, sigma=1.0, survivors=5)
    assert got == pytest.approx(exact, rel=5e-4)
