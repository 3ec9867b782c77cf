"""Test oracles: independent computations that the package's results are checked against."""

from corrpool.pcr import PiecewiseSensitivity
from corrpool.theory import _POOL_SIZE, CounterexampleResult, _eta_and_efficiency, _validate_counterexample_args


def _enumerate_pool(joint, sens: PiecewiseSensitivity, alpha: float):
    """Expectations over a size-2 pool: exhaustive sum over the joint load
    table and every (pooled, individual, individual) outcome triple."""
    e_y = 0.0
    e_fn = 0.0
    for (v1, v2), prob in joint:
        p_pool = sens.success_probability(v1 + v2, _POOL_SIZE)
        p1 = sens.success_probability(v1)
        p2 = sens.success_probability(v2)
        for y in (0, 1):
            py = p_pool if y else 1.0 - p_pool
            for w1 in (0, 1):
                pw1 = p1 if w1 else 1.0 - p1
                for w2 in (0, 1):
                    pw2 = p2 if w2 else 1.0 - p2
                    p_out = prob * py * pw1 * pw2
                    e_y += p_out * y
                    e_fn += p_out * ((v1 > 0) * (1 - y * w1) + (v2 > 0) * (1 - y * w2))
    beta = e_fn / (_POOL_SIZE * alpha)
    return beta, e_y, *_eta_and_efficiency(e_y, beta, alpha)


def counterexample_enumerate(theta1: float, theta2: float, alpha: float) -> CounterexampleResult:
    """Independent oracle for the closed forms via exhaustive enumeration."""
    _validate_counterexample_args(theta1, theta2, alpha)
    sens = PiecewiseSensitivity(theta1, theta2)
    a = alpha
    correlated = [((0, 0), 1.0 - 1.5 * a), ((0, 3), a / 2.0), ((3, 0), a / 2.0), ((2, 2), a / 2.0)]
    marginal = [(0, 1.0 - a), (2, a / 2.0), (3, a / 2.0)]
    naive = [((v1, v2), p1 * p2) for v1, p1 in marginal for v2, p2 in marginal]
    beta0, ey0, eta0, eff0 = _enumerate_pool(naive, sens, a)
    beta1, ey1, eta1, eff1 = _enumerate_pool(correlated, sens, a)
    return CounterexampleResult(beta0, beta1, ey0, ey1, eta0, eta1, eff0, eff1)
