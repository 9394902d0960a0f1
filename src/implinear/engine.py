"""Iterative magnitude pruning on linear models.

One run loops for rounds k = 0..q: reset the active weights to their
initialization, train to the horizon with exact gradient flow, record the
trained vector, then delete the smallest-magnitude active weights.  The
returned final weights are the round-q trained vector, i.e. the vector
trained under a mask with exactly q * per_round coordinates pruned, before
that round's own prune is applied.

`run_imp` executes a stack of runs that share p and the config in one round
loop: at round k every run has m = p - k * per_round active coordinates, so
a round of the stack is a (T, m) block.  The trace keeps each round's
active array, weights and prune events; the factorization a round was
trained with goes to an `on_round` observer and is dropped after it.

Two exact paths train a round, and each run takes its own from its input.
The eigendecomposition path factorizes the restricted covariance Sigma_A
every round and solves the flow in its eigenbasis; it handles every horizon
and singular Sigma_A.  At the infinite horizon with every eigenvalue of the
full Sigma above the rank tolerance, the trained weights are
Sigma_A^{-1} b_A, and by Cauchy interlacing every later Sigma_A is
nonsingular too.  Then only round 0 is factorized, and each later round
removes the pruned block from the previous round's inverse and weights by a
Schur-complement downdate in O(m^2), one stacked step for every run on this
path: IMP as backward greedy elimination (Couvreur & Bresler, SIAM J.
Matrix Anal. Appl. 21(3), 2000).

Indices are 0-based throughout.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .designs import FeatureSet
from .flow import INFINITE, closed_form_weights, is_infinite, normalize_horizon
from .linalg import SymEig, pseudo_inverse, sym_eig

TIE_BREAK_RULES = ("lowest_index", "highest_index")


@dataclass(frozen=True)
class ImpConfig:
    """Inputs of one pruning run.

    prune_rounds is the loop bound q: the loop body executes q + 1 times and
    prunes q + 1 times, but the returned weights come from round q's
    training, under a mask with q * per_round pruned coordinates.  w_init
    defaults to the zero vector.  The argmin tie rule is "lowest_index"
    unless configured otherwise.
    """

    horizon: float = INFINITE
    prune_rounds: int = 0
    w_init: np.ndarray | None = None
    per_round: int = 1
    tie_break: str = "lowest_index"

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", normalize_horizon(self.horizon))
        if self.prune_rounds < 0:
            raise ValueError("prune_rounds must be nonnegative")
        if self.per_round < 1:
            raise ValueError("per_round must be positive")
        if self.tie_break not in TIE_BREAK_RULES:
            raise ValueError(f"unknown tie_break rule {self.tie_break!r}")
        if self.w_init is not None:
            object.__setattr__(self, "w_init", np.asarray(self.w_init, dtype=float))


@dataclass(frozen=True)
class RoundRecord:
    """The coordinates active before this round's prune (a read-only boolean
    array), the trained vector, and what was pruned."""

    active: np.ndarray
    weights: np.ndarray
    pruned: tuple[int, ...]

    @property
    def pruned_magnitudes(self) -> tuple[float, ...]:
        return tuple(float(abs(self.weights[i])) for i in self.pruned)


@dataclass(frozen=True)
class ImpTrace:
    """The rounds of one run; the final weights and prune order derive from them."""

    rounds: tuple[RoundRecord, ...]

    @property
    def final_weights(self) -> np.ndarray:
        return self.rounds[-1].weights

    @property
    def prune_order(self) -> tuple[int, ...]:
        return tuple(i for rec in self.rounds for i in rec.pruned)


# on_round(k, active, weights, factors) sees round k of a stack of T runs after
# training and before the prune: the (T, m) active indices, the (T, m) trained
# active weights, and a sequence of the factorizations each run was trained
# with, its SymEig of Sigma_A on a factorized round or its (m, m) slice of the
# stacked Sigma_A^{-1} on a downdated round; when every run is downdated it is
# that (T, m, m) stack itself.  The engine keeps none of them.
RoundObserver = Callable[[int, np.ndarray, np.ndarray, Sequence], None]


def _select_prune(
    magnitudes: np.ndarray, count: int, tie_break: str
) -> np.ndarray:
    """Per row, local indices of the `count` smallest magnitudes under the tie rule."""
    if tie_break == "lowest_index":
        order = np.argsort(magnitudes, axis=-1, kind="stable")
    else:  # highest_index: among ties, the larger index goes first
        index = np.broadcast_to(-np.arange(magnitudes.shape[-1]), magnitudes.shape)
        order = np.lexsort((index, magnitudes), axis=-1)
    return order[:, :count]


def _positive_definite(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _downdate(
    inverse: np.ndarray, weights: np.ndarray, drop: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Remove the local coordinates `drop` from a stack of Sigma_A^{-1} and weights.

    inverse is (D, m, m), weights (D, m) and drop (D, r).  Per slice, with
    C = Sigma_A^{-1}, J the dropped and K the kept coordinates, the smaller
    inverse is the Schur complement C_KK - C_KJ C_JJ^{-1} C_JK and the
    retrained weights are w_K - C_KJ C_JJ^{-1} w_J.  Both go through the
    Cholesky factor L of C_JJ: with [G | g] = L^{-1} [C_JK | w_J] they are
    C_KK - G^T G and w_K - G^T g.  Returns (inverse, weights, ok); ok is
    False on the slices where C_JJ is not positive definite, the sign of
    accumulated drift, and their rows of the other two are meaningless.
    """
    d, m = weights.shape
    rows = np.arange(d)[:, None, None]
    keep = (np.arange(m) != drop[:, :, None]).all(axis=1)
    kept = np.nonzero(keep)[1].reshape(d, -1)
    pivot = inverse[rows, drop[:, :, None], drop[:, None, :]]
    rhs = np.concatenate((inverse[rows, drop[:, :, None], kept[:, None, :]],
                          weights[rows[:, 0], drop][:, :, None]), axis=2)
    if drop.shape[1] == 1:  # scalar Cholesky; `>` is False on NaN too
        ok = pivot[:, 0, 0] > 0.0
        g = rhs / np.sqrt(np.where(ok[:, None, None], pivot, 1.0))
    else:
        ok = np.ones(d, dtype=bool)
        try:
            chol = np.linalg.cholesky(pivot)
        except np.linalg.LinAlgError:  # some slice drifted: factor the others
            ok = np.array([_positive_definite(a) for a in pivot])
            chol = np.linalg.cholesky(np.where(ok[:, None, None], pivot, np.eye(drop.shape[1])))
        g = np.linalg.solve(chol, rhs)
    g_t, g_c, g_w = g[:, :, :-1].transpose(0, 2, 1), g[:, :, :-1], g[:, :, -1:]
    m_kept = kept.shape[1]
    # in place where possible: each (D, m, m) temporary costs fresh pages
    smaller = inverse[keep[:, :, None] & keep[:, None, :]].reshape(d, m_kept, m_kept)
    smaller -= g_t @ g_c
    smaller += smaller.transpose(0, 2, 1)
    smaller /= 2.0
    return smaller, weights[keep].reshape(d, m_kept) - (g_t @ g_w)[:, :, 0], ok


def run_imp(
    features: Sequence[FeatureSet], config: ImpConfig, on_round: RoundObserver | None = None
) -> list[ImpTrace]:
    """Execute the pruning loop on a stack of runs and return one trace per run.

    The runs share p and the config; a single run is a stack of one.  Each
    run trains on its own path, and the result of a run does not depend on
    the rest of its stack.
    """
    if not features:
        raise ValueError("run_imp needs at least one FeatureSet")
    p = features[0].p
    if any(fs.p != p for fs in features):
        raise ValueError("every FeatureSet of a stack must have the same p")
    data_vec = np.stack([fs.phi.T @ fs.require_targets() / fs.n for fs in features])
    w_init = config.w_init if config.w_init is not None else np.zeros(p)
    if w_init.shape != (p,):
        raise ValueError(f"w_init must have length p={p}, got {w_init.shape}")
    q = config.prune_rounds
    if config.per_round * (q + 1) > p:
        raise ValueError(
            f"per_round * (prune_rounds + 1) = {config.per_round * (q + 1)} exceeds p = {p}"
        )

    stack = len(features)
    rows = np.arange(stack)[:, None]
    active = np.tile(np.arange(p), (stack, 1))
    alive = np.ones((stack, p), dtype=bool)
    records: list[list[RoundRecord]] = [[] for _ in features]
    # A run takes the downdate path with an infinite horizon and a nonsingular
    # round-0 factorization, and leaves it for good at the first singular
    # refactorization, which interlacing rules out up to roundoff.  `down`
    # lists the runs whose round is downdated; `inverse` and `w_down` stack
    # their Sigma_A^{-1} and trained weights.
    exact = np.full(stack, is_infinite(config.horizon))
    down = np.zeros(0, dtype=int)
    inverse, w_down = np.empty((0, p, p)), None
    for k in range(q + 1):
        if down.size == stack:  # nothing to factorize: the stack is the downdate's
            weights, factors = w_down, inverse
        else:
            weights = np.empty(active.shape)
            factors = [None] * stack
            if down.size:
                weights[down] = w_down
                for t, inv in zip(down.tolist(), inverse):
                    factors[t] = inv
            joining = {}  # runs factorized now that stay exact join the downdate
            for t in range(stack):
                if factors[t] is None:
                    idx = active[t]
                    eig = sym_eig(features[t].covariance.restrict(idx))
                    weights[t] = closed_form_weights(eig, data_vec[t, idx], w_init[idx],
                                                     config.horizon)
                    exact[t] = exact[t] and bool(eig.nonzero_mask().all())
                    factors[t] = eig
                    if exact[t] and k < q:
                        joining[t] = pseudo_inverse(eig)
            if joining:
                joining.update(zip(down.tolist(), inverse))
                down = np.array(sorted(joining))
                inverse = np.stack([joining[t] for t in down.tolist()])

        if on_round is not None:
            on_round(k, active, weights, factors)
        local = _select_prune(np.abs(weights), config.per_round, config.tie_break)
        pruned = active[rows, local]
        full = np.zeros((stack, p))
        full[alive] = weights.ravel()  # rows of `active` ascend, as `alive` is read
        mask = alive.copy()
        mask.setflags(write=False)
        for t in range(stack):
            records[t].append(RoundRecord(active=mask[t], weights=full[t],
                                          pruned=tuple(pruned[t].tolist())))
        if k == q:
            break

        alive[rows, pruned] = False
        active = np.nonzero(alive)[1].reshape(stack, -1)
        if down.size:
            on = slice(None) if down.size == stack else down
            inverse, w_down, ok = _downdate(inverse, weights[on], local[on])
            if not ok.all():  # drift: these runs are factorized afresh next round
                down, inverse, w_down = down[ok], inverse[ok], w_down[ok]

    return [ImpTrace(rounds=tuple(r)) for r in records]


def imp_prune_order(
    features: Sequence[FeatureSet], config: ImpConfig | None = None
) -> np.ndarray:
    """Full pruning rankings of a stack of runs, one row per run: each run
    goes with q = p - 1 and one prune per round."""
    base = config if config is not None else ImpConfig()
    full = replace(base, prune_rounds=features[0].p - 1, per_round=1)
    return np.array([trace.prune_order for trace in run_imp(features, full)], dtype=int)


def trace_to_dict(trace: ImpTrace) -> dict:
    """JSON-ready form of a trace (the audit schema used by the harness)."""
    return {
        "final_weights": trace.final_weights.tolist(),
        "rounds": [
            {
                "active": rec.active.tolist(),
                "weights": rec.weights.tolist(),
                "pruned": list(rec.pruned),
                "pruned_magnitudes": list(rec.pruned_magnitudes),
            }
            for rec in trace.rounds
        ],
    }
