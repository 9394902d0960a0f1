"""Iterative magnitude pruning on linear models.

One run loops for rounds k = 0..q: reset the active weights to their
initialization, train to the horizon with exact gradient flow, record the
trained vector, then delete the smallest-magnitude active weights.  The
returned final weights are the round-q trained vector, i.e. the vector
trained under a mask with exactly q * per_round coordinates pruned, before
that round's own prune is applied.

A run sees the data only through the normal equations of its loss
(1/2n)||y - Phi w||^2: the covariance Sigma = Phi^T Phi / n and
b = Phi^T y / n.  `run_imp` executes a stack of runs that share p and the
config in one round loop: at round k every run has m = p - k * per_round
active coordinates, so a round of the stack is a (T, m) block.  The stack's
trace is three arrays allocated before the loop and filled by one write
per round: the (T, q+1, p) trained weights, the (T, q+1, p) active masks
and the (T, q+1, per_round) pruned indices; each run's `ImpTrace` holds
read-only views of its rows.  The factorization a round was trained with
goes to an `on_round` observer and is dropped after it.

Two exact paths train a round, and each run takes its own from its input.
The eigendecomposition path factorizes the restricted covariance Sigma_A
every round and solves the flow in its eigenbasis; it handles every horizon
and singular Sigma_A.  The runs a round factorizes share one stacked
`sym_eig` call.  At the infinite horizon with every eigenvalue of the
full Sigma above the rank tolerance, the trained weights are
Sigma_A^{-1} b_A, and by Cauchy interlacing every later Sigma_A is
nonsingular too.  Then only round 0 is factorized, and each later round
removes the pruned block from the previous round's inverse (round 0's is
the pseudo-inverse kept on its SymEig) and weights by a
Schur-complement downdate in O(m^2), one stacked step for every run on this
path: IMP as backward greedy elimination (Couvreur & Bresler, SIAM J.
Matrix Anal. Appl. 21(3), 2000).

Indices are 0-based throughout.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .flow import INFINITE, closed_form_weights, is_infinite, normalize_horizon
from .linalg import CovMatrix, SymEig, pseudo_inverse, sym_eig

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
    """The coordinates active before this round's prune (a boolean array),
    the trained vector, and what was pruned; both arrays are read-only."""

    active: np.ndarray
    weights: np.ndarray
    pruned: tuple[int, ...]

    @property
    def pruned_magnitudes(self) -> tuple[float, ...]:
        return tuple(float(abs(self.weights[i])) for i in self.pruned)


@dataclass(frozen=True)
class ImpTrace:
    """One run's rounds as read-only views of its stack's trace arrays:
    weights (q+1, p), active (q+1, p) booleans and pruned (q+1, per_round)
    indices; row k is round k."""

    weights: np.ndarray
    active: np.ndarray
    pruned: np.ndarray

    @property
    def rounds(self) -> tuple[RoundRecord, ...]:
        return tuple(RoundRecord(active=a, weights=w, pruned=tuple(i.tolist()))
                     for a, w, i in zip(self.active, self.weights, self.pruned))

    @property
    def final_weights(self) -> np.ndarray:
        return self.weights[-1]

    @property
    def prune_order(self) -> tuple[int, ...]:
        return tuple(self.pruned.ravel().tolist())


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

    Every inverse that enters is exactly symmetric: `pseudo_inverse`
    returns (M + M^T) / 2, whose bits are symmetric because IEEE addition
    commutes, and each downdate returns a symmetric inverse.  For one
    dropped coordinate G^T G is the outer product of a vector with itself,
    g_i g_j == g_j g_i bit for bit, so the Schur complement is symmetric as
    computed; a block's product is not, and is symmetrized.
    """
    d, m = weights.shape
    r = drop.shape[1]
    rows = np.arange(d)[:, None]
    keep = np.ones((d, m), dtype=bool)
    keep[rows, drop] = False
    # in place where possible: each (D, m, m) temporary costs fresh pages
    smaller = inverse[keep[:, :, None] & keep[:, None, :]].reshape(d, m - r, m - r)
    w_kept = weights[keep].reshape(d, m - r)
    if r == 1:  # scalar Cholesky; `>` is False on NaN too
        t, j = rows[:, 0], drop[:, 0]
        drop_row = inverse[t, j]  # (D, m): row J of each slice
        pivot = drop_row[t, j]
        ok = pivot > 0.0
        root = np.sqrt(np.where(ok, pivot, 1.0))[:, None]
        g = drop_row[keep].reshape(d, m - 1) / root
        # G^T G = g g^T and G^T g = g g_w: each entry is one multiplication
        smaller -= g[:, :, None] * g[:, None, :]
        return smaller, w_kept - g * (weights[t, j][:, None] / root), ok
    kept = np.nonzero(keep)[1].reshape(d, -1)
    pivot = inverse[rows[:, :, None], drop[:, :, None], drop[:, None, :]]
    rhs = np.concatenate((inverse[rows[:, :, None], drop[:, :, None], kept[:, None, :]],
                          weights[rows, drop][:, :, None]), axis=2)
    ok = np.ones(d, dtype=bool)
    try:
        chol = np.linalg.cholesky(pivot)
    except np.linalg.LinAlgError:  # some slice drifted: factor the others
        ok = np.array([_positive_definite(a) for a in pivot])
        chol = np.linalg.cholesky(np.where(ok[:, None, None], pivot, np.eye(r)))
    g = np.linalg.solve(chol, rhs)
    g_t, g_c, g_w = g[:, :, :-1].transpose(0, 2, 1), g[:, :, :-1], g[:, :, -1:]
    smaller -= g_t @ g_c
    smaller += smaller.transpose(0, 2, 1)
    smaller /= 2.0
    return smaller, w_kept - (g_t @ g_w)[:, :, 0], ok


def _factorize(
    covs: Sequence[CovMatrix], active: np.ndarray, runs: list[int], k: int
) -> list[SymEig]:
    """The eigendecompositions of Sigma_A of the given runs at round k, by
    one stacked `sym_eig` call.  Round 0 trains on every coordinate, so its
    stack holds each distinct covariance itself, and the runs on one
    CovMatrix object share its SymEig."""
    if k:
        return sym_eig(np.stack([covs[t].restrict(active[t]).entries for t in runs]))
    distinct = {id(covs[t]): covs[t] for t in runs}
    eigs = dict(zip(distinct, sym_eig(np.stack([cov.entries for cov in distinct.values()]))))
    return [eigs[id(covs[t])] for t in runs]


def run_imp(
    covs: Sequence[CovMatrix], b: np.ndarray, config: ImpConfig,
    on_round: RoundObserver | None = None,
) -> list[ImpTrace]:
    """Execute the pruning loop on a stack of runs and return one trace per run.

    Run t trains on the covariance covs[t] and the data vector b[t], a row of
    the (T, p) array b.  The runs share p and the config; a single run is a
    stack of one.  Each run trains on its own path, and the result of a run
    does not depend on the rest of its stack.  Runs on one CovMatrix object
    (the sigma cells of a baselines trial) share its round-0 factorization
    and pseudo-inverse.
    """
    if not covs:
        raise ValueError("run_imp needs at least one covariance")
    p = covs[0].p
    data_vec = np.asarray(b, dtype=float)
    if any(cov.p != p for cov in covs) or data_vec.shape != (len(covs), p):
        raise ValueError(f"need T covariances of one p and b of shape (T, p), got "
                         f"T = {len(covs)}, p = {p} and b of shape {data_vec.shape}")
    w_init = config.w_init if config.w_init is not None else np.zeros(p)
    if w_init.shape != (p,):
        raise ValueError(f"w_init must have length p={p}, got {w_init.shape}")
    q = config.prune_rounds
    if config.per_round * (q + 1) > p:
        raise ValueError(
            f"per_round * (prune_rounds + 1) = {config.per_round * (q + 1)} exceeds p = {p}"
        )

    stack = len(covs)
    rows = np.arange(stack)[:, None]
    active = np.tile(np.arange(p), (stack, 1))
    alive = np.ones((stack, p), dtype=bool)
    trained = np.zeros((stack, q + 1, p))
    masks = np.empty((stack, q + 1, p), dtype=bool)
    pruned = np.empty((stack, q + 1, config.per_round), dtype=active.dtype)
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
            todo = [t for t in range(stack) if factors[t] is None]
            for t, eig in zip(todo, _factorize(covs, active, todo, k)):
                idx = active[t]
                weights[t] = closed_form_weights(eig, data_vec[t, idx], w_init[idx],
                                                 config.horizon)
                exact[t] = exact[t] and bool(eig.nonzero_mask().all())
                factors[t] = eig
            # runs factorized now that stay exact join the downdate
            joining = [t for t in todo if exact[t] and k < q]
            if joining:
                down = np.sort(np.concatenate((down, joining)))  # `todo` excludes `down`
                inverse = np.stack([f if isinstance(f, np.ndarray) else pseudo_inverse(f)
                                    for f in (factors[t] for t in down.tolist())])

        if on_round is not None:
            on_round(k, active, weights, factors)
        local = _select_prune(np.abs(weights), config.per_round, config.tie_break)
        pruned[:, k] = active[rows, local]
        trained[:, k][alive] = weights.ravel()  # rows of `active` ascend, as `alive` is read
        masks[:, k] = alive
        if k == q:
            break

        alive[rows, pruned[:, k]] = False
        active = np.nonzero(alive)[1].reshape(stack, -1)
        if down.size:
            on = slice(None) if down.size == stack else down
            inverse, w_down, ok = _downdate(inverse, weights[on], local[on])
            if not ok.all():  # drift: these runs are factorized afresh next round
                down, inverse, w_down = down[ok], inverse[ok], w_down[ok]

    for a in (trained, masks, pruned):
        a.setflags(write=False)  # so is every view of it
    return [ImpTrace(weights=w, active=a, pruned=i) for w, a, i in zip(trained, masks, pruned)]


def imp_prune_order(
    covs: Sequence[CovMatrix], b: np.ndarray, config: ImpConfig | None = None
) -> np.ndarray:
    """Full pruning rankings of a stack of runs, one row per run: each run
    goes with q = p - 1 and one prune per round."""
    base = config if config is not None else ImpConfig()
    full = replace(base, prune_rounds=covs[0].p - 1, per_round=1)
    return np.array([trace.pruned[:, 0] for trace in run_imp(covs, b, full)], dtype=int)


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
