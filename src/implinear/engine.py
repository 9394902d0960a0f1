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

Two exact paths train a round, and each run takes its own at round 0.
The eigendecomposition path factorizes the restricted covariance Sigma_A
every round and solves the flow in its eigenbasis; it handles every horizon
and singular Sigma_A.  The runs a round factorizes share one stacked
`sym_eig` call.  At the infinite horizon with every eigenvalue of the
full Sigma above the rank tolerance, the trained weights are
Sigma_A^{-1} b_A, and by Cauchy interlacing every later Sigma_A is
nonsingular too.  Then only round 0 is factorized, and each later round
removes the pruned block from the previous round's inverse (round 0's is
the pseudo-inverse of its SymEig) and weights by a
Schur-complement downdate in O(m^2), one stacked step for every run on this
path: IMP as backward greedy elimination (Couvreur & Bresler, SIAM J.
Matrix Anal. Appl. 21(3), 2000).  A downdate whose pivot block is not
positive definite, the sign of drift, puts its run on the eigendecomposition
path for good.  The downdate works in place: the last live rows and
columns move into the pruned slots, so a downdated run's active indices
follow its inverse's rows rather than coordinate order, and the prune's tie
rule reads coordinates.

A decoupled run, whose Sigma has no nonzero entry off its diagonal and
whose round-0 factorization is nonsingular, takes neither path after round
0, at any horizon.  Its flow is one scalar ODE per coordinate, so a prune
leaves every other trained weight as it was: each later round's weights
are round 0's on its active indices, which follow the swap-remove.  That is
what the downdate computes for it (its Schur row is zero) and, bit for bit,
what a per-round `eigh` of the diagonal Sigma_A gives wherever LAPACK does
not rescale the matrix.

Runs on one CovMatrix object that have pruned the same coordinates have
the same Sigma_A, bit for bit, so they share its work: a round factorizes
each distinct Sigma_A once, and the downdate keeps one slice of its
inverse stack per group of such runs, with `owner` mapping runs to slices.
A group whose runs prune differently splits, and its slice is copied.  Each
run's weights are updated from its own slice's Schur row, so every trace
has the bits of the run computed alone.  Runs of distinct covariances are
groups of one and take the unshared steps.  The trials of an orthonormal
Gaussian `recover` range share the one identity CovMatrix and its round-0
SymEig, and are decoupled.

Indices are 0-based throughout.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from .flow import INFINITE, closed_form_weights, is_infinite, normalize_horizon
from .linalg import CovMatrix, SymEig, pseudo_inverse, sym_eig

TIE_BREAK_RULES = ("lowest_index", "highest_index")


class ImpConfig:
    """Inputs of one pruning run.

    prune_rounds is the loop bound q: the loop body executes q + 1 times and
    prunes q + 1 times, but the returned weights come from round q's
    training, under a mask with q * per_round pruned coordinates.  w_init
    defaults to the zero vector.  The argmin tie rule is "lowest_index"
    unless configured otherwise.
    """

    __slots__ = ("horizon", "prune_rounds", "w_init", "per_round", "tie_break")

    def __init__(self, horizon: float = INFINITE, prune_rounds: int = 0,
                 w_init: np.ndarray | None = None, per_round: int = 1,
                 tie_break: str = "lowest_index") -> None:
        self.horizon = normalize_horizon(horizon)
        if prune_rounds < 0:
            raise ValueError("prune_rounds must be nonnegative")
        if per_round < 1:
            raise ValueError("per_round must be positive")
        if tie_break not in TIE_BREAK_RULES:
            raise ValueError(f"tie_break must be one of {', '.join(TIE_BREAK_RULES)}, "
                             f"got {tie_break!r}")
        self.prune_rounds, self.per_round, self.tie_break = prune_rounds, per_round, tie_break
        self.w_init = None if w_init is None else np.asarray(w_init, dtype=float)


class ImpTrace(NamedTuple):
    """One run's rounds as read-only views of its stack's trace arrays:
    weights (q+1, p), active (q+1, p) booleans and pruned (q+1, per_round)
    indices; row k is round k."""

    weights: np.ndarray
    active: np.ndarray
    pruned: np.ndarray

    @property
    def final_weights(self) -> np.ndarray:
        return self.weights[-1]


class RoundFactors(NamedTuple):
    """The factorizations one round of a stack was trained with.

    eigs maps the runs factorized this round to their SymEig.  inverse is
    the downdate's (G, m, m) stack of Sigma_A^{-1}, and slot[t] is run t's
    slice of it, -1 for a run off the downdate; a decoupled run is in eigs
    at round 0 only and always has slot -1.  Runs that share a slice
    share its array, whose rows and columns follow run t's row of the
    round's `active`.  The slices are views of the engine's buffer, which
    the next downdate overwrites: they are valid only during the observer's
    call.
    """

    eigs: dict[int, SymEig]
    inverse: np.ndarray
    slot: np.ndarray


# on_round(k, active, weights, factors) sees round k of a stack of T runs after
# training and before the prune: the (T, m) active indices, the (T, m) trained
# active weights in the same order, and the RoundFactors each run was trained
# with.  A downdated or decoupled run's active indices follow the swap-remove,
# not coordinate order; a decoupled run's weights after round 0 are round 0's
# on them.  The engine reuses every one of these arrays once the
# call returns: an observer that keeps one keeps a copy.
RoundObserver = Callable[[int, np.ndarray, np.ndarray, RoundFactors], None]


def _select_prune(
    magnitudes: np.ndarray, active: np.ndarray, count: int, tie_break: str
) -> np.ndarray:
    """Per row, the local positions of the `count` smallest magnitudes.  A tie
    goes to the lower coordinate of `active`, or under "highest_index" to the
    higher one, whatever the order of the row."""
    index = active if tie_break == "lowest_index" else -active
    return np.lexsort((index, magnitudes), axis=-1)[:, :count]


def _positive_definite(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _swap_plan(drop: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The swap-remove of the local positions `drop` (D, r) from rows of
    width m: the kept positions among the last r move, in order, into the
    dropped positions before them.  Returns the (row, to, from) of every
    move; for r = 1 a row whose drop is last moves it onto itself."""
    d, r = drop.shape
    if r == 1:
        return np.arange(d), drop[:, 0], np.full(d, m - 1)
    gone = np.zeros((d, m), dtype=bool)
    gone[np.arange(d)[:, None], drop] = True
    row, to = np.nonzero(gone[:, :m - r])  # row by row, as are the tails: they pair up
    return row, to, np.nonzero(~gone[:, m - r:])[1] + (m - r)


def _swap_remove(a: np.ndarray, plan: tuple, r: int) -> np.ndarray:
    """Rows of `a` (D, m) without their dropped positions, moved in place by
    `_swap_plan`: a view of the leading m - r columns."""
    row, to, frm = plan
    a[row, to] = a[row, frm]
    return a[:, :a.shape[1] - r]


def _downdate(
    inverse: np.ndarray, weights: np.ndarray, drop: np.ndarray, owner: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Remove the local positions `drop` from a stack of Sigma_A^{-1} and
    weights, in place.

    inverse is a (G, M, M) buffer whose leading (m, m) block per slice is
    Sigma_A^{-1}, drop (G, r) and weights (D, m); owner (D,) maps each weight
    row to its slice.  Per slice, with C = Sigma_A^{-1}, J the dropped and K
    the kept positions, the smaller inverse is the Schur complement
    C_KK - C_KJ C_JJ^{-1} C_JK and the retrained weights are
    w_K - C_KJ C_JJ^{-1} w_J: with L the Cholesky factor of C_JJ and
    [G | g] = L^{-1} [C_JK | w_J], they are C_KK - G^T G and w_K - G^T g,
    each weight row taking the G of its own slice.

    K is in swap-remove order (`_swap_plan`), and the complement fills the
    leading (m - r, m - r) block of the same buffer.  Returns (weights, ok):
    the (D, m - r) weights in that order, and ok False on the slices where
    C_JJ is not positive definite (or not finite), the sign of accumulated
    drift, whose rows of the other two are meaningless.

    Every slice stays exactly symmetric: the inverse that enters is
    (`pseudo_inverse` returns (M + M^T) / 2, and IEEE addition commutes),
    g_i g_j == g_j g_i for one dropped position, and a block's G^T G is
    symmetrized before it is subtracted.  A block solves [C_JK | w_J] per
    weight row, as a row alone would; LAPACK solves each right-hand column
    on its own, so the rows of a slice have the same G.
    """
    d, m = weights.shape
    r = drop.shape[1]
    live = inverse[:, :m, :m]
    plan = _swap_plan(drop, m)
    row_drop = drop[owner]
    w_drop = weights[np.arange(d)[:, None], row_drop]
    weights = _swap_remove(weights, _swap_plan(row_drop, m), r)
    if r == 1:  # scalar Cholesky; `>` is False on NaN too
        t, j = plan[:2]
        g = live[t, j]  # (G, m): row J of each slice
        pivot = g[t, j]
        ok = pivot > 0.0
        root = np.sqrt(np.where(ok, pivot, 1.0))[:, None]
        g = _swap_remove(g, plan, 1)
        g /= root
        weights -= g[owner] * (w_drop / root[owner])
        live[t, j] = live[t, m - 1]  # the last row and column into the dropped slot
        live[t, :, j] = live[t, :, m - 1]
        # G^T G = g g^T and G^T g = g g_w: each entry is one multiplication.
        live[:, :m - 1, :m - 1] -= g[:, :, None] * g[:, None, :]
        return weights, ok
    rows = np.arange(len(inverse))[:, None]
    pivot = live[rows[:, :, None], drop[:, :, None], drop[:, None, :]]
    ok = np.isfinite(pivot).all(axis=(1, 2))  # cholesky factors NaN without raising
    pivot[~ok] = np.eye(r)
    try:
        chol = np.linalg.cholesky(pivot)
    except np.linalg.LinAlgError:  # some slice drifted: factor the others
        ok &= np.array([_positive_definite(a) for a in pivot])
        chol = np.linalg.cholesky(np.where(ok[:, None, None], pivot, np.eye(r)))
    row, to, frm = plan
    live[row, :, to] = live[row, :, frm]  # columns first: rows J then hold C_JK
    c_jk = live[rows, drop, :m - r]
    live[row, to] = live[row, frm]
    g = np.linalg.solve(chol[owner], np.concatenate((c_jk[owner], w_drop[:, :, None]), axis=2))
    weights -= (g[:, :, :-1].transpose(0, 2, 1) @ g[:, :, -1:])[:, :, 0]
    first = np.empty(len(inverse), dtype=int)  # each slice's G from one of its rows
    first[owner] = np.arange(d)
    g = g[first]
    gtg = g[:, :, :-1].transpose(0, 2, 1) @ g[:, :, :-1]
    gtg += gtg.transpose(0, 2, 1)
    gtg /= 2.0
    live[:, :m - r, :m - r] -= gtg
    return weights, ok


def _groups(keys: list) -> tuple[np.ndarray, list[int]]:
    """Group equal keys in the order of their first occurrence: the group of
    each key, and the index of each group's first key."""
    group: dict = {}
    owner, firsts = [], []
    for i, key in enumerate(keys):
        if key not in group:
            group[key] = len(firsts)
            firsts.append(i)
        owner.append(group[key])
    return np.array(owner, dtype=int), firsts


def _split(
    inverse: np.ndarray, owner: np.ndarray, drop: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slices' drops (G, r) from the runs' drops (D, r), when the runs of
    each slice agree: (inverse, owner, drops).  Otherwise a slice whose runs
    disagree is copied once per distinct drop, and slices stay in the order
    of their first run."""
    per_slice = np.empty((len(inverse), drop.shape[1]), dtype=drop.dtype)
    per_slice[owner] = drop
    if (per_slice[owner] == drop).all():
        return inverse, owner, per_slice
    split, firsts = _groups(list(zip(owner.tolist(), map(tuple, drop.tolist()))))
    return inverse[owner[firsts]], split, drop[firsts]


def _factorize(
    covs: Sequence[CovMatrix], active: np.ndarray, runs: list[int], k: int
) -> list[SymEig]:
    """The eigendecompositions of Sigma_A of the given runs at round k, by
    one stacked `sym_eig` call on each distinct Sigma_A: runs on one
    CovMatrix object with the same active set share a SymEig.  Round 0
    trains on every coordinate, so its stack holds the covariances
    themselves."""
    if not runs:
        return []
    group, firsts = _groups([(id(covs[t]), active[t].tobytes()) for t in runs])
    distinct = [runs[i] for i in firsts]
    eigs = sym_eig(np.stack([covs[t].restrict(active[t]).entries if k else covs[t].entries
                             for t in distinct]))
    return [eigs[g] for g in group.tolist()]


def run_imp(
    covs: Sequence[CovMatrix], b: np.ndarray, config: ImpConfig,
    on_round: RoundObserver | None = None,
) -> list[ImpTrace]:
    """Execute the pruning loop on a stack of runs and return one trace per run.

    Run t trains on the covariance covs[t] and the data vector b[t], a row of
    the (T, p) array b.  The runs share p and the config; a single run is a
    stack of one.  Each run trains on its own path, and the result of a run
    does not depend on the rest of its stack.  Runs on one CovMatrix object
    (the sigma cells of a baselines trial) share each factorization and each
    slice of the downdate's inverse stack while they prune alike.
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
    # With q > 0 and a nonsingular round-0 factorization, a run on a diagonal
    # Sigma is decoupled: `fixed` lists these runs, whose later rounds read
    # round 0's weights.  Any other such run takes the downdate path at the
    # infinite horizon, and leaves it for good at its first
    # drifted downdate, which interlacing rules out up to roundoff: every
    # later round of it is factorized.  `down` lists the runs whose round is
    # downdated and `w_down` stacks their trained weights; `inverse` stacks
    # the Sigma_A^{-1} slices in the leading (m, m) block of each, run
    # down[i] reading slice owner[i].  A downdated run's row of `active` is in the order of its slice's rows,
    # which the swap-remove permutes, as is a decoupled run's; a factorized
    # run's is ascending.
    down, owner = np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    fixed = np.zeros(0, dtype=int)
    inverse, w_down = np.empty((0, p, p)), None
    for k in range(q + 1):
        m = active.shape[1]
        eigs: dict[int, SymEig] = {}
        if down.size == stack:  # nothing to factorize: the stack is the downdate's
            weights = w_down
        elif fixed.size == stack:  # nor here: every run is decoupled
            weights = trained[rows, 0, active]
        else:
            weights = np.empty(active.shape)
            if down.size:
                weights[down] = w_down
            if fixed.size:
                weights[fixed] = trained[fixed[:, None], 0, active[fixed]]
            todo = sorted(set(range(stack)).difference(down.tolist(), fixed.tolist()))
            if k:  # Sigma_A is factorized with A in coordinate order
                active[todo] = np.sort(active[todo], axis=1)
            eigs = dict(zip(todo, _factorize(covs, active, todo, k)))
            for t in todo:
                idx = active[t]
                weights[t] = closed_form_weights(eigs[t], data_vec[t, idx], w_init[idx],
                                                 config.horizon)
            if k == 0 < q:  # one check of the off-diagonal per CovMatrix object
                entries = {id(cov): cov.entries for cov in covs}
                diagonal = {key: np.count_nonzero(e) == np.count_nonzero(e.diagonal())
                            for key, e in entries.items()}
                nonsingular = [t for t in todo if eigs[t].nonzero_mask().all()]
                fixed = np.array([t for t in nonsingular if diagonal[id(covs[t])]], dtype=int)
                if is_infinite(config.horizon):  # runs of one SymEig share a slice
                    runs = [t for t in nonsingular if not diagonal[id(covs[t])]]
                    down = np.array(runs, dtype=int)
                    owner, firsts = _groups([id(eigs[t]) for t in runs])
                    if runs:
                        inverse = pseudo_inverse([eigs[runs[i]] for i in firsts])

        live = inverse[:, :m, :m]
        if on_round is not None:
            slot = owner
            if down.size < stack:
                slot = np.full(stack, -1)
                slot[down] = owner
            on_round(k, active, weights, RoundFactors(eigs, live, slot))
        del eigs  # dropped before the downdate, which needs none of them
        if k == 0:  # the trace takes over the memory of round 0's factorizations
            trained = np.zeros((stack, q + 1, p))
            masks = np.empty((stack, q + 1, p), dtype=bool)
            pruned = np.empty((stack, q + 1, config.per_round), dtype=active.dtype)
        local = _select_prune(np.abs(weights), active, config.per_round, config.tie_break)
        pruned[:, k] = active[rows, local]
        trained[rows, k, active] = weights
        masks[:, k] = alive
        if k == q:
            break

        alive[rows, pruned[:, k]] = False
        if down.size:
            on = slice(None) if down.size == stack else down
            drop = local[on]
            if len(inverse) < down.size:  # shared slices
                inverse, owner, drop = _split(live, owner, drop)
            w_down, ok = _downdate(inverse, weights[on], drop, owner)
            if not ok.all():  # drift: these runs are factorized from the next round on
                stays = ok[owner]
                down, w_down, inverse = down[stays], w_down[stays], inverse[ok]
                owner = (np.cumsum(ok) - 1)[owner[stays]]
        active = _swap_remove(active, _swap_plan(local, m), config.per_round)

    for a in (trained, masks, pruned):
        a.setflags(write=False)  # so is every view of it
    return [ImpTrace(weights=w, active=a, pruned=i) for w, a, i in zip(trained, masks, pruned)]


def imp_prune_order(
    covs: Sequence[CovMatrix], b: np.ndarray, config: ImpConfig | None = None
) -> np.ndarray:
    """Full pruning rankings of a stack of runs, one row per run: each run
    goes with q = p - 1 and one prune per round."""
    base = config if config is not None else ImpConfig()
    full = ImpConfig(horizon=base.horizon, prune_rounds=np.shape(b)[-1] - 1, w_init=base.w_init,
                     tie_break=base.tie_break)
    return np.array([trace.pruned[:, 0] for trace in run_imp(covs, b, full)], dtype=int)


def trace_to_dict(trace: ImpTrace) -> dict:
    """JSON-ready form of a trace, as a verified `recover` run writes it."""
    return {
        "final_weights": trace.final_weights.tolist(),
        "rounds": [
            {
                "active": a.tolist(),
                "weights": w.tolist(),
                "pruned": i.tolist(),
                "pruned_magnitudes": np.abs(w[i]).tolist(),
            }
            for a, w, i in zip(trace.active, trace.weights, trace.pruned)
        ],
    }
