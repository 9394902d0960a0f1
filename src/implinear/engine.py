"""Iterative magnitude pruning on linear models.

One run loops for rounds k = 0..q: reset the active weights to their
initialization, train to the horizon with exact gradient flow, record the
trained vector, then delete the smallest-magnitude active weights.  The
returned final weights are the round-q trained vector, i.e. the vector
trained under a mask with exactly q * per_round coordinates pruned, before
that round's own prune is applied.  Everything an auditor needs to replay
the run is kept in the trace, down to the factorization each round was
trained with.

Two exact paths train a round.  The eigendecomposition path factorizes the
restricted covariance Sigma_A every round and solves the flow in its
eigenbasis; it handles every horizon and singular Sigma_A.  At the infinite
horizon with every eigenvalue of the full Sigma above the rank tolerance,
the trained weights are Sigma_A^{-1} b_A, and by Cauchy interlacing every
later Sigma_A is nonsingular too.  Then only round 0 is factorized, and each
later round removes the pruned block from the previous round's inverse and
weights by a Schur-complement downdate in O(m^2): IMP as backward greedy
elimination (Couvreur & Bresler, SIAM J. Matrix Anal. Appl. 21(3), 2000).

Indices are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .designs import FeatureSet
from .flow import INFINITE, Horizon, closed_form_weights, is_infinite, normalize_horizon
from .linalg import SymEig, pseudo_inverse, sym_eig

TIE_BREAK_RULES = ("lowest_index", "highest_index")


@dataclass(frozen=True)
class PruneMask:
    """Which coordinates survive; the prune order lives in `ImpTrace`."""

    active: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.active, dtype=bool).copy()
        a.setflags(write=False)
        object.__setattr__(self, "active", a)

    @classmethod
    def full(cls, p: int) -> "PruneMask":
        return cls(active=np.ones(p, dtype=bool))

    @property
    def p(self) -> int:
        return self.active.shape[0]

    @property
    def n_active(self) -> int:
        return int(self.active.sum())

    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self.active)

    def prune(self, indices) -> "PruneMask":
        new_active = self.active.copy()
        for i in np.atleast_1d(indices):
            if not new_active[i]:
                raise ValueError(f"index {int(i)} is already pruned")
            new_active[i] = False
        return PruneMask(active=new_active)


@dataclass(frozen=True)
class ImpConfig:
    """Inputs of one pruning run.

    prune_rounds is the loop bound q: the loop body executes q + 1 times and
    prunes q + 1 times, but the returned weights come from round q's
    training, under a mask with q * per_round pruned coordinates.  w_init
    defaults to the zero vector.  The argmin tie rule is "lowest_index"
    unless configured otherwise.
    """

    horizon: Horizon = INFINITE
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
    """Mask before this round's prune, the trained vector, and what was pruned.

    Exactly one of `eig` and `inverse` is set on a round `run_imp` trained:
    `eig` is the eigendecomposition of Sigma_A on a factorized round (every
    round of the eigendecomposition path; round 0 and any round refactorized
    after drift on the downdate path), and `inverse` is Sigma_A^{-1} on a
    downdated round, indexed like `mask.active_indices()`.  Neither is
    serialized.
    """

    mask: PruneMask
    weights: np.ndarray
    pruned: tuple[int, ...]
    eig: SymEig | None = None
    inverse: np.ndarray | None = None

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


def _select_prune(
    magnitudes: np.ndarray, count: int, tie_break: str
) -> np.ndarray:
    """Local indices of the `count` smallest magnitudes under the tie rule."""
    if tie_break == "lowest_index":
        order = np.argsort(magnitudes, kind="stable")
    else:  # highest_index: among ties, the larger index goes first
        m = magnitudes.shape[0]
        order = np.lexsort((-np.arange(m), magnitudes))
    return order[:count]


def _downdate(
    inverse: np.ndarray, weights: np.ndarray, drop: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Remove the local coordinates `drop` from Sigma_A^{-1} and its weights.

    With C = Sigma_A^{-1}, J the dropped and K the kept coordinates, the
    smaller inverse is the Schur complement C_KK - C_KJ C_JJ^{-1} C_JK and the
    retrained weights are w_K - C_KJ C_JJ^{-1} w_J.  Both go through the
    Cholesky factor L of C_JJ: with [G | g] = L^{-1} [C_JK | w_J] they are
    C_KK - G^T G and w_K - G^T g.  Returns None when C_JJ is not positive
    definite, the sign of accumulated drift.
    """
    keep = np.ones(weights.shape[0], dtype=bool)
    keep[drop] = False
    kept = np.flatnonzero(keep)
    rows = inverse[drop]
    pivot = rows[:, drop]
    rhs = np.column_stack((rows[:, kept], weights[drop]))
    if pivot.shape[0] == 1:  # scalar Cholesky; `not >` also rejects NaN
        if not pivot[0, 0] > 0.0:
            return None
        g = rhs / np.sqrt(pivot[0, 0])
    else:
        try:
            g = np.linalg.solve(np.linalg.cholesky(pivot), rhs)
        except np.linalg.LinAlgError:
            return None
    g_c, g_w = g[:, :-1], g[:, -1]
    smaller = inverse[kept[:, None], kept] - g_c.T @ g_c
    return (smaller + smaller.T) / 2.0, weights[kept] - g_c.T @ g_w


def run_imp(features: FeatureSet, config: ImpConfig) -> ImpTrace:
    """Execute the pruning loop and return the full trace."""
    y = features.require_targets()
    p = features.p
    w_init = config.w_init if config.w_init is not None else np.zeros(p)
    if w_init.shape != (p,):
        raise ValueError(f"w_init must have length p={p}, got {w_init.shape}")
    q = config.prune_rounds
    if config.per_round * (q + 1) > p:
        raise ValueError(
            f"per_round * (prune_rounds + 1) = {config.per_round * (q + 1)} exceeds p = {p}"
        )

    cov = features.covariance
    data_vec = features.phi.T @ y / features.n

    mask = PruneMask.full(p)
    rounds: list[RoundRecord] = []
    # The downdate path needs an infinite horizon and a nonsingular round-0
    # factorization; it stays on while every later refactorization is
    # nonsingular too, which interlacing guarantees up to roundoff.
    exact_path = is_infinite(config.horizon)
    inverse = None  # Sigma_A^{-1} of the current active set on the downdate path
    for k in range(q + 1):
        active_idx = mask.active_indices()
        w0_active = w_init[active_idx]

        eig = None
        if inverse is not None:
            inverse, w_active = _downdate(inverse, w_active, local) or (None, None)
        if inverse is None:
            eig = sym_eig(cov.restrict(active_idx))
            w_active = closed_form_weights(eig, data_vec[active_idx], w0_active, config.horizon)
            exact_path = exact_path and bool(eig.nonzero_mask().all())

        weights = np.zeros(p)
        weights[active_idx] = w_active
        local = _select_prune(np.abs(w_active), config.per_round, config.tie_break)
        pruned = tuple(int(i) for i in active_idx[local])

        rounds.append(RoundRecord(mask=mask, weights=weights, pruned=pruned, eig=eig,
                                  inverse=inverse))
        if exact_path and eig is not None and k < q:
            inverse = pseudo_inverse(eig)
        mask = mask.prune(pruned)

    return ImpTrace(rounds=tuple(rounds))


def imp_prune_order(features: FeatureSet, config: ImpConfig | None = None) -> np.ndarray:
    """Full pruning ranking: run with q = p - 1 and one prune per round."""
    base = config if config is not None else ImpConfig()
    full = replace(base, prune_rounds=features.p - 1, per_round=1)
    trace = run_imp(features, full)
    return np.asarray(trace.prune_order, dtype=int)


def trace_to_dict(trace: ImpTrace) -> dict:
    """JSON-ready form of a trace (the audit schema used by the harness)."""
    return {
        "final_weights": trace.final_weights.tolist(),
        "rounds": [
            {
                "active": rec.mask.active.tolist(),
                "weights": rec.weights.tolist(),
                "pruned": list(rec.pruned),
                "pruned_magnitudes": list(rec.pruned_magnitudes),
            }
            for rec in trace.rounds
        ],
    }


def trace_from_dict(d: dict) -> ImpTrace:
    """Inverse of `trace_to_dict`; the derived `final_weights` and
    `pruned_magnitudes` entries are recomputed from the weights."""
    return ImpTrace(rounds=tuple(
        RoundRecord(
            mask=PruneMask(active=np.asarray(rd["active"], dtype=bool)),
            weights=np.asarray(rd["weights"], dtype=float),
            pruned=tuple(int(i) for i in rd["pruned"]),
        )
        for rd in d["rounds"]
    ))
