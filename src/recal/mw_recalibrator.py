"""Multiplicative-weights baseline over the lifted payoff coordinates.

The (m+2)-dimensional payoff is lifted through the matrix M whose rows
are all sign patterns over the calibration block (zero on the regret
coordinate) plus one row selecting the regret coordinate, giving
d = 2**(m+1) + 1 coordinates.  Multiplicative weights over those
coordinates would cost O(d) per round; the product structure of the
weights lets every quantity be computed from m+2 per-coordinate log
weights instead.  Unlike the halfspace recalibrator this baseline uses
raw, unnormalized regret coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import GameConfig, PayoffLedger, nearest_grid_index
from .scoring import score, score_pair


# MWState's counts of mw_choose's crossing-line steps and two-entry plays.
MW_COUNTERS = ("choose_steps", "mixture_rounds")


def lifted_dimension(m: int) -> int:
    return 2 ** (m + 1) + 1


@dataclass(eq=False)
class MWState(PayoffLedger):
    """The mw forecaster: log weights of the lifted coordinates, and a
    payoff ledger.

    u[k] is eta times the cumulative loss of calibration coordinate k and
    r is eta times the cumulative regret.  A sign pattern sigma weighs
    exp(sigma . u) and the regret coordinate exp(r), so the patterns
    together weigh prod_k 2 cosh(u_k) and the weighted sign of
    coordinate k is tanh(u_k).  rho = tanh(u) and log_a = log(2 cosh u)
    are carried beside u and refreshed by mw_update on the support of
    each play only.  Every field stays finite for any finite loss
    history, so there is one numeric mode.  MW_COUNTERS count
    mw_choose's work.  The arrays mw_choose reads
    on every call (grid minus label, grid scores, the quote's score
    column) are built once here.  play samples a grid point from
    mw_choose's support by inverse CDF over the support in ascending
    order, with a uniform from rng every round, and update adds the
    play's payoff to the ledger, then takes mw_update's step.
    """

    cfg: GameConfig
    eta: float
    u: np.ndarray | None = None
    r: float = 0.0
    t: int = 0
    choose_steps: int = 0
    mixture_rounds: int = 0
    rng: np.random.Generator | None = None
    rho: np.ndarray = field(init=False, repr=False)
    log_a: np.ndarray = field(init=False, repr=False)
    _views: tuple = field(init=False, repr=False)
    _grid_minus_y: np.ndarray = field(init=False, repr=False)
    _scores: np.ndarray = field(init=False, repr=False)
    _quote_column: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cfg = self.cfg
        PayoffLedger.__init__(self, cfg, self.rng)
        n = cfg.m + 1
        self.u = np.zeros(n) if self.u is None else np.array(self.u, dtype=float)
        if self.u.shape != (n,):
            raise ValueError(f"u must have m+1 = {n} entries, got shape {self.u.shape}")
        self.rho = np.tanh(self.u)
        self.log_a = np.logaddexp(self.u, -self.u)
        self._views = (memoryview(self.u), memoryview(self.rho), memoryview(self.log_a))
        grid = np.array(cfg.grid)
        self._grid_minus_y = np.stack([grid - 0.0, grid - 1.0])
        self._scores = np.array([cfg.score0, cfg.score1])
        self._quote_column = np.empty((2, 1))

    def play(self, q: float, quote_scores):
        self._support = support = mw_choose(self, q, quote_scores)
        self._quote_scores = quote_scores
        # a uniform every round, point masses included
        return support[0][0] if self._uniform() < support[0][1] else support[-1][0], support

    def update(self, y: int) -> None:
        super().update(y)
        mw_update(self, self._support, self._quote_scores[y], y)


def mw_init(cfg: GameConfig, T: int, rng=None) -> MWState:
    d = lifted_dimension(cfg.m)
    log_d = math.log(d)
    if T < log_d:
        raise ValueError(f"horizon T={T} is below ln(d) = {log_d:.3f} for m={cfg.m}")
    C = max(1.0, cfg.rule.lipschitz)
    eta = math.sqrt(log_d / (4.0 * T * C * C))
    return MWState(cfg=cfg, eta=eta, rng=rng)


def _support(cfg: GameConfig, x):
    """Indices and weights of the nonzero entries of x, ascending."""
    n = cfg.m + 1
    if len(x) != n:
        raise ValueError(f"x must have m+1 = {n} entries, got {len(x)}")
    x = np.asarray(x, dtype=float)
    idx = x.nonzero()[0]
    return idx.tolist(), x[idx].tolist()


def _shares(state: MWState):
    """Shares of the lifted mass held by the sign patterns and by the
    regret coordinate: 1/(1+g) and g/(1+g) with g = exp(r) / prod_k
    2 cosh(u_k), computed from whichever of g and 1/g does not overflow.
    mw_choose of _round.c computes the same, summing log_a in numpy's
    pairwise order: a change here must be made there too."""
    g_log = state.r - float(state.log_a.sum())
    if g_log <= 0.0:
        g = math.exp(g_log)
        return 1.0 / (1.0 + g), g / (1.0 + g)
    ginv = math.exp(-g_log)
    return ginv / (ginv + 1.0), 1.0 / (ginv + 1.0)


def dp_denominator(state: MWState) -> float:
    """Total lifted weight mass, exp(r) + prod_k 2 cosh(u_k).

    Equals the brute-force sum of the d per-coordinate exponentials,
    or inf when that sum exceeds the float range.
    """
    with np.errstate(over="ignore"):
        return float(np.exp(state.r) + np.prod(2.0 * np.cosh(state.u)))


def dp_weighted_loss(state: MWState, x, q: float, y: int) -> float:
    """Current-weights expected lifted loss of playing x against label y.

    The sign patterns never have to be enumerated because the weight of
    a pattern factors across coordinates: coordinate k's loss enters
    weighted by tanh(u_k) times the patterns' share of the mass.
    """
    cfg = state.cfg
    idx, w = _support(cfg, x)
    grid = cfg.grid
    score_y = cfg.score1 if y else cfg.score0
    rho = state._views[1]
    cal = 0.0
    reg = -score(cfg.rule, q, y)
    for k, xk in zip(idx, w):
        cal += xk * (grid[k] - y) * rho[k]
        reg += xk * score_y[k]
    w_pat, w_reg = _shares(state)
    return w_pat * cal + w_reg * reg


def mw_choose(state: MWState, q: float, quote_scores=None) -> tuple:
    """The distribution minimizing the worst-label weighted loss, as its
    (index, weight) support: ascending indices, Python floats, no zero
    weight, at most two entries.

    h0 and h1 are the weighted losses of the point masses under each
    label, so by minimax the game value is the maximum over lam in
    [0, 1] of phi(lam) = min_k h1_k + lam * d_k with d = h0 - h1, a
    concave, piecewise linear function.  If the line lowest at lam = 0
    does not rise, lam = 0 is optimal and its vertex is played; likewise
    at lam = 1.  Otherwise a rising line a and a falling line b bracket
    the optimum, and at their crossing the lowest line k either lies no
    lower (the crossing is optimal: the mixture of a and b that
    equalizes the two labels is played) or replaces a if it rises, b if
    not.  A replaced line is never lowest again, so at most m+1 steps
    are taken.  The grid point nearest to q is played unless the
    optimum is strictly lower.  Memory is O(m), and so is each step.
    quote_scores is the pair (score(q, 0), score(q, 1)) when the caller
    already has it.  The steps taken add to state.choose_steps, and a
    two-entry support to state.mixture_rounds.  mw_choose of _round.c
    takes the same steps: a change here must be made there too.
    """
    n = state.cfg.m + 1
    w_pat, w_reg = _shares(state)
    sq = state._quote_column
    sq[0, 0], sq[1, 0] = score_pair(state.cfg.rule, q) if quote_scores is None else quote_scores
    h0, h1 = state._grid_minus_y * (state.rho * w_pat) + (state._scores - sq) * w_reg
    d = h0 - h1
    a = int(h1.argmin())
    b = int(h0.argmin())
    if d[a] <= 0.0:
        best = (a, a, 1.0)
    elif d[b] >= 0.0:
        best = (b, b, 1.0)
    else:
        for steps in range(1, n + 1):
            lam = (h1[b] - h1[a]) / (d[a] - d[b])
            line = h1 + lam * d
            k = int(line.argmin())
            if not line[k] < min(line[a], line[b]):
                i, j = min(a, b), max(a, b)
                best = (i, j, d[j] / (d[j] - d[i]))
                state.choose_steps += steps
                break
            if d[k] > 0.0:
                a = k
            else:
                b = k
        else:
            raise RuntimeError(f"mw_choose did not converge in m+1 = {n} steps")

    i, j, t = best
    value = max(t * h0[i] + (1.0 - t) * h0[j], t * h1[i] + (1.0 - t) * h1[j])
    j_star = nearest_grid_index(q, n - 1)
    if not value < max(h0[j_star], h1[j_star]):
        i, j, t = j_star, j_star, 1.0
    # the entries that x[i] = t; x[j] += 1 - t leave in a zero vector
    play = ((i, t + (1.0 - t)),) if i == j else ((i, t), (j, 1.0 - t))
    support = tuple((k, float(w)) for k, w in play if w)
    state.mixture_rounds += len(support) == 2
    return support


def mw_update(state: MWState, support, sq: float, y: int) -> MWState:
    """Fold one round's loss into the log weights, on the play's
    (index, weight) support only; sq is score(q, y).  play_rounds of
    _round.c makes the same update: a change here must be made there too."""
    cfg = state.cfg
    grid = cfg.grid
    score_y = cfg.score1 if y else cfg.score0
    eta = state.eta
    u, rho, log_a = state._views
    reg = -sq
    for k, xk in support:
        v = u[k] + eta * (xk * (grid[k] - y))
        u[k] = v
        rho[k] = math.tanh(v)
        v = abs(v)
        log_a[k] = v + math.log1p(math.exp(-2.0 * v))
        reg += xk * score_y[k]
    state.r += eta * reg
    state.t += 1
    return state

