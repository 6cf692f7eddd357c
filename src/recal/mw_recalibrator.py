"""Multiplicative-weights baseline over the lifted payoff coordinates.

The (m+2)-dimensional payoff is lifted through the matrix M whose rows
are all sign patterns over the calibration block (zero on the regret
coordinate) plus one row selecting the regret coordinate, giving
d = 2**(m+1) + 1 coordinates.  Multiplicative weights over those
coordinates would cost O(d) per round; the product structure of the
weights lets every quantity be computed from m+2 stored per-coordinate
exponentials instead.  Unlike the halfspace recalibrator this baseline
uses raw, unnormalized regret coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import GameConfig, nearest_grid_index
from .scoring import score, score_pair

# Outside this range the stored exponentials switch to log space.
OVERFLOW_LIMIT = 1e300

# mw_choose scans the i < j pairs in one block up to this many pairs,
# and in row blocks of at most this many entries beyond it.
PAIR_BLOCK = 65536


def lifted_dimension(m: int) -> int:
    return 2 ** (m + 1) + 1


@dataclass
class MWState:
    """Stored per-coordinate exponentials of the accumulated losses.

    In the default linear mode pos[k] and neg[k] hold
    exp(+-eta * sum_s loss_k^s) and reg holds exp(eta * sum_s loss_d^s).
    When any stored value leaves [1/OVERFLOW_LIMIT, OVERFLOW_LIMIT] the
    state switches to log mode and the same fields hold the exponents
    themselves.  The arrays mw_choose reads on every call (grid minus
    label, grid scores, the pair-block layout) are built once here.
    """

    cfg: GameConfig
    eta: float
    T: int
    pos: list = field(default_factory=list)
    neg: list = field(default_factory=list)
    reg: float = 1.0
    t: int = 0
    log_mode: bool = False
    _grid_minus_y: np.ndarray = field(init=False, repr=False, compare=False)
    _scores: np.ndarray = field(init=False, repr=False, compare=False)
    _pre: np.ndarray = field(init=False, repr=False, compare=False)
    _suf: np.ndarray = field(init=False, repr=False, compare=False)
    _pairs: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cfg = self.cfg
        n = cfg.m + 1
        grid = np.array(cfg.grid)
        self._grid_minus_y = np.stack([grid - 0.0, grid - 1.0])
        self._scores = np.array([cfg.score0, cfg.score1])
        # Prefix/suffix product buffers; entry 0 stays 1.0.
        self._pre = np.ones(n + 1)
        self._suf = np.ones(n + 1)
        self._pairs = np.triu_indices(n, 1) if n * (n - 1) // 2 <= PAIR_BLOCK else None


def mw_init(cfg: GameConfig, T: int) -> MWState:
    d = lifted_dimension(cfg.m)
    log_d = math.log(d)
    if T < log_d:
        raise ValueError(f"horizon T={T} is below ln(d) = {log_d:.3f} for m={cfg.m}")
    C = max(1.0, cfg.rule.lipschitz)
    eta = math.sqrt(log_d / (4.0 * T * C * C))
    n = cfg.m + 1
    return MWState(cfg=cfg, eta=eta, T=T, pos=[1.0] * n, neg=[1.0] * n)


def _to_log_mode(state: MWState) -> None:
    """Replace the stored exponentials by their logs, all or nothing."""
    pos = [math.log(v) for v in state.pos]
    neg = [math.log(v) for v in state.neg]
    state.pos, state.neg, state.reg = pos, neg, math.log(state.reg)
    state.log_mode = True


def _loss_parts(cfg: GameConfig, x, q: float, y: int):
    """Raw loss of playing distribution x: calibration block and regret.

    Only the support of x contributes, visited in ascending order.
    """
    n = cfg.m + 1
    if len(x) != n:
        raise ValueError(f"x must have m+1 = {n} entries, got {len(x)}")
    grid = cfg.grid
    score_y = cfg.score1 if y else cfg.score0
    sq = score(cfg.rule, q, y)
    cal = [0.0] * n
    reg = -sq
    for k in np.asarray(x).nonzero()[0].tolist():
        xk = x[k]
        cal[k] = xk * (grid[k] - y)
        reg += xk * score_y[k]
    return cal, reg


def dp_denominator(state: MWState) -> float:
    """Total lifted weight mass, reg + prod_k (pos_k + neg_k).

    Equals the brute-force sum of the d per-coordinate exponentials.
    In log mode the true value may exceed float range, in which case
    inf is returned; callers needing ratios use the stable internals.
    """
    if not state.log_mode:
        prod = 1.0
        for p, n in zip(state.pos, state.neg):
            prod *= p + n
        if not math.isinf(prod):
            return state.reg + prod
        _to_log_mode(state)
    log_prod = 0.0
    for p, n in zip(state.pos, state.neg):
        log_prod += float(np.logaddexp(p, n))
    return math.exp(float(np.logaddexp(state.reg, log_prod)))


def _ratio_parts(state: MWState):
    """(rho, g_log) with rho_k = (pos_k - neg_k) / (pos_k + neg_k) and
    g_log = log(reg / prod_k (pos_k + neg_k)), valid in either mode."""
    if state.log_mode:
        rho = [math.tanh((p - n) / 2.0) for p, n in zip(state.pos, state.neg)]
        log_prod = 0.0
        for p, n in zip(state.pos, state.neg):
            log_prod += float(np.logaddexp(p, n))
        return rho, state.reg - log_prod
    rho = [(p - n) / (p + n) for p, n in zip(state.pos, state.neg)]
    log_prod = 0.0
    for p, n in zip(state.pos, state.neg):
        log_prod += math.log(p + n)
    return rho, math.log(state.reg) - log_prod


def dp_weighted_loss(state: MWState, x, q: float, y: int) -> float:
    """Current-weights expected lifted loss of playing x against label y.

    Computed from the stored per-coordinate exponentials in O(m); the
    sign patterns never have to be enumerated because the weight of a
    pattern factors across coordinates.
    """
    cal, r = _loss_parts(state.cfg, x, q, y)
    if not state.log_mode:
        n = len(state.pos)
        A = [p + ng for p, ng in zip(state.pos, state.neg)]
        pre = [1.0] * n
        running = 1.0
        for k in range(n):
            pre[k] = running
            running *= A[k]
        if math.isinf(running):
            _to_log_mode(state)
        else:
            suf = [1.0] * n
            running2 = 1.0
            for k in range(n - 1, -1, -1):
                suf[k] = running2
                running2 *= A[k]
            num = state.reg * r
            for k in range(n):
                ck = cal[k]
                if ck:
                    num += ck * (state.pos[k] - state.neg[k]) * pre[k] * suf[k]
            return num / (state.reg + running)
    rho, g_log = _ratio_parts(state)
    weighted = 0.0
    for k, ck in enumerate(cal):
        if ck:
            weighted += ck * rho[k]
    if g_log <= 0.0:
        g = math.exp(g_log)
        return (weighted + r * g) / (1.0 + g)
    ginv = math.exp(-g_log)
    return (weighted * ginv + r) / (ginv + 1.0)


def _vertex_losses(state: MWState, q: float) -> np.ndarray:
    """dp_weighted_loss of every point mass under both labels, shape (2, m+1).

    Row y holds ((i/m - y) * (pos_i - neg_i) * pre_i * suf_i
    + reg * (score(i/m, y) - score(q, y))) / den, where pre_i and suf_i
    are the products of pos_k + neg_k over k < i and k > i.  Every
    elementwise expression keeps the left-to-right order of the scalar
    formula, and multiply.accumulate multiplies sequentially, so each
    entry carries the same bits as the scalar dynamic program.  Log
    mode takes over when the full product overflows.
    """
    cfg = state.cfg
    sq = np.array(score_pair(cfg.rule, q)).reshape(2, 1)
    if not state.log_mode:
        pos = np.array(state.pos)
        neg = np.array(state.neg)
        A = pos + neg
        pre = state._pre
        # Overflow is silent, as in scalar float arithmetic; an infinite
        # full product is the log-mode signal.
        with np.errstate(over="ignore"):
            np.multiply.accumulate(A, out=pre[1:])
            running = pre[-1]
            if not math.isinf(running):
                suf = state._suf
                np.multiply.accumulate(A[::-1], out=suf[1:])
                h = state._grid_minus_y * (pos - neg)
                h *= pre[:-1]
                h *= suf[-2::-1]
                h += state.reg * (state._scores - sq)
                h /= state.reg + running
                return h
        _to_log_mode(state)
    rho, g_log = _ratio_parts(state)
    rho = np.array(rho)
    if g_log <= 0.0:
        g = math.exp(g_log)
        return (state._grid_minus_y * rho + (state._scores - sq) * g) / (1.0 + g)
    ginv = math.exp(-g_log)
    return (state._grid_minus_y * rho * ginv + (state._scores - sq)) / (ginv + 1.0)


def _pair_blocks(state: MWState):
    """(I, J) index arrays covering the pairs i < j in lexicographic order.

    One block when there are at most PAIR_BLOCK pairs; otherwise
    consecutive row blocks of at most PAIR_BLOCK mask entries each.
    """
    if state._pairs is not None:
        return (state._pairs,)
    n = state.cfg.m + 1
    rows = max(1, PAIR_BLOCK // n)
    return (_row_block_pairs(r0, min(n, r0 + rows), n) for r0 in range(0, n, rows))


def _row_block_pairs(r0: int, r1: int, n: int):
    I, J = np.nonzero(np.arange(n) > np.arange(r0, r1)[:, None])
    I += r0
    return I, J


def mw_choose(state: MWState, q: float) -> np.ndarray:
    """Distribution minimizing the worst-label weighted loss.

    Both label losses are linear in x, so the minimum over the simplex
    of their max is attained at a vertex or at a two-vertex mixture
    that equalizes them; all O(m^2) such candidates are evaluated
    exactly, as array operations.  The choice is the one a scalar scan
    with strict < makes: the grid point nearest to q, unless a vertex
    is strictly better (then the first best vertex, as argmin returns
    the first minimum), unless a mixture of a pair i < j is strictly
    better still (then the first best pair in lexicographic order).
    This holds for finite losses, which every state built by mw_init
    and mw_update has.  Temporaries stay O(PAIR_BLOCK).
    """
    n = state.cfg.m + 1
    h0, h1 = _vertex_losses(state, q)

    j_star = nearest_grid_index(q, state.cfg.m)
    v = np.maximum(h0, h1)
    best_val = v[j_star]
    best = (j_star, None, 0.0)
    k = v.argmin()
    if v[k] < best_val:
        best_val = v[k]
        best = (k, None, 0.0)

    diff = h0 - h1
    for I, J in _pair_blocks(state):
        dI = diff[I]
        dJ = diff[J]
        k = (dI * dJ < 0.0).nonzero()[0]
        if not k.size:
            continue
        di = dI[k]
        dj = dJ[k]
        t = dj / (dj - di)
        I = I[k]
        J = J[k]
        vp = t * h0[I] + (1.0 - t) * h0[J]
        k = vp.argmin()
        if vp[k] < best_val:
            best_val = vp[k]
            best = (I[k], J[k], t[k])

    x = np.zeros(n)
    i, j, t = best
    if j is None:
        x[i] = 1.0
    else:
        x[i] = t
        x[j] = 1.0 - t
    return x


def mw_update(state: MWState, x, q: float, y: int) -> MWState:
    """Fold one round's loss into the stored exponentials.

    When a linear-mode step would leave [1/OVERFLOW_LIMIT,
    OVERFLOW_LIMIT], the state switches to log mode from its values
    before the step and takes the step there, so no stored value can
    have under- or overflowed to 0 or inf first.
    """
    cal, r = _loss_parts(state.cfg, x, q, y)
    eta = state.eta
    if not state.log_mode:
        lo, hi = 1.0 / OVERFLOW_LIMIT, OVERFLOW_LIMIT
        pos, neg = state.pos[:], state.neg[:]
        in_range = True
        for k, ck in enumerate(cal):
            if ck:
                e = math.exp(eta * ck)
                pos[k] *= e
                neg[k] /= e
                in_range = in_range and lo < pos[k] < hi and lo < neg[k] < hi
        reg = state.reg * math.exp(eta * r)
        if in_range and lo < reg < hi:
            state.pos, state.neg, state.reg = pos, neg, reg
            state.t += 1
            return state
        _to_log_mode(state)
    for k, ck in enumerate(cal):
        if ck:
            state.pos[k] += eta * ck
            state.neg[k] -= eta * ck
    state.reg += eta * r
    state.t += 1
    return state


def lifted_max_coordinate(cal_avg, reg_avg: float) -> float:
    """Largest lifted coordinate of (cal_avg, reg_avg).

    The sign rows realize every signed sum of the calibration block, so
    their max is the l1 norm; the last row contributes reg_avg.
    """
    return max(float(np.abs(np.asarray(cal_avg)).sum()), reg_avg)
