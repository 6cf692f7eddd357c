"""Slow, obviously-correct reference implementations used as test oracles.

Everything here is recomputed from first principles (dense enumeration,
direct formula transcription) with no shortcuts, so the package's
optimized code paths can be checked against independent math.  The
dense forecaster is exponential in m and only usable for m <= ~12.
The scalar MW pair scan (mw_choose_scan) enumerates every vertex and
two-vertex mixture; it reads the MW weights through ScanState, the
pos/neg/reg fields MWState had before it kept log weights only, and
mw_choose's game value must equal the scan's within 1e-12.
approach_scan, the closure-based halfspace oracle, and
ScalarRecalibratorState, the unfused online state built on it, are what
the recalibrator's fused round replaced; they too must agree bit for bit.
ogd_step (with project_onto_K and ogd_learning_rate), f_value and
extended_score are the textbook forms of the recalibrator's update, its
halfspace response and the rule's extension to label distributions;
only tests use them.  adversary_label_scan is the greedy adversary as it
was before the harness kept a running l1 of the ledger: it copies the
ledger and sums it once per label.  adversary_label_payoff calls the
live-ledger harness.adversary_label on a PayoffVector, with the scan's
signature and the ledger checks.  mw_choose_dense is mw_choose as it
was before it kept its play as a support: it fills the dense m+1
distribution, whose nonzero entries the support must equal bit for bit.
mw_choose_vector and mw_update_vector are adapters that play mw_choose
and mw_update on dense m+1 distributions.  _trace_csv_text,
_trace_json_rows and _json_text are the trace formatters that built a
whole trace file as one string (the JSON one through the pure-Python
indented encoder); the chunked trace writer must reproduce their bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from recal.geometry import (
    ForecastDistribution,
    GameConfig,
    HalfspaceParam,
    PayoffVector,
    add_payoff,
    dist_to_target,
    nearest_grid_index,
    point_mass,
)
from recal.cli import TRACE_HEADER
from recal.harness import adversary_label
from recal.mw_recalibrator import MWState, _shares, _support, mw_choose, mw_update
from recal.recalibrator import (
    DEGENERATE_DELTA,
    GRAD_NORM_BOUND,
    ProtocolError,
    RecalibratorState,
    dual_set_diameter,
)
from recal.scoring import ScoringRule, score, score_pair


def round_half_up_index(p: float, m: int) -> int:
    """Nearest grid index to p with ties rounding up, clamped to [0, m]."""
    return min(m, max(0, math.floor(p * m + 0.5)))


def extended_score(rule: ScoringRule, p: float, q: float) -> float:
    """Expected loss of forecast p when the label is Bernoulli(q).

    Affine in q, which extends the rule from point labels to label
    distributions.
    """
    return (1.0 - q) * score(rule, p, 0) + q * score(rule, p, 1)


def f_value(cfg: GameConfig, theta: HalfspaceParam, q: float, i: int, y: int) -> float:
    """Halfspace response of grid point i against label y.

    f(i, y) = a_i * (i/m - y) + (b/lam) * (score(i/m, y) - score(q, y)),
    the inner product <payoff of a point mass at i, theta>.
    """
    if not 0 <= i <= cfg.m:
        raise ValueError(f"grid index {i} outside 0..{cfg.m}")
    score_y = cfg.score1 if y else cfg.score0
    sq = score(cfg.rule, q, y)
    return theta.a[i] * (cfg.grid[i] - y) + (theta.b / cfg.lam) * (score_y[i] - sq)


def project_onto_K(theta_raw: np.ndarray) -> HalfspaceParam:
    """Euclidean projection onto K: clamp a to [-1, 1] and b to [0, 1]."""
    raw = np.asarray(theta_raw, dtype=float)
    a = np.clip(raw[:-1], -1.0, 1.0)
    b = float(min(1.0, max(0.0, raw[-1])))
    return HalfspaceParam(a, b)


def ogd_learning_rate(m: int, t: int) -> float:
    return dual_set_diameter(m) / (GRAD_NORM_BOUND * math.sqrt(t))


def ogd_step(state: RecalibratorState, observed_payoff: PayoffVector) -> HalfspaceParam:
    """One projected gradient-ascent step on the observed payoff.

    theta' = project_onto_K(theta + eta_t * payoff) with
    eta_t = D / (G * sqrt(t)); D and G come from the box geometry of K
    and the payoff norm bound.  Pure function of the state; the state's
    own observe() applies the identical update in place.
    """
    if state.t < 1:
        raise ValueError("round counter must be >= 1")
    eta = ogd_learning_rate(state.cfg.m, state.t)
    theta = state.theta
    raw = np.empty(state.cfg.m + 2)
    raw[:-1] = theta.a + eta * observed_payoff.cal
    raw[-1] = theta.b + eta * observed_payoff.reg
    return project_onto_K(raw)


def dense_loss_parts(cfg: GameConfig, x, q: float, y: int):
    """(calibration block, raw unscaled regret) for a dense grid distribution."""
    x = np.asarray(x, dtype=float)
    grid = np.asarray(cfg.grid)
    score_y = np.asarray(cfg.score1 if y else cfg.score0)
    cal = x * (grid - y)
    reg = float(x @ score_y) - score(cfg.rule, q, y)
    return cal, reg


def sign_rows(m: int) -> np.ndarray:
    """All 2^(m+1) sign patterns over the m+1 calibration coordinates."""
    return np.array(list(product((1.0, -1.0), repeat=m + 1)))


def lifted_max_reference(cal_avg, reg_avg: float) -> float:
    """Max lifted coordinate by explicit enumeration over all sign rows."""
    cal = np.asarray(cal_avg, dtype=float)
    signed_max = float((sign_rows(cal.size - 1) @ cal).max())
    return max(signed_max, reg_avg)


class DenseMW:
    """Multiplicative weights with one explicit float per lifted coordinate.

    Direct transcription of the defining update: the weight of every
    lifted coordinate is exp(eta * its cumulative loss), stored densely
    and refreshed with exact exponentials each round.
    """

    def __init__(self, cfg: GameConfig, T: int):
        self.cfg = cfg
        d = 2 ** (cfg.m + 1) + 1
        C = max(1.0, cfg.rule.lipschitz)
        self.eta = math.sqrt(math.log(d) / (4.0 * T * C * C))
        self.signs = sign_rows(cfg.m)
        self.weights = np.ones(d)

    def lifted_loss(self, x, q: float, y: int) -> np.ndarray:
        cal, reg = dense_loss_parts(self.cfg, x, q, y)
        return np.append(self.signs @ cal, reg)

    def denominator(self) -> float:
        return float(self.weights.sum())

    def weighted_loss(self, x, q: float, y: int) -> float:
        chi = self.weights / self.weights.sum()
        return float(chi @ self.lifted_loss(x, q, y))

    def update(self, x, q: float, y: int) -> None:
        self.weights = self.weights * np.exp(self.eta * self.lifted_loss(x, q, y))


# The stored exponentials' range in the linear mode MWState had before it
# kept log weights only.
OVERFLOW_LIMIT = 1e300


@dataclass
class ScanState:
    """The MW state as the pair scan reads it.

    In linear mode pos[k] and neg[k] hold exp(+-u_k) and reg holds
    exp(r); in log mode the same fields hold the exponents themselves.
    """

    cfg: GameConfig
    pos: list
    neg: list
    reg: float
    log_mode: bool


def scan_state(state: MWState, log_mode: bool | None = None) -> ScanState:
    """An MWState's log weights as the scan's pos/neg/reg fields.

    Linear mode unless log_mode is set, or unless some exponential
    leaves [1/OVERFLOW_LIMIT, OVERFLOW_LIMIT] when log_mode is None.
    """
    u = state.u.tolist()
    if log_mode is None:
        limit = math.log(OVERFLOW_LIMIT)
        log_mode = max(map(abs, u + [state.r])) >= limit
    if log_mode:
        return ScanState(state.cfg, u, [-v for v in u], state.r, True)
    return ScanState(state.cfg, [math.exp(v) for v in u], [math.exp(-v) for v in u],
                     math.exp(state.r), False)


def _to_log_mode(state: ScanState) -> None:
    """Replace the stored exponentials by their logs, all or nothing."""
    pos = [math.log(v) for v in state.pos]
    neg = [math.log(v) for v in state.neg]
    state.pos, state.neg, state.reg = pos, neg, math.log(state.reg)
    state.log_mode = True


def _ratio_parts(state: ScanState):
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


def vertex_losses_scan(state: ScanState, q: float, y: int):
    """dp_weighted_loss of every point mass for one label, scalar loops."""
    cfg = state.cfg
    grid = cfg.grid
    score_y = cfg.score1 if y else cfg.score0
    sq = score(cfg.rule, q, y)
    n = cfg.m + 1
    if not state.log_mode:
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
            den = state.reg + running
            return [
                ((grid[j] - y) * (state.pos[j] - state.neg[j]) * pre[j] * suf[j]
                 + state.reg * (score_y[j] - sq)) / den
                for j in range(n)
            ]
    rho, g_log = _ratio_parts(state)
    if g_log <= 0.0:
        g = math.exp(g_log)
        return [((grid[j] - y) * rho[j] + (score_y[j] - sq) * g) / (1.0 + g)
                for j in range(n)]
    ginv = math.exp(-g_log)
    return [((grid[j] - y) * rho[j] * ginv + (score_y[j] - sq)) / (ginv + 1.0)
            for j in range(n)]


def mw_choose_scan(state: ScanState, q: float) -> np.ndarray:
    """Scalar O(m^2) pair scan: the test oracle for mw_choose.

    Both label losses are linear in x, so the minimum over the simplex
    of their max is attained at a vertex or at a two-vertex mixture
    that equalizes them; all O(m^2) such candidates are scanned
    exactly.  Ties keep the grid point nearest to q.
    """
    n = state.cfg.m + 1
    h0 = vertex_losses_scan(state, q, 0)
    h1 = vertex_losses_scan(state, q, 1)

    j_star = nearest_grid_index(q, state.cfg.m)
    best_val = max(h0[j_star], h1[j_star])
    best = (j_star, None, 0.0)
    for j in range(n):
        v = max(h0[j], h1[j])
        if v < best_val:
            best_val = v
            best = (j, None, 0.0)
    diff = [h0[j] - h1[j] for j in range(n)]
    for i in range(n):
        di = diff[i]
        if di == 0.0:
            continue
        for j in range(i + 1, n):
            dj = diff[j]
            if di * dj < 0.0:
                t = dj / (dj - di)
                v = t * h0[i] + (1.0 - t) * h0[j]
                if v < best_val:
                    best_val = v
                    best = (i, j, t)
    x = np.zeros(n)
    i, j, t = best
    if j is None:
        x[i] = 1.0
    else:
        x[i] = t
        x[j] = 1.0 - t
    return x


def approach_scan(cfg, a, b, q, is_zero):
    """Shared oracle core over any indexable coefficient sequence a.

    Returns (distribution, number of scalar f evaluations).  The search
    keeps s(lo) >= 0 > s(hi) for s(i) = f(i,1) - f(i,0), which holds at
    the endpoints whenever neither endpoint already answers.
    """
    m = cfg.m
    if is_zero:
        # Every w works when theta = 0; the nearest grid point costs
        # nothing in calibration and the least in regret.
        return point_mass(nearest_grid_index(q, m)), 0

    grid = cfg.grid
    s0_tab, s1_tab = cfg.score0, cfg.score1
    binv = b / cfg.lam
    sq0 = score(cfg.rule, q, 0)
    sq1 = score(cfg.rule, q, 1)
    evals = 0

    def F(i):
        nonlocal evals
        evals += 2
        gi = grid[i]
        ai = a[i]
        return (ai * gi + binv * (s0_tab[i] - sq0),
                ai * (gi - 1.0) + binv * (s1_tab[i] - sq1))

    f00, f01 = F(0)
    if not f00 <= 0.0:
        raise RuntimeError(f"oracle invariant f(0, 0) <= 0 violated: {f00}")
    if f01 <= 0.0:
        return point_mass(0), evals
    fm0, fm1 = F(m)
    if not fm1 <= 0.0:
        raise RuntimeError(f"oracle invariant f(m, 1) <= 0 violated: {fm1}")
    if fm0 <= 0.0:
        return point_mass(m), evals

    lo, flo0, flo1 = 0, f00, f01
    hi, fhi0, fhi1 = m, fm0, fm1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        g0, g1 = F(mid)
        if g1 >= g0:
            lo, flo0, flo1 = mid, g0, g1
        else:
            hi, fhi0, fhi1 = mid, g0, g1

    if flo0 <= 0.0 and flo1 <= 0.0:
        return point_mass(lo), evals
    if fhi0 <= 0.0 and fhi1 <= 0.0:
        return point_mass(hi), evals

    delta = flo0 - fhi0 - flo1 + fhi1
    if abs(delta) < DEGENERATE_DELTA:
        # Nearly collinear responses; keep the point with the smaller
        # worst-case response.
        if max(flo0, flo1) <= max(fhi0, fhi1):
            return point_mass(lo), evals
        return point_mass(hi), evals
    w_lo = (fhi1 - fhi0) / delta
    w_hi = (flo0 - flo1) / delta
    if w_lo <= 0.0:
        return point_mass(hi), evals
    if w_hi <= 0.0:
        return point_mass(lo), evals
    return ForecastDistribution(((lo, w_lo), (hi, w_hi))), evals


class ScalarRecalibratorState:
    """The online state as it was before the fused round: the test oracle
    for RecalibratorState.

    It asks approach_scan for w, keeps the calibration ledger in a list,
    makes one scalar rng.random() call per mixture round and walks the
    support twice in observe (add_payoff, then the theta step).

    predict and observe must strictly alternate.  The cumulative payoff
    uses the expected distribution w_t, not the sampled point; realized
    calibration of the sampled stream is measured separately.
    """

    def __init__(self, cfg: GameConfig, rng):
        self.cfg = cfg
        self.t = 1
        self.rng = np.random.default_rng(rng)
        self._a = [0.0] * (cfg.m + 1)
        self._b = 0.0
        self._nnz = 0
        self._cum_cal = [0.0] * (cfg.m + 1)
        self._cum_reg = 0.0
        self._pending = None
        self._diameter = dual_set_diameter(cfg.m)

    @property
    def theta(self) -> HalfspaceParam:
        return HalfspaceParam(np.array(self._a), self._b)

    @property
    def cum_payoff(self) -> PayoffVector:
        return PayoffVector(np.array(self._cum_cal), self._cum_reg)

    def predict(self, q: float):
        """Return (p, w): the sampled grid forecast and the distribution."""
        if self._pending is not None:
            raise ProtocolError("predict called twice without observe")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"forecast must lie in [0, 1], got {q}")
        is_zero = self._b == 0.0 and self._nnz == 0
        w, _ = approach_scan(self.cfg, self._a, self._b, q, is_zero)
        support = w.support
        if len(support) == 1:
            i = support[0][0]
        else:
            i = support[0][0] if self.rng.random() < support[0][1] else support[1][0]
        self._pending = (q, w)
        return self.cfg.grid[i], w

    def observe(self, q: float, y: int) -> "ScalarRecalibratorState":
        """Absorb the label: accumulate the expected payoff and step theta."""
        if self._pending is None:
            raise ProtocolError("observe called without a pending predict")
        pending_q, w = self._pending
        if q != pending_q:
            raise ProtocolError(f"observe q={q} does not match pending predict q={pending_q}")
        if y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {y}")
        self._pending = None

        grid = self.cfg.grid
        eta = self._diameter / (GRAD_NORM_BOUND * math.sqrt(self.t))
        reg = add_payoff(self.cfg, w.support, q, y, self._cum_cal)
        a = self._a
        for i, wi in w.support:
            old = a[i]
            new = old + eta * (wi * (grid[i] - y))
            new = -1.0 if new < -1.0 else (1.0 if new > 1.0 else new)
            a[i] = new
            if old == 0.0:
                if new != 0.0:
                    self._nnz += 1
            elif new == 0.0:
                self._nnz -= 1
        self._cum_reg += reg
        new_b = self._b + eta * reg
        self._b = 0.0 if new_b < 0.0 else (1.0 if new_b > 1.0 else new_b)
        self.t += 1
        return self


def adversary_label_scan(w: ForecastDistribution, theta, q: float,
                         cum_payoff: PayoffVector, t: int, cfg: GameConfig) -> int:
    """Label maximizing next-step average distance to the target set.

    w is any play with a support of (index, weight) pairs; t is the
    number of completed rounds; ties resolve to y = 1.  The
    recalibrator's current parameter is observable but unused by this
    greedy adversary, so callers may pass theta=None.
    """
    best_y = 1
    best_d = -math.inf
    for y in (1, 0):
        cal = cum_payoff.cal.copy()
        reg = cum_payoff.reg + add_payoff(cfg, w.support, q, y, cal)
        d = dist_to_target(cfg, PayoffVector(cal / (t + 1), reg / (t + 1)))
        if d > best_d:
            best_d = d
            best_y = y
    return best_y


def adversary_label_payoff(w: ForecastDistribution, theta, q: float,
                          cum_payoff: PayoffVector, t: int, cfg: GameConfig) -> int:
    """harness.adversary_label on a copied ledger, with adversary_label_scan's
    signature: the label, with the ledger's l1 norm computed here.

    w is any play with a support of (index, weight) pairs; t is the
    number of completed rounds; theta is unused.
    """
    if len(cum_payoff.cal) != cfg.m + 1:
        raise ValueError(f"ledger must have m+1 = {cfg.m + 1} entries, "
                         f"got {len(cum_payoff.cal)}")
    if t < 0:
        raise ValueError(f"completed rounds must be nonnegative, got {t}")
    return adversary_label(w.support, score_pair(cfg.rule, q), cum_payoff.cal,
                           cum_payoff.reg, cum_payoff.cal_l1(), t, cfg)[0]


def mw_choose_vector(state: MWState, q: float) -> np.ndarray:
    """mw_choose's play as a dense m+1 distribution."""
    x = np.zeros(state.cfg.m + 1)
    for k, w in mw_choose(state, q):
        x[k] = w
    return x


def mw_update_vector(state: MWState, x, q: float, y: int) -> MWState:
    """mw_update for a dense m+1 distribution x, stepped on its nonzero
    entries."""
    idx, w = _support(state.cfg, x)
    return mw_update(state, zip(idx, w), score(state.cfg.rule, q, y), y)


def mw_choose_dense(state: MWState, q: float) -> np.ndarray:
    """Distribution minimizing the worst-label weighted loss.

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
    """
    n = state.cfg.m + 1
    w_pat, w_reg = _shares(state)
    sq = np.array(score_pair(state.cfg.rule, q)).reshape(2, 1)
    h0, h1 = state._grid_minus_y * (state.rho * w_pat) + (state._scores - sq) * w_reg
    d = h0 - h1
    a = int(h1.argmin())
    b = int(h0.argmin())
    if d[a] <= 0.0:
        best = (a, a, 1.0)
    elif d[b] >= 0.0:
        best = (b, b, 1.0)
    else:
        for _ in range(n):
            lam = (h1[b] - h1[a]) / (d[a] - d[b])
            line = h1 + lam * d
            k = int(line.argmin())
            if not line[k] < min(line[a], line[b]):
                i, j = min(a, b), max(a, b)
                best = (i, j, d[j] / (d[j] - d[i]))
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
    x = np.zeros(n)
    x[i] = t
    x[j] += 1.0 - t
    return x


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _trace_csv_text(trace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    cps = {c.t: c for c in trace.checkpoints}
    for idx in range(len(trace.p)):
        t = idx + 1
        row = [t, repr(trace.q[idx]), repr(trace.p[idx]), trace.y[idx]]
        c = cps.get(t)
        if c is None:
            row += ["", "", "", ""]
        else:
            row += [repr(c.calib_l1), repr(c.average_regret),
                    repr(c.recalibration_rate), repr(c.dist_to_target)]
        writer.writerow(row)
    return buf.getvalue()


def _trace_json_rows(trace) -> list:
    cps = {c.t: c for c in trace.checkpoints}
    rows = []
    for idx in range(len(trace.p)):
        t = idx + 1
        c = cps.get(t)
        rows.append({
            "t": t,
            "q": trace.q[idx],
            "p": trace.p[idx],
            "y": trace.y[idx],
            "calib_l1": c.calib_l1 if c else None,
            "avg_regret": c.average_regret if c else None,
            "recal_rate": c.recalibration_rate if c else None,
            "dist_to_target": c.dist_to_target if c else None,
        })
    return rows
