/* The rounds of recal.harness._PythonRound.run, compiled.
 * recal_round plays n consecutive rounds of an approach, passthrough or mw
 * run in place: the quote's two scores (scoring.score_pair), the play, the
 * greedy adversary's label in an adversarial run (harness.adversary_label),
 * BucketStats.add and the update, in the Python round's order of
 * operations, so every sum comes out bit for bit the same.  Round r reads
 * its quote from q[r] and writes the grid point it plays into p[r].
 *   - approach (mode RECAL_APPROACH): the halfspace oracle and its uniform
 *     (RecalibratorState.play), then the payoff and the OGD step
 *     (RecalibratorState.update).
 *   - passthrough (RECAL_PASSTHROUGH): theta stays 0, so the play is the
 *     oracle's theta = 0 shortcut, geometry.nearest_grid_index, and the
 *     update is geometry.add_payoff's formula with no step.
 *   - mw (RECAL_MW): mw_recalibrator._shares and mw_choose, the inverse-CDF
 *     sample of mw_recalibrator.MWState.play, which draws a uniform every
 *     round, then the payoff and mw_update.  log_a's sum is numpy's
 *     pairwise sum, so that _shares' float(log_a.sum()) is matched.
 *   - adversarial = 1: the label is the adversary's, read off the live
 *     ledger cal and cum_reg after the play and written into y[r];
 *     otherwise y is read.
 * The loop is written once, in play_rounds, and recal_round calls one copy
 * of it per mode with the mode and the flag as constants, so no round
 * tests a mode.  Build it with -fno-builtin -ffp-contract=off: gcc would
 * otherwise fold pow(x, 2.0) into x*x and fuse multiply-adds, and both
 * change last bits.  It returns the number of rounds played.  A round that
 * needs a uniform when none is left, whose oracle invariant fails, or whose
 * mw_choose does not converge, is not played: it changes nothing and sets
 * stop to RECAL_NEED_UNIFORMS or RECAL_INVARIANT.
 * recal_checkpoint computes a checkpoint's metrics from the same state
 * between two calls of recal_round, so the state is copied back to Python
 * only once, when the run ends. */
#include <math.h>
#include <stdint.h>

#define RECAL_NEED_UNIFORMS 1
#define RECAL_INVARIANT 2
#define RECAL_PASSTHROUGH 0
#define RECAL_APPROACH 1
#define RECAL_MW 2
#define DEGENERATE_DELTA 1e-12

struct recal_round {
    /* the mode and the game, read only */
    int64_t mode, adversarial, m, log_rule;
    double gamma, lam, cal_threshold, reg_threshold, diameter, grad_norm_bound;
    const double *grid, *score0, *score1;
    /* the payoff ledger, and the adversary's running l1 norm of cal */
    double *cal, cum_reg, l1;
    /* an approach forecaster: theta = (a, b) and the oracle's counters;
     * t and mixture_rounds are an mw forecaster's too */
    double *a, b;
    int64_t t, nnz, f_evals, mixture_rounds, endpoint_answers, degenerate_fallbacks;
    /* an mw forecaster (MWState): the log weights u, rho = tanh(u),
     * log_a = log(2 cosh u), r and eta, mw_choose's step count, and room
     * for its two lines h0, h1 of m+1 entries each */
    double *u, *rho, *log_a, r, eta, *h;
    int64_t choose_steps;
    /* the block of uniforms last drawn; the next one is uniforms[next_uniform] */
    const double *uniforms; int64_t next_uniform, n_uniforms;
    /* BucketStats */
    int64_t *counts, *label_sums, rounds;
    double cum_forecaster_score, cum_oracle_score;
    int64_t stop;
};

/* numpy's pairwise sum of a[0..n-1], which float(x.sum()) gives for a
 * contiguous float64 array x: a plain sum below 8 entries, eight
 * accumulators up to 128, and above that two halves split at a multiple
 * of 8.  A sum in any other order differs in the last bits. */
static double pairwise_sum(const double *a, int64_t n) {
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double acc[8];
        int64_t i;
        for (int k = 0; k < 8; k++)
            acc[k] = a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                acc[k] += a[i + k];
        double res = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                     ((acc[4] + acc[5]) + (acc[6] + acc[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    const int64_t n2 = n / 2 - (n / 2) % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* mw_recalibrator.mw_choose, with _shares: the support of the play, its
 * first entry in lo, w_lo and a second one in hi, w_hi; it gives the
 * number of entries, or 0 when the crossing lines do not converge in m+1
 * steps, and sets steps to the crossings taken.  h0 and h1 are the
 * lines' values at lam = 1 and lam = 0, and d = h0 - h1 their slopes. */
static int mw_choose(const struct recal_round *s, double qr, double sq0, double sq1,
                     int64_t *lo, double *w_lo, int64_t *hi, double *w_hi, int64_t *steps) {
    const int64_t m = s->m;
    const double *grid = s->grid, *s0 = s->score0, *s1 = s->score1, *rho = s->rho;
    double *h0 = s->h, *h1 = s->h + m + 1;
    /* the shares of the sign patterns and of the regret coordinate */
    const double g_log = s->r - pairwise_sum(s->log_a, m + 1);
    double w_pat, w_reg;
    if (g_log <= 0.0) {
        const double g = exp(g_log);
        w_pat = 1.0 / (1.0 + g), w_reg = g / (1.0 + g);
    } else {
        const double ginv = exp(-g_log);
        w_pat = ginv / (ginv + 1.0), w_reg = 1.0 / (ginv + 1.0);
    }
    /* the lowest line at lam = 0 (a) and at lam = 1 (b), first of ties */
    int64_t a = 0, b = 0;
    for (int64_t k = 0; k <= m; k++) {
        const double p = rho[k] * w_pat;
        h0[k] = grid[k] * p + (s0[k] - sq0) * w_reg;
        h1[k] = (grid[k] - 1.0) * p + (s1[k] - sq1) * w_reg;
        if (h1[k] < h1[a])
            a = k;
        if (h0[k] < h0[b])
            b = k;
    }
    double da = h0[a] - h1[a], db = h0[b] - h1[b], t = 1.0;
    int64_t i, j;
    *steps = 0;
    if (da <= 0.0) {
        i = j = a;
    } else if (db >= 0.0) {
        i = j = b;
    } else {
        /* a rises and b falls: walk to the lowest line at their crossing */
        for (;;) {
            if (*steps == m + 1)
                return 0;
            *steps += 1;
            const double lam = (h1[b] - h1[a]) / (da - db);
            int64_t k = 0;
            double low = h1[0] + lam * (h0[0] - h1[0]);
            for (int64_t kk = 1; kk <= m; kk++) {
                const double line = h1[kk] + lam * (h0[kk] - h1[kk]);
                if (line < low)
                    k = kk, low = line;
            }
            const double la = h1[a] + lam * da, lb = h1[b] + lam * db;
            if (!(low < (lb < la ? lb : la))) {
                const double di = a < b ? da : db, dj = a < b ? db : da;
                i = a < b ? a : b, j = a < b ? b : a;
                t = dj / (dj - di);
                break;
            }
            const double dk = h0[k] - h1[k];
            if (dk > 0.0)
                a = k, da = dk;
            else
                b = k, db = dk;
        }
    }
    /* the grid point nearest to q, unless the optimum is strictly lower */
    const double v0 = t * h0[i] + (1.0 - t) * h0[j], v1 = t * h1[i] + (1.0 - t) * h1[j];
    int64_t near = (int64_t)floor(qr * (double)m + 0.5);
    near = near < 0 ? 0 : (near > m ? m : near);
    if (!((v1 > v0 ? v1 : v0) < (h1[near] > h0[near] ? h1[near] : h0[near])))
        i = j = near, t = 1.0;
    /* x[i] = t, x[j] += 1 - t, and the entries left at zero dropped */
    if (i == j) {
        *lo = i, *w_lo = 1.0; /* t is 1 here */
        return 1;
    }
    int size = 0;
    if (t != 0.0)
        *lo = i, *w_lo = t, size = 1;
    if (1.0 - t != 0.0) {
        if (size)
            *hi = j, *w_hi = 1.0 - t;
        else
            *lo = j, *w_lo = 1.0 - t;
        size += 1;
    }
    return size;
}

static inline __attribute__((always_inline)) int64_t
play_rounds(struct recal_round *s, int64_t n, const double *q, int8_t *y,
            double *p, const int adversarial, const int mode) {
    const int learn = mode == RECAL_APPROACH, mw = mode == RECAL_MW;
    const int64_t m = s->m;
    const double *grid = s->grid, *s0 = s->score0, *s1 = s->score1;
    double *a = s->a, *cal = s->cal;
    s->stop = 0;
    for (int64_t r = 0; r < n; r++) {
        const double qr = q[r];
        double sq0, sq1;
        if (s->log_rule) {
            const double g = s->gamma;
            const double ph = qr < g ? g : (qr > 1.0 - g ? 1.0 - g : qr);
            sq0 = -log(1.0 - ph);
            sq1 = -log(ph);
        } else {
            sq0 = pow(qr, 2.0);
            sq1 = pow(qr - 1, 2.0);
        }

        /* play: one index i, or the pair lo, hi with weights w_lo, w_hi */
        int64_t i, lo = 0, hi = 0, evals = 0, endpoint = 0, degenerate = 0;
        double w_lo = 1.0, w_hi = 0.0;
        int mixture = 0;
        const double b = learn ? s->b : 0.0;
        if (mw) {
            int64_t steps;
            const int size = mw_choose(s, qr, sq0, sq1, &lo, &w_lo, &hi, &w_hi, &steps);
            if (!size) {
                s->stop = RECAL_INVARIANT;
                return r;
            }
            if (s->next_uniform == s->n_uniforms) {
                s->stop = RECAL_NEED_UNIFORMS;
                return r;
            }
            /* the inverse-CDF sample: a uniform every round */
            mixture = size == 2;
            i = mixture && !(s->uniforms[s->next_uniform] < w_lo) ? hi : lo;
            s->next_uniform++;
            s->choose_steps += steps, s->mixture_rounds += mixture;
        } else if (!learn || (b == 0.0 && s->nnz == 0)) {
            /* theta = 0: the nearest grid point, halves rounded up */
            i = (int64_t)floor(qr * (double)m + 0.5);
            i = i < 0 ? 0 : (i > m ? m : i);
        } else {
            const double binv = b / s->lam;
            const double f00 = a[0] * grid[0] + binv * (s0[0] - sq0);
            const double f01 = a[0] * (grid[0] - 1.0) + binv * (s1[0] - sq1);
            const double fm0 = a[m] * grid[m] + binv * (s0[m] - sq0);
            const double fm1 = a[m] * (grid[m] - 1.0) + binv * (s1[m] - sq1);
            if (!(f00 <= 0.0) || (!(f01 <= 0.0) && !(fm1 <= 0.0))) {
                s->stop = RECAL_INVARIANT;
                return r;
            }
            if (f01 <= 0.0) {
                i = 0, evals = 2, endpoint = 1;
            } else if (fm0 <= 0.0) {
                i = m, evals = 4, endpoint = 1;
            } else {
                double flo0 = f00, flo1 = f01, fhi0 = fm0, fhi1 = fm1;
                hi = m, evals = 4;
                while (hi - lo > 1) {
                    const int64_t mid = (lo + hi) / 2;
                    const double g0 = a[mid] * grid[mid] + binv * (s0[mid] - sq0);
                    const double g1 = a[mid] * (grid[mid] - 1.0) + binv * (s1[mid] - sq1);
                    evals += 2;
                    if (g1 >= g0)
                        lo = mid, flo0 = g0, flo1 = g1;
                    else
                        hi = mid, fhi0 = g0, fhi1 = g1;
                }
                const double delta = flo0 - fhi0 - flo1 + fhi1;
                const double wlo = (fhi1 - fhi0) / delta, whi = (flo0 - flo1) / delta;
                if (flo0 <= 0.0 && flo1 <= 0.0) {
                    i = lo;
                } else if (fhi0 <= 0.0 && fhi1 <= 0.0) {
                    i = hi;
                } else if (fabs(delta) < DEGENERATE_DELTA) {
                    /* keep the point with the smaller worst-case response */
                    const double worst_lo = flo1 > flo0 ? flo1 : flo0;
                    const double worst_hi = fhi1 > fhi0 ? fhi1 : fhi0;
                    i = worst_lo <= worst_hi ? lo : hi, degenerate = 1;
                } else if (wlo <= 0.0) {
                    i = hi;
                } else if (whi <= 0.0) {
                    i = lo;
                } else if (fabs(wlo + whi - 1.0) > 1e-12) {
                    s->stop = RECAL_INVARIANT;
                    return r;
                } else if (s->next_uniform == s->n_uniforms) {
                    s->stop = RECAL_NEED_UNIFORMS;
                    return r;
                } else {
                    w_lo = wlo, w_hi = whi, mixture = 1;
                    i = s->uniforms[s->next_uniform++] < w_lo ? lo : hi;
                }
            }
            s->f_evals += evals, s->endpoint_answers += endpoint;
            s->degenerate_fallbacks += degenerate, s->mixture_rounds += mixture;
        }
        p[r] = grid[i];
        const int64_t support[2] = {mixture ? lo : i, hi};
        const double weight[2] = {w_lo, w_hi};

        /* the label: the greedy adversary's pick of the one that leaves the
         * larger average distance to the target set, ties to 1 */
        int yr;
        if (adversarial) {
            const double t_after = (double)(s->rounds + 1); /* n of adversary_label */
            double best_d = -INFINITY, best_l1 = s->l1;
            yr = 1;
            for (int yy = 1; yy >= 0; yy--) {
                const double *score_yy = yy ? s1 : s0;
                const double sqy = yy ? sq1 : sq0;
                double l1_y = s->l1, reg = 0.0;
                for (int k = 0; k <= mixture; k++) {
                    const int64_t j = support[k];
                    const double c = cal[j];
                    l1_y += fabs(c + weight[k] * (grid[j] - yy)) - fabs(c);
                    reg += weight[k] * (score_yy[j] - sqy);
                }
                const double cal_excess = l1_y / t_after - s->cal_threshold;
                const double reg_excess = (s->cum_reg + reg / s->lam) / t_after - s->reg_threshold;
                const double d = (cal_excess > 0.0 ? cal_excess : 0.0) +
                                 (reg_excess > 0.0 ? reg_excess : 0.0);
                if (d > best_d)
                    yr = yy, best_d = d, best_l1 = l1_y;
            }
            s->l1 = best_l1;
            y[r] = (int8_t)yr;
        } else {
            yr = y[r];
        }

        /* BucketStats.add */
        const double *score_y = yr ? s1 : s0;
        const double sq = yr ? sq1 : sq0;
        s->counts[i] += 1, s->label_sums[i] += yr, s->rounds += 1;
        s->cum_forecaster_score += score_y[i];
        s->cum_oracle_score += sq;

        /* update: the payoff, and the projected step on a or mw_update's
         * log weights, over the support */
        const double eta = learn ? s->diameter / (s->grad_norm_bound * sqrt((double)s->t)) : 0.0;
        double reg = 0.0, mw_reg = -sq;
        for (int k = 0; k <= mixture; k++) {
            const int64_t j = support[k];
            const double c = weight[k] * (grid[j] - yr);
            cal[j] += c;
            reg += weight[k] * (score_y[j] - sq);
            if (learn) {
                const double old = a[j], step = old + eta * c;
                a[j] = step < -1.0 ? -1.0 : (step > 1.0 ? 1.0 : step);
                s->nnz += (old == 0.0 && a[j] != 0.0) - (old != 0.0 && a[j] == 0.0);
            }
            if (mw) {
                const double v = s->u[j] + s->eta * c, v_abs = fabs(v);
                s->u[j] = v;
                s->rho[j] = tanh(v);
                s->log_a[j] = v_abs + log1p(exp(-2.0 * v_abs));
                mw_reg += weight[k] * score_y[j];
            }
        }
        reg /= s->lam;
        s->cum_reg += reg;
        if (learn) {
            const double new_b = b + eta * reg;
            s->b = new_b < 0.0 ? 0.0 : (new_b > 1.0 ? 1.0 : new_b);
            s->t += 1;
        }
        if (mw) {
            s->r += s->eta * mw_reg;
            s->t += 1;
        }
    }
    return n;
}

/* The five floats of harness.CheckpointMetrics after the s->rounds rounds
 * played, read off the live state: calib_l1, calibration_rate,
 * average_regret and recalibration_rate as BucketStats.rates(delta) gives
 * them, and dist_to_target of the average payoff, cal / t and cum_reg / t,
 * each in the Python order of operations.  Python's max(0.0, x) is
 * x > 0.0 ? x : 0.0.  dist_to_target divides before numpy sums, so the
 * l1 norm is the pairwise sum of |cal_i / t|, taken in scratch, which
 * holds m+1 doubles.  s->rounds must be at least 1. */
void recal_checkpoint(const struct recal_round *s, double delta, double *scratch,
                      double *out) {
    const int64_t m = s->m;
    const double t = (double)s->rounds;
    double total = 0.0;
    for (int64_t i = 0; i <= m; i++)
        if (s->counts[i])
            total += fabs((double)s->counts[i] * s->grid[i] - (double)s->label_sums[i]);
    const double l1 = total / t;
    const double regret = (s->cum_forecaster_score - s->cum_oracle_score) / t;
    const double cal_excess = l1 - 0.5 / (double)m;
    const double cal_rate = cal_excess > 0.0 ? cal_excess : 0.0;
    const double reg_excess = regret - delta / 2.0;
    double recal = cal_rate > 0.0 ? cal_rate : 0.0;
    recal = reg_excess > recal ? reg_excess : recal;
    for (int64_t i = 0; i <= m; i++)
        scratch[i] = fabs(s->cal[i] / t);
    const double cal_far = pairwise_sum(scratch, m + 1) - s->cal_threshold;
    const double reg_far = s->cum_reg / t - s->reg_threshold;
    out[0] = l1, out[1] = cal_rate, out[2] = regret, out[3] = recal;
    out[4] = (cal_far > 0.0 ? cal_far : 0.0) + (reg_far > 0.0 ? reg_far : 0.0);
}

int64_t recal_round(struct recal_round *s, int64_t n, const double *q, int8_t *y,
                    double *p) {
    if (s->mode == RECAL_MW)
        return s->adversarial ? play_rounds(s, n, q, y, p, 1, RECAL_MW)
                              : play_rounds(s, n, q, y, p, 0, RECAL_MW);
    if (s->mode == RECAL_APPROACH)
        return s->adversarial ? play_rounds(s, n, q, y, p, 1, RECAL_APPROACH)
                              : play_rounds(s, n, q, y, p, 0, RECAL_APPROACH);
    return s->adversarial ? play_rounds(s, n, q, y, p, 1, RECAL_PASSTHROUGH)
                          : play_rounds(s, n, q, y, p, 0, RECAL_PASSTHROUGH);
}
