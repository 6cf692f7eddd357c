/* The rounds of recal.harness.run_experiment, compiled.
 * recal_round plays n consecutive rounds of an approach or passthrough run
 * in place: the quote's two scores (scoring.score_pair), the play, the
 * greedy adversary's label in an adversarial run (harness.adversary_label),
 * BucketStats.add and the update, in the Python round's order of
 * operations, so every sum comes out bit for bit the same.
 *   - approach (learn = 1): the halfspace oracle and its uniform
 *     (RecalibratorState.play), then the payoff and the OGD step
 *     (RecalibratorState.update).
 *   - passthrough (learn = 0): theta stays 0, so the play is the oracle's
 *     theta = 0 shortcut, geometry.nearest_grid_index, and the update is
 *     geometry.add_payoff's formula with no step.
 *   - adversarial = 1: the label is the adversary's, read off the live
 *     ledger cal and cum_reg after the play and written into y[r];
 *     otherwise y is read.
 * The loop is written once, in play_rounds, and recal_round calls one copy
 * of it per mode with the flags as constants, so no round tests a mode.
 * Build it with -fno-builtin -ffp-contract=off: gcc would otherwise fold
 * pow(x, 2.0) into x*x and fuse multiply-adds, and both change last bits.
 * It returns the number of rounds played.  A round that needs a uniform
 * when none is left, or whose oracle invariant fails, is not played: it
 * changes nothing and sets stop to RECAL_NEED_UNIFORMS or RECAL_INVARIANT. */
#include <math.h>
#include <stdint.h>

#define RECAL_NEED_UNIFORMS 1
#define RECAL_INVARIANT 2
#define DEGENERATE_DELTA 1e-12

struct recal_round {
    /* the mode and the game, read only */
    int64_t learn, adversarial, m, log_rule;
    double gamma, lam, cal_threshold, reg_threshold, diameter, grad_norm_bound;
    const double *grid, *score0, *score1;
    /* the payoff ledger, and the adversary's running l1 norm of cal */
    double *cal, cum_reg, l1;
    /* an approach forecaster: theta = (a, b) and the oracle's counters */
    double *a, b;
    int64_t t, nnz, f_evals, mixture_rounds, endpoint_answers, degenerate_fallbacks;
    /* the block of uniforms last drawn; the next one is uniforms[next_uniform] */
    const double *uniforms; int64_t next_uniform, n_uniforms;
    /* BucketStats */
    int64_t *counts, *label_sums, rounds;
    double cum_forecaster_score, cum_oracle_score;
    int64_t stop;
};

static inline __attribute__((always_inline)) int64_t
play_rounds(struct recal_round *s, int64_t n, const double *q, int8_t *y,
            int32_t *played, const int adversarial, const int learn) {
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
        if (!learn || (b == 0.0 && s->nnz == 0)) {
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
        played[r] = (int32_t)i;
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

        /* update: the payoff, and the projected step on a, over the support */
        const double eta = learn ? s->diameter / (s->grad_norm_bound * sqrt((double)s->t)) : 0.0;
        double reg = 0.0;
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
        }
        reg /= s->lam;
        s->cum_reg += reg;
        if (learn) {
            const double new_b = b + eta * reg;
            s->b = new_b < 0.0 ? 0.0 : (new_b > 1.0 ? 1.0 : new_b);
            s->t += 1;
        }
    }
    return n;
}

int64_t recal_round(struct recal_round *s, int64_t n, const double *q, int8_t *y,
                    int32_t *played) {
    if (s->learn)
        return s->adversarial ? play_rounds(s, n, q, y, played, 1, 1)
                              : play_rounds(s, n, q, y, played, 0, 1);
    return s->adversarial ? play_rounds(s, n, q, y, played, 1, 0)
                          : play_rounds(s, n, q, y, played, 0, 0);
}
