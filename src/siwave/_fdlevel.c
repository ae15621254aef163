/* One block of levels of the FD stepper of siwave.fd, compiled.

   siwave.fd builds this file on first use (fd._kernel) with
       -O3 -fPIC -shared -ffp-contract=off -fno-math-errno
   and loads it with ctypes.  siwave_fd_levels steps the levels of one
   block of fd._run on the block's window and makes, on every element, the
   IEEE operations of _run's numpy level loop in the same order: no fused
   multiply-add (-ffp-contract=off), no reassociation and no reciprocal
   (no -ffast-math), so every value it writes has the numpy loop's bits.
   sqrt is correctly rounded in both, and the mass coefficient's
   (1 + t)^2 is libm's pow, which is what Python's float power calls.

   The layouts of struct fd_comp and struct fd_run are those of
   fd._KernelComp and fd._KernelRun; the forms are the indices of
   fd._KERNEL_POWERS.
*/

#include <math.h>

/* One component: its forcing |u_t|^p of component src, p = 1.5, 2, 2.5 or 3
   for form 0, 1, 2 or 3; and its 0.5 mu dt and nu2. */
struct fd_comp {
    long form, src;
    double half_mu_dt, nu2;
};

struct fd_run {
    /* u^{k-1}, u^k and u^{k+1} are u[rot], u[rot + 1] and u[rot + 2] (mod 3);
       every buffer holds the m components node-major */
    double *u[3];
    double *ut, *abs_ut, *rhs;
    const struct fd_comp *comp;
    long n, m;
    long mirror;     /* centre node of a mirrored run (its ghost centre - 1
                        copies centre + 1 after each level), else -1 */
    long scaled;     /* cfl != 1: the c^2 and 2 (1 - c^2) u terms */
    long shared;     /* every component has the (mu, nu2) of component 0 */
    long rot;        /* in, and out at the end of the block */
    long level;      /* out: the level the call stopped at, or last + 1 */
    long over;       /* out: a store level's max |u_t| exceeds the threshold */
    double dt, c2, two_less_c2, dt2, two_dt, threshold;
};

enum { FD_END, FD_NONFINITE, FD_STORE, FD_THRESHOLD };

/* The forcing of every component on nodes [lo, hi), from the lagged |u_t|. */
static void force(const struct fd_run *r, long m, long lo, long hi)
{
    for (long j = 0; j < m; j++) {
        const double *a = r->abs_ut + r->comp[j].src;
        double *f = r->rhs + j;
        switch (r->comp[j].form) {
        case 0:
            for (long i = lo * m; i < hi * m; i += m)
                f[i] = a[i] * sqrt(a[i]);
            break;
        case 1:
            for (long i = lo * m; i < hi * m; i += m)
                f[i] = a[i] * a[i];
            break;
        case 2:
            for (long i = lo * m; i < hi * m; i += m)
                f[i] = (a[i] * a[i]) * sqrt(a[i]);
            break;
        default:
            for (long i = lo * m; i < hi * m; i += m)
                f[i] = (a[i] * a[i]) * a[i];
        }
    }
}

/* u^{k+1}, u_t and |u_t| of elements from, from + stride, ... below to, with
   the coefficients of one component.  The neighbour sum is of the elements
   at offsets right and left: m and -m, or 0 and 0 at a grid end, which
   takes u + u.  The mass product is taken even where the numpy loop leaves
   it out (every nu2 == 0): there it is u * +0.0 = +-0.0, with u finite,
   and the forcing it is subtracted from is >= +0.0, never -0.0, so it
   changes no bit.  The flags become 1.0 where an |u_t| exceeds the
   threshold (over) or is not below infinity (bad): the questions the loop
   asks of np.maximum.reduce's peak, kept as selects so that the loop
   vectorizes. */
static void update(const struct fd_run *r, long from, long to, long stride, long right,
                   long left, const double *restrict prv, const double *restrict cur,
                   double *restrict nxt, double less, double more, double mass, double *over,
                   double *bad)
{
    double *restrict ut = r->ut, *restrict abs_ut = r->abs_ut;
    const double *restrict rhs = r->rhs;
    const double c2 = r->c2, two_less_c2 = r->two_less_c2, dt2 = r->dt2, two_dt = r->two_dt;
    const double threshold = r->threshold;
    const int scaled = r->scaled;
    double o = *over, b = *bad;
    for (long e = from; e < to; e += stride) {
        /* (1+lam) u^{k+1} = c^2 (u_{i+1} + u_{i-1}) + 2 (1-c^2) u
                             - (1-lam) u^{k-1} + dt^2 (rhs - mass u) */
        double s = cur[e + right] + cur[e + left];
        if (scaled)
            s = s * c2 + cur[e] * two_less_c2;
        double g = rhs[e] - cur[e] * mass;
        g = g * dt2;
        s = s - prv[e] * less;
        s = s + g;
        s = s / more;
        nxt[e] = s;
        const double v = (s - prv[e]) / two_dt;
        const double a = fabs(v);
        ut[e] = v;
        abs_ut[e] = a;
        o = a > threshold ? 1.0 : o;
        b = a < INFINITY ? b : 1.0;
    }
    *over = o;
    *bad = b;
}

/* Level k on nodes [lo, hi); returns the flags of update. */
static void level(const struct fd_run *r, long lo, long hi, long k, double *over, double *bad)
{
    const long n = r->n, m = r->m;
    const double t = (double)k * r->dt;
    /* read at run time, so that pow(x, two) stays a libm call */
    volatile double two = 2.0;
    const double *prv = r->u[r->rot], *cur = r->u[(r->rot + 1) % 3];
    double *nxt = r->u[(r->rot + 2) % 3];
    if (m == 1)  /* a copy for unit stride, which the compiler vectorizes */
        force(r, 1, lo, hi);
    else
        force(r, m, lo, hi);
    /* one coefficient group, or one per component */
    const long groups = r->shared ? 1 : m, width = r->shared ? m : 1;
    const long from = (lo > 1 ? lo : 1) * m, to = (hi < n - 1 ? hi : n - 1) * m;
    for (long j = 0; j < groups; j++) {
        const double lam = r->comp[j].half_mu_dt / (1.0 + t);
        const double less = 1.0 - lam, more = 1.0 + lam;
        const double mass = r->comp[j].nu2 / pow(1.0 + t, two);
        if (lo == 0)
            update(r, j, j + width, groups, 0, 0, prv, cur, nxt, less, more, mass, over, bad);
        if (groups == 1)
            update(r, from, to, 1, m, -m, prv, cur, nxt, less, more, mass, over, bad);
        else
            update(r, from + j, to, m, m, -m, prv, cur, nxt, less, more, mass, over, bad);
        if (hi == n)
            update(r, (n - 1) * m + j, (n - 1) * m + j + width, groups, 0, 0, prv, cur, nxt,
                   less, more, mass, over, bad);
    }
    if (r->mirror >= 0)
        for (long j = 0; j < m; j++)
            nxt[(r->mirror - 1) * m + j] = nxt[(r->mirror + 1) * m + j];
}

/* Steps levels first..last on nodes [lo, hi) and stops, without rotating the
   buffers past the level, at the first level that turns non-finite, that is
   next_store (r->over tells whether it also crossed the threshold), or whose
   max |u_t| exceeds the threshold; the level goes to r->level and the
   reason is returned. */
long siwave_fd_levels(struct fd_run *r, long lo, long hi, long first, long last,
                      long next_store)
{
    const long m = r->m;
    for (long k = first; k <= last; k++) {
        double over = 0.0, bad = 0.0;
        level(r, lo, hi, k, &over, &bad);
        r->level = k;
        /* u^{k-1} is finite, so a NaN |u_t| comes from a NaN u^{k+1}: the
           peak is NaN only where this returns */
        if (bad != 0.0) {
            const double *nxt = r->u[(r->rot + 2) % 3];
            for (long e = lo * m; e < hi * m; e++)
                if (!isfinite(nxt[e]))
                    return FD_NONFINITE;
        }
        if (k == next_store) {
            r->over = over != 0.0;
            return FD_STORE;
        }
        if (over != 0.0)
            return FD_THRESHOLD;
        r->rot = (r->rot + 1) % 3;
    }
    r->level = last + 1;
    return FD_END;
}
