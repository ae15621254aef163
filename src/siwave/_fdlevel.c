/* One block of levels of the FD stepper of siwave.fd, compiled.

   siwave.fd builds this file on first use (fd._kernel) with
       -O3 -fPIC -shared -pthread -ffp-contract=off -fno-math-errno
   and loads it with ctypes.  siwave_fd_levels steps the levels of one
   block of fd._run on the block's window, with their stored rows, and
   makes, on every element, the IEEE operations of fd._levels, the numpy
   level loop, in the same order: no fused multiply-add
   (-ffp-contract=off), no reassociation and no reciprocal (no
   -ffast-math), so every value it writes has the numpy loop's bits.
   sqrt is correctly rounded in both, and the mass coefficient's
   (1 + t)^2 is libm's pow, which is what Python's float power calls.

   siwave_fd_split steps one block on two threads, the caller and a helper
   that siwave_fd_helper_start starts and siwave_fd_helper_stop joins.  The
   window [lo, hi) is cut at mid.  The lower half steps in place on nodes
   [lo, mid + (last - k)) at level k, the upper half on private copies of
   the buffers on nodes [mid - (last - k), hi): each computes the halo it
   needs again (overlapped tiling), so the halves share no state while they
   step, and every element gets the operations of siwave_fd_levels in the
   same order, with the same bits.  The handoff is one state under the
   helper's lock and one condition variable: the caller posts the upper
   half and steps the lower one, then steps the upper half itself where no
   thread has taken it, or sleeps until the helper, which takes a posted
   half, has stepped it.  No thread spins.  Each half writes the stored
   rows of its own nodes, [lo, mid) or [mid, hi).

   On x86-64 with glibc, where the compiler has the target_clones
   attribute, steps and the level loops it inlines (force, update, level)
   are built twice, for AVX2 (32-byte vectors) and for the baseline (SSE2,
   16-byte vectors), and the dynamic loader picks one through an ifunc when
   the library is loaded: the AVX2 clone on CPUs that have AVX2.  The
   clones vectorize the same loops; each vector lane makes the scalar
   loop's correctly rounded add, multiply, divide and sqrt, and its
   compare, in the same order, and the AVX2 target has no FMA (nor does
   -ffp-contract=off allow one); the loops reduce nothing but the 0/1
   flags, so no sum is reordered, and both clones give the same bits.
   Built with -DFD_CLONES= (empty), or elsewhere, steps has one build.

   The layouts of struct fd_comp and struct fd_run are those of
   fd._KernelComp and fd._KernelRun; the forms are the indices of
   fd._KERNEL_POWERS.
*/

#include <math.h>
#include <pthread.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>

/* Where the loader picks among clones of a function (x86-64 with glibc's
   ifunc) and the compiler makes them, steps comes in an AVX2 clone and a
   baseline one; elsewhere, or built with -DFD_CLONES=, in one. */
#if !defined(FD_CLONES) && defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define FD_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef FD_CLONES
#define FD_CLONES
#endif

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
    /* values and dvalues: the stored rows of u and u_t of component 0, n
       nodes each, of the levels k_max and k = store_every j, in row
       ceil(k / store_every); store_every is 0 where the run stores none */
    double *ut, *abs_ut, *rhs, *values, *dvalues;
    const struct fd_comp *comp;
    long n, m, store_every, k_max;
    long mirror;     /* centre node of a mirrored run (its ghost centre - 1
                        copies centre + 1 after each level, and a row's node
                        i goes to 2 centre - i too), else -1 */
    long scaled;     /* cfl != 1: the c^2 and 2 (1 - c^2) u terms */
    long shared;     /* every component has the (mu, nu2) of component 0 */
    long rot;        /* in, and out at the end of the block */
    long level;      /* out: the level the call stopped at, or last + 1 */
    double dt, c2, two_less_c2, dt2, two_dt, threshold;
};

/* The stop reasons; a level asks about them in this order, so where the
   halves of a split block stop at the same level, the smaller one holds. */
enum { FD_END, FD_NONFINITE, FD_THRESHOLD };

/* The forcing of every component on nodes [lo, hi), from the lagged |u_t|. */
static inline __attribute__((always_inline)) void force(const struct fd_run *r, long m,
                                                        long lo, long hi)
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
   takes u + u.  The mass product is taken for every nu2, as fd._levels
   takes it.  The flags become 1.0 where an |u_t| exceeds the threshold
   (crossed) or is not below infinity (bad): the questions fd._levels asks
   of its peak max |u_t|, kept as selects so that the loop vectorizes. */
static inline __attribute__((always_inline)) void update(
    const struct fd_run *r, long from, long to, long stride, long right, long left,
    const double *restrict prv, const double *restrict cur, double *restrict nxt, double less,
    double more, double mass, double *crossed, double *bad)
{
    double *restrict ut = r->ut, *restrict abs_ut = r->abs_ut;
    const double *restrict rhs = r->rhs;
    const double c2 = r->c2, two_less_c2 = r->two_less_c2, dt2 = r->dt2, two_dt = r->two_dt;
    const double threshold = r->threshold;
    const int scaled = r->scaled;
    double c = *crossed, b = *bad;
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
        c = a > threshold ? 1.0 : c;
        b = a < INFINITY ? b : 1.0;
    }
    *crossed = c;
    *bad = b;
}

/* Level k on nodes [lo, hi); returns the flags of update. */
static inline __attribute__((always_inline)) void level(const struct fd_run *r, long lo,
                                                        long hi, long k, double *crossed,
                                                        double *bad)
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
            update(r, j, j + width, groups, 0, 0, prv, cur, nxt, less, more, mass, crossed, bad);
        if (groups == 1)
            update(r, from, to, 1, m, -m, prv, cur, nxt, less, more, mass, crossed, bad);
        else
            update(r, from + j, to, m, m, -m, prv, cur, nxt, less, more, mass, crossed, bad);
        if (hi == n)
            update(r, (n - 1) * m + j, (n - 1) * m + j + width, groups, 0, 0, prv, cur, nxt,
                   less, more, mass, crossed, bad);
    }
    if (r->mirror >= 0)
        for (long j = 0; j < m; j++)
            nxt[(r->mirror - 1) * m + j] = nxt[(r->mirror + 1) * m + j];
}

/* Writes u^k and u_t of component 0 on nodes [lo, hi), and in a mirrored
   run at their images 2 centre - i too, into the stored rows of level k. */
static void store(const struct fd_run *r, long lo, long hi, long k)
{
    const long m = r->m, row = (k + r->store_every - 1) / r->store_every;
    const double *cur = r->u[(r->rot + 1) % 3];
    double *u = r->values + row * r->n, *ut = r->dvalues + row * r->n;
    for (long i = lo; i < hi; i++) {
        u[i] = cur[i * m];
        ut[i] = r->ut[i * m];
        if (r->mirror >= 0) {
            u[2 * r->mirror - i] = u[i];
            ut[2 * r->mirror - i] = ut[i];
        }
    }
}

/* Steps levels first..last, level k on nodes [lo - grow_lo (last - k),
   hi + grow_hi (last - k)), and stores the rows of nodes [lo, hi) at each
   store level; stops, without rotating the buffers past the level, at the
   first level that turns non-finite (before its row is stored) or whose
   max |u_t| exceeds the threshold (after); the level goes to r->level and
   the reason is returned. */
FD_CLONES static long steps(struct fd_run *r, long lo, long hi, long grow_lo, long grow_hi,
                            long first, long last)
{
    const long m = r->m;
    for (long k = first; k <= last; k++) {
        const long a = lo - grow_lo * (last - k), b = hi + grow_hi * (last - k);
        double crossed = 0.0, bad = 0.0;
        level(r, a, b, k, &crossed, &bad);
        r->level = k;
        /* u^{k-1} is finite, so a NaN |u_t| comes from a NaN u^{k+1}: the
           peak is NaN only where this returns */
        if (bad != 0.0) {
            const double *nxt = r->u[(r->rot + 2) % 3];
            for (long e = a * m; e < b * m; e++)
                if (!isfinite(nxt[e]))
                    return FD_NONFINITE;
        }
        if (r->store_every > 0 && (k % r->store_every == 0 || k == r->k_max))
            store(r, lo, hi, k);
        if (crossed != 0.0)
            return FD_THRESHOLD;
        r->rot = (r->rot + 1) % 3;
    }
    r->level = last + 1;
    return FD_END;
}

/* Steps levels first..last on nodes [lo, hi); see steps. */
long siwave_fd_levels(struct fd_run *r, long lo, long hi, long first, long last)
{
    return steps(r, lo, hi, 0, 0, first, last);
}

/* A helper's handoff states, read and written under its lock only: no half
   posted yet, a half posted, taken by a thread, stepped by the helper, and
   the helper asked to end.  Every change of state wakes the sleepers. */
enum { IDLE, POSTED, TAKEN, DONE, QUIT };

/* A helper thread and the upper half of the block it was last posted: the
   half's run on private full-width buffers, its nodes and levels, its stop
   reason and the caller's run it copies from and back to. */
struct fd_helper {
    struct fd_run upper, *run;
    double *own;
    long mid, hi, first, last, stop;
    pthread_t thread;
    int started, state;
    pthread_mutex_t lock;
    pthread_cond_t cond;
};

/* Copies nodes [from, to) of u[i] and u[i + 1] (mod 3) and of |u_t| from
   run src to run dst: all a level reads of earlier ones (u_t is read only
   in the level that computes it). */
static void copy_nodes(struct fd_run *dst, const struct fd_run *src, long i, long from, long to)
{
    if (from >= to)
        return;
    const long off = from * src->m;
    const size_t size = (size_t)((to - from) * src->m) * sizeof(double);
    memcpy(dst->u[i % 3] + off, src->u[i % 3] + off, size);
    memcpy(dst->u[(i + 1) % 3] + off, src->u[(i + 1) % 3] + off, size);
    memcpy(dst->abs_ut + off, src->abs_ut + off, size);
}

/* Steps the posted upper half.  The lower half reads and writes no node
   from edge = mid + (last - first + 1) up, so those nodes are copied in
   and, at the block's end, back out here, beside it. */
static void step_upper(struct fd_helper *h)
{
    struct fd_run *up = &h->upper;
    const long edge = h->mid + (h->last - h->first + 1);
    copy_nodes(up, h->run, up->rot, edge, h->hi);
    h->stop = steps(up, h->mid, h->hi, 1, 0, h->first, h->last);
    if (h->stop == FD_END)
        copy_nodes(h->run, up, up->rot, edge, h->hi);
}

/* Sets the helper's state and wakes every thread that waits on it. */
static void set_state(struct fd_helper *h, int state)
{
    pthread_mutex_lock(&h->lock);
    h->state = state;
    pthread_cond_broadcast(&h->cond);
    pthread_mutex_unlock(&h->lock);
}

/* Sleeps until a half is posted, takes and steps it; ends at QUIT.  It
   sleeps rather than spins: where the host gives the second CPU no time of
   its own, a spinning thread would take it from the other. */
static void *helper_main(void *arg)
{
    struct fd_helper *h = arg;
    for (;;) {
        pthread_mutex_lock(&h->lock);
        while (h->state != POSTED && h->state != QUIT)
            pthread_cond_wait(&h->cond, &h->lock);
        const int quit = h->state == QUIT;
        if (!quit)
            h->state = TAKEN;
        pthread_mutex_unlock(&h->lock);
        if (quit)
            return NULL;
        step_upper(h);
        set_state(h, DONE);
    }
}

/* A helper for the blocks of run r, with private buffers of r's size, or
   NULL when they cannot be allocated.  Where no thread can be started the
   helper has none, and the caller steps both halves of every block. */
struct fd_helper *siwave_fd_helper_start(const struct fd_run *r)
{
    struct fd_helper *h = calloc(1, sizeof *h);
    if (h == NULL)
        return NULL;
    h->own = calloc((size_t)(6 * r->n * r->m), sizeof(double));
    if (h->own == NULL) {
        free(h);
        return NULL;
    }
    h->state = IDLE;
    pthread_mutex_init(&h->lock, NULL);
    pthread_cond_init(&h->cond, NULL);
    /* the thread blocks every signal, so that they reach the caller's */
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    h->started = pthread_create(&h->thread, NULL, helper_main, h) == 0;
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    return h;
}

/* Joins the helper's thread and frees it. */
void siwave_fd_helper_stop(struct fd_helper *h)
{
    if (h->started) {
        set_state(h, QUIT);
        pthread_join(h->thread, NULL);
    }
    pthread_cond_destroy(&h->cond);
    pthread_mutex_destroy(&h->lock);
    free(h->own);
    free(h);
}

/* Steps levels first..last on nodes [lo, hi) as siwave_fd_levels does, the
   lower half [lo, mid) in the caller and the upper half [mid, hi) in the
   helper, or in the caller too where the helper has not taken it by the
   time the lower half is done.  Each half must hold more nodes than the
   block has levels.  The block stops at the lower of the halves' stop
   levels, and where they stop at the same level, for the smaller reason.
   At the block's end the upper half's two latest levels and |u_t| are
   copied back; at any other stop the run ends, reads no buffer again
   and keeps no row past the stop level. */
long siwave_fd_split(struct fd_run *r, struct fd_helper *h, long lo, long mid, long hi,
                     long first, long last)
{
    const long span = last - first + 1, size = r->n * r->m;
    struct fd_run *up = &h->upper;
    *up = *r;
    for (long i = 0; i < 3; i++)
        up->u[i] = h->own + i * size;
    up->ut = h->own + 3 * size;
    up->abs_ut = h->own + 4 * size;
    up->rhs = h->own + 5 * size;
    /* up keeps r->mirror for its rows' images; the ghost it copies in a
       mirrored run is a private node below its nodes, which it never reads */
    /* the upper half's halo and the nodes the lower half writes */
    copy_nodes(up, r, r->rot, mid - span, mid + span);
    h->run = r;
    h->mid = mid;
    h->hi = hi;
    h->first = first;
    h->last = last;
    set_state(h, POSTED);

    long stop = steps(r, lo, mid, 0, 1, first, last);
    /* the half no thread has taken is the caller's; else it waits */
    pthread_mutex_lock(&h->lock);
    const int mine = h->state == POSTED;
    if (mine)
        h->state = TAKEN;
    while (!mine && h->state != DONE)
        pthread_cond_wait(&h->cond, &h->lock);
    pthread_mutex_unlock(&h->lock);
    if (mine)
        step_upper(h);
    if (up->level < r->level || (up->level == r->level && h->stop < stop)) {
        stop = h->stop;
        r->level = up->level;
    }
    if (stop == FD_END)
        copy_nodes(r, up, r->rot, mid, mid + span);
    return stop;
}
