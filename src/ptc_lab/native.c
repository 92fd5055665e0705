/* The closed loop of ptc_lab.sim.run, compiled.
 *
 * ptc_run repeats the Python loop of sim.run operation for operation: the
 * same IEEE double operations on the same operands in the same order, so
 * that every value it records is bitwise the value the Python loop
 * records. It departs from the letter of that loop in six places, none
 * of which changes a bit:
 * - the rest step below skips work whose result it can prove;
 * - when neither f nor g reads t, the rest steps that follow a rest step
 *   in one pass repeat it bit for bit, and only advance the clock;
 * - a step whose state has every component below DEEP, and one nonzero,
 *   runs on the grid of 2^-1074: its values times 2^1074, in hardware
 *   doubles, with each product and quotient rounded once more where the
 *   unscaled one is subnormal; f runs its program on the values brought
 *   back, but example3's weighted sum runs on the grid, its fsum as a
 *   plain sum wherever that is exact (grid_sum gives the proof);
 * - a g that reads neither t nor the state is evaluated once per run;
 * - the step size skips the shrink cap's division where the stiffness
 *   cap always wins (step_size gives the proof);
 * - every doubling, 2.0 * s, is written s + s, which is exact and so
 *   gives the same bits, in every kind of step.
 * The plant's f and g arrive as postfix
 * programs that a small stack machine interprets, on a stack sized from
 * the deeper program; no plant text is ever compiled.
 *
 * Wherever the Python loop would raise (a zero divisor, a math function
 * Python refuses, an fsum overflow, a divergence, an envelope violation),
 * when the row buffer is full, and when the stack cannot be allocated,
 * ptc_run stops and returns a nonzero status; the caller then runs the
 * Python loop from t = 0, which raises with its own message and partial
 * trace. It also stops, at the start of
 * the next step, once the caller sets the cancel flag on Ctrl-C.
 *
 * Build: gcc -O2 -fPIC -shared -ffp-contract=off -o native.so native.c -lm
 * (ptc_lab.native._FLAGS holds these flags for the build and its cache key.)
 * Floating-point contraction (fused multiply-add) and fast-math would
 * change results, and so would excess precision.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "double arithmetic must not carry excess precision"
#endif

/* Opcodes; ptc_lab.native lists the same numbers. Each instruction is an
 * (opcode, operand) pair of ints, and OP_END closes a program. */
enum {
    OP_CONST, /* push consts[arg] */
    OP_X,     /* push x[arg] */
    OP_U,
    OP_T,
    OP_ADD,
    OP_SUB,
    OP_MUL,
    OP_DIV,
    OP_NEG,
    OP_SIN,
    OP_COS,
    OP_EXP,
    OP_ABS,
    OP_FSUM,  /* replace the top arg values by math.fsum of them, in push order */
    OP_END
};

/* CANCELLED: the caller set run_args.cancel, and raises KeyboardInterrupt
 * instead of handing the run to the Python loop. */
enum { OK = 0, FAULT = 1, FULL = 2, CANCELLED = 3 };

/* depth: the most values the program holds at once. */
typedef struct {
    const int *code;
    const double *consts;
    int depth;
} program;

typedef struct {
    int n;
    long stride;
    long capacity; /* rows the three buffers hold */
    double tau, t_end, stop, gamma_min, gamma, threshold;
    double dt_base, shrink_divisor, stiff_cap, phi, phi0, slack;
    const double *q;
    program f, g;
    double *x; /* the initial state; the last state on return */
    double *times, *states, *inputs;
    long rows, steps; /* out */
    double u_max, x_max; /* out */
    volatile int cancel; /* set by another thread: stop at the next step */
} run_args;

typedef unsigned __int128 u128;

/* The closed loop's functions each start a cache line of their own, so
 * that nothing gcc emits ahead of them can move their instructions across
 * line and fetch-block boundaries: a 0x170-byte shift once made ptc_run
 * 5-15 % slower on most example3 seeds (gcc 12, x86-64).
 * tests/test_native_layout.py checks the alignment in a build. */
#define HOT __attribute__((aligned(64)))
#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* ---- The grid of 2^-1074 ---------------------------------------------------
 *
 * A multiply or divide that reads or makes a subnormal takes a microcode
 * assist on x86-64 cores: about 55 ns for a multiply and 60 ns for a
 * divide on a Sapphire Rapids Xeon, against 1 and 2 ns; an add costs no
 * more. 11 of the 40 example3 disturbance seeds in 0-127 whose plants
 * keep their envelope leave the state subnormal, never exactly zero, for
 * most of the run, and would spend most of their time in those assists.
 * A grid pass, pass below with grid set, computes such a step in
 * hardware doubles without them: every value that depends on the state
 * is carried times 2^1074, which makes each double, subnormals included,
 * an integer-valued normal double. A sum of two carried values is the
 * carried sum: both round to 53 bits at the same place, or, below
 * 2^-1021, are exact. Every product and quotient in the step has one
 * time-only factor, and grid_op computes it as one hardware op, which
 * rounds to 53 bits. Where that is below 2^52, the unscaled result is
 * subnormal and rounds to an integer instead: grid_op rounds once more,
 * to the nearest integer, ties to even, which gives the same integer
 * unless the first rounding made a tie. At a half-integer, the exact
 * residual from fma says on which side of it the true value lies (Muller
 * et al., Handbook of Floating-Point Arithmetic, 2nd ed., 2018). f runs
 * on the grid only in example3's form (grid_sum); any other f runs its
 * own ops, assists and all, on the values brought back (grid_eval). */

#define SIGN (1ULL << 63)
#define HIDDEN (1ULL << 52)
#define CEILING 0x1p1000
#define SHIFT (1074ULL << 52) /* 2^1074 in the exponent field */

static uint64_t bits_of(double v)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    return bits;
}

static double of_bits(uint64_t bits)
{
    double v;
    memcpy(&v, &bits, sizeof v);
    return v;
}

/* v * 2^1074, for |v| < 2^-50: a subnormal's bits are its integer. */
ALWAYS_INLINE double to_grid(double v)
{
    uint64_t b = bits_of(v), m = b & ~SIGN;
    if (m < HIDDEN)
        return of_bits(bits_of((double)(int64_t)m) | (b & SIGN));
    return of_bits(b + SHIFT);
}

/* k * 2^-1074, for an integer-valued k. */
ALWAYS_INLINE double from_grid(double k)
{
    uint64_t b = bits_of(k);
    double m = fabs(k);
    if (m < 0x1p52)
        return of_bits((uint64_t)(int64_t)m | (b & SIGN));
    return of_bits(b - SHIFT);
}

/* a * b (divide = 0) or a / b (divide = 1) for a carried a and a
 * time-only b, carried; sets *bad where the result is not below CEILING.
 * A product may have its factors either way round: p, the residual and
 * so the result are the same. */
ALWAYS_INLINE double grid_op(int divide, double a, double b, int *bad)
{
    double p = divide ? a / b : a * b, m = fabs(p), k, r;
    if (!(m < 0x1p52)) {
        *bad |= !(m < CEILING);
        return p;
    }
    k = (m + 0x1p52) - 0x1p52; /* the nearest integer, ties to even */
    if (fabs(k - m) == 0.5) {
        /* r has the sign of the true value minus p: a - p*b is that
         * times b. */
        r = divide ? fma(-p, b, a) : fma(a, b, -p);
        if (divide && b < 0.0)
            r = -r;
        if (r != 0.0)
            k = (r > 0.0) == (p > 0.0) ? m + 0.5 : m - 0.5;
    }
    return copysign(k, p);
}

/* CPython's math.fsum (Shewchuk's partials with half-even correction),
 * for finite and special values alike. FAULT where math.fsum raises. The
 * partials overwrite the items: while item k is added, they number at
 * most k, and items from k on are still unread. out may be an item. */
static HOT int fsum(double *items, int count, double *out)
{
    double *p = items;
    double x, y, t, hi, yr, lo = 0.0, xsave;
    double special_sum = 0.0, inf_sum = 0.0;
    int i, j, k, n = 0;

    for (k = 0; k < count; k++) {
        x = items[k];
        xsave = x;
        for (i = j = 0; j < n; j++) {
            y = p[j];
            if (fabs(x) < fabs(y)) {
                t = x;
                x = y;
                y = t;
            }
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        n = i;
        if (x != 0.0) {
            if (!isfinite(x)) {
                if (isfinite(xsave))
                    return FAULT; /* OverflowError: intermediate overflow */
                if (isinf(xsave))
                    inf_sum += xsave;
                special_sum += xsave;
                n = 0;
            } else {
                p[n++] = x;
            }
        }
    }
    if (special_sum != 0.0) {
        if (isnan(inf_sum))
            return FAULT; /* ValueError: -inf + inf */
        *out = special_sum;
        return OK;
    }
    hi = 0.0;
    if (n > 0) {
        hi = p[--n];
        while (n > 0) {
            x = hi;
            y = p[--n];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0))) {
            y = lo + lo; /* lo * 2.0 */
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    *out = hi;
    return OK;
}

/* math.sin, math.cos and math.exp refuse what CPython's math_1 refuses: a
 * NaN from a non-NaN argument, or an infinity from a finite one. */
static int math_1(double (*fn)(double), double *v)
{
    double a = *v, r = fn(a);
    if (isnan(r) && !isnan(a))
        return FAULT;
    if (isinf(r) && isfinite(a))
        return FAULT;
    *v = r;
    return OK;
}

/* The stack machine: direct threading (GCC's labels as values), with the
 * top of the stack kept in tos. Binary ops take the value below tos as
 * their left operand, as Python evaluates left to right. st holds
 * p->depth + 1 values: st[0] takes the empty stack's tos. */
static HOT int eval(const program *p, double *st, const double *x, double u, double t,
                    double *out)
{
    static const void *const labels[] = {
        &&op_const, &&op_x, &&op_u, &&op_t, &&op_add, &&op_sub, &&op_mul,
        &&op_div, &&op_neg, &&op_sin, &&op_cos, &&op_exp, &&op_abs, &&op_fsum,
        &&op_end};
    double tos = 0.0;
    const int *pc = p->code;
    int sp = 0, arg;

#define NEXT() do { arg = pc[1]; pc += 2; goto *labels[pc[-2]]; } while (0)
    NEXT();
op_const: st[sp++] = tos; tos = p->consts[arg]; NEXT();
op_x: st[sp++] = tos; tos = x[arg]; NEXT();
op_u: st[sp++] = tos; tos = u; NEXT();
op_t: st[sp++] = tos; tos = t; NEXT();
op_add: tos = st[--sp] + tos; NEXT();
op_sub: tos = st[--sp] - tos; NEXT();
op_mul: tos = st[--sp] * tos; NEXT();
op_div:
    if (tos == 0.0)
        return FAULT; /* ZeroDivisionError */
    tos = st[--sp] / tos;
    NEXT();
op_neg: tos = -tos; NEXT();
op_sin: if (math_1(sin, &tos)) return FAULT; NEXT();
op_cos: if (math_1(cos, &tos)) return FAULT; NEXT();
op_exp: if (math_1(exp, &tos)) return FAULT; NEXT();
op_abs: tos = fabs(tos); NEXT();
op_fsum:
    /* The sum goes to the first item's slot, not to tos: an address
     * taken of tos would keep it in memory in every op. */
    st[sp] = tos;
    sp -= arg - 1;
    if (fsum(&st[sp], arg, &st[sp]))
        return FAULT;
    tos = st[sp];
    NEXT();
op_end:
    *out = tos;
    return OK;
#undef NEXT
}

/* The ints of a program's code, OP_END's pair included. */
static size_t length(const program *p)
{
    const int *pc = p->code;
    while (*pc != OP_END)
        pc += 2;
    return (size_t)(pc - p->code) + 2;
}

/* Whether f's program p is a weighted sum in example3's form, k products
 * CONST i, X j, MUL followed by FSUM k: if so, it returns k, and pairs
 * holds each product's state and constant indices; else 0. grid_sum
 * computes such an f on the grid. */
static int weighted_sum(const program *p, int *pairs)
{
    const int *pc = p->code;
    int terms = 0;

    /* Every op but OP_END has another after it, so pc[2] is read only
     * after an op, and pc[4] only after two. */
    for (; pc[0] == OP_CONST && pc[2] == OP_X && pc[4] == OP_MUL; terms++, pc += 6) {
        pairs[2 * terms] = pc[3];
        pairs[2 * terms + 1] = pc[1];
    }
    return pc[0] == OP_FSUM && pc[1] == terms && pc[2] == OP_END ? terms : 0;
}

/* Whether a program holds the opcode op. */
static int holds(const program *p, int op)
{
    const int *pc;
    for (pc = p->code; *pc != OP_END; pc += 2)
        if (*pc == op)
            return 1;
    return 0;
}

/* f's grid form: its program, where it is a weighted sum its terms and
 * their pairs (see weighted_sum; pairs holds length(f) ints), and room,
 * xb, for a stage state brought back. */
typedef struct {
    const program *f;
    int terms;
    const int *pairs;
    double *xb;
} grid_f;

/* A weighted sum at the carried x, carried, on st, which holds its terms:
 * grid_eval for it. Each product is grid_op, above, and faults where
 * grid_op sets bad.
 *
 * Every carried value is an integer-valued double: grid_op rounds to the
 * integers below 2^52, and every double from 2^52 up is an integer. So
 * where the terms' magnitudes sum to less than 2^53, each partial sum of
 * the terms is an integer below 2^53, which a double holds exactly, and
 * the plain sum acc is the exact sum, which is what math.fsum gives; acc
 * starts from +0.0, so an exact sum of 0 is +0.0, as from fsum. size,
 * the magnitudes' sum, is exact while below 2^53 and, rounding being
 * monotone, never falls below it once past. Past it, fsum's sums,
 * differences, comparisons and one doubling scale as a sum does (above)
 * while no value overflows, and an overflow faults. */
ALWAYS_INLINE int grid_sum(const grid_f *gf, double *st, const double *x, double *fv)
{
    const int *pair = gf->pairs;
    const double *c = gf->f->consts;
    double acc, size;
    int i, bad = 0;

    for (i = 0, acc = size = 0.0; i < gf->terms; i++, pair += 2) {
        st[i] = grid_op(0, x[pair[0]], c[pair[1]], &bad);
        acc = acc + st[i];
        size = size + fabs(st[i]);
    }
    if (bad)
        return FAULT;
    if (size < 0x1p53)
        *fv = acc;
    else if (fsum(st, gf->terms, fv))
        return FAULT;
    return isfinite(*fv) ? OK : FAULT;
}

/* f at the carried stage state x of n states and the carried input u:
 * *fv, carried. example3's weighted sum runs on the grid (grid_sum); any
 * other f runs its own program on x and u brought back, the exact values
 * the plain pass hands it, so its value is the plain pass's, carried
 * where it is below 2^-50. FAULT where f faults or its value cannot be
 * carried. st holds the program's depth + 1 values. */
ALWAYS_INLINE int grid_eval(const grid_f *gf, double *st, int n, const double *x, double u,
                            double t, double *fv)
{
    int i;
    if (gf->terms)
        return grid_sum(gf, st, x, fv);
    for (i = 0; i < n; i++)
        gf->xb[i] = from_grid(x[i]);
    if (eval(gf->f, st, gf->xb, from_grid(u), t, fv) || !(fabs(*fv) < 0x1p-50))
        return FAULT;
    *fv = to_grid(*fv);
    return OK;
}

/* One evaluation of a program of n states on its own, for tests. With
 * grid set, it runs as f runs in a grid pass: x and u are carried in,
 * grid_eval runs, and its value is brought back. FAULT where x or u is
 * not below 2^-50, or a grid pass would not carry the value. */
int ptc_eval(const program *p, int n, const double *x, double u, double t, int grid,
             double *out)
{
    double *st = malloc(((size_t)p->depth + 1) * sizeof *st);
    double *xs = malloc(((size_t)n + 1) * 2 * sizeof *xs);
    int *pairs = malloc(length(p) * sizeof *pairs);
    grid_f gf;
    int i, status = !st || !xs || !pairs;

    if (!status && !grid) {
        status = eval(p, st, x, u, t, out);
    } else if (!status) {
        gf = (grid_f){p, weighted_sum(p, pairs), pairs, xs + n + 1};
        status = !(fabs(u) < 0x1p-50);
        for (i = 0; i < n; i++) {
            status |= !(fabs(x[i]) < 0x1p-50);
            xs[i] = to_grid(x[i]);
        }
        if (!status && !(status = grid_eval(&gf, st, n, xs, to_grid(u), t, out)))
            *out = from_grid(*out);
    }
    free(pairs);
    free(xs);
    free(st);
    return status ? FAULT : OK;
}

/* One product (divide = 0) or quotient (divide = 1) on the grid, for
 * tests: a, below 2^-50, is carried, grid_op takes it with b, and *out is
 * the result brought back. FAULT where a grid pass would not carry it. */
int ptc_grid(int divide, double a, double b, double *out)
{
    int bad = !(fabs(a) < 0x1p-50);
    double k = grid_op(divide, to_grid(a), b, &bad);
    if (bad)
        return FAULT;
    *out = from_grid(k);
    return OK;
}

/* p[i] = (tau - s)**(n - i), each power the one above it times d. */
static void powers(int n, double tau, double s, double *p)
{
    double d = tau - s;
    int i;
    p[n - 1] = d;
    for (i = n - 2; i >= 0; i--)
        p[i] = p[i + 1] * d;
}

static HOT int record(run_args *a, double t, const double *x, double u)
{
    if (a->rows >= a->capacity)
        return FULL;
    a->times[a->rows] = t;
    memcpy(a->states + a->rows * a->n, x, (size_t)a->n * sizeof(double));
    a->inputs[a->rows] = u;
    a->rows++;
    return OK;
}

/* A state whose components are all below DEEP, one of them nonzero, takes
 * a grid pass, whatever f is; every other state, and every step a grid
 * pass leaves, takes the plain pass. The bits are the same either way:
 * the bound decides only which ops compute them. */
#define DEEP 0x1p-600

static int deep(int n, const double *x)
{
    int i, nonzero = 0;
    for (i = 0; i < n; i++) {
        if (!(fabs(x[i]) < DEEP))
            return 0;
        nonzero |= x[i] != 0.0;
    }
    return nonzero;
}

/* What one pass of run's loop hands the next: the time and g at it, the
 * steps so far, whether f and g are free of t, whether g is a constant,
 * whether the shrink cap can bind (see step_size), the loop's scratch
 * space, n values per array, and f's grid form. */
typedef struct {
    double t, g_now;
    long step_index;
    int can_rest, time_free, fixed_g, shrinks;
    double *p, *m, *ya, *yb, *yc, *sq, *xs;
    grid_f f;
} loop;

/* MORE: a pass has taken its step; the next pass starts from it. REDO: a
 * grid pass leaves its step to the plain pass. */
enum { MORE = -1, REDO = -2 };

/* Whether a step from the state +0.0 is a rest step (see pass): OK with
 * *u and *k, the input and derivative at t_next; MORE where it is not. */
ALWAYS_INLINE int rest_step(const run_args *a, double *st, const double *x, double t_mid,
                            double g_mid, double t_next, double g_next, double *u, double *k)
{
    double fv;
    if (a->gamma_min * g_mid == 0.0)
        return FAULT;
    *u = 0.0 / (a->gamma_min * g_mid);
    if (eval(&a->f, st, x, *u, t_mid, &fv))
        return FAULT;
    if (fv + a->gamma * g_mid * *u != 0.0)
        return MORE;
    if (a->gamma_min * g_next == 0.0)
        return FAULT;
    *u = 0.0 / (a->gamma_min * g_next);
    if (eval(&a->f, st, x, *u, t_next, &fv))
        return FAULT;
    *k = fv + a->gamma * g_next * *u;
    return *k == 0.0 ? OK : MORE;
}

/* g at t, into *g: its program's value, or, where it reads neither t nor
 * the state, the value it had at t = 0, which is its value at any t. */
ALWAYS_INLINE int g_at(const run_args *a, const loop *l, double *st, double t, double *g)
{
    if (l->fixed_g) {
        *g = l->g_now;
        return OK;
    }
    return eval(&a->g, st, a->x, 0.0, t, g);
}

/* The first stage's checks at the step start t, in the Python loop's
 * order: the divergence bound on x and u1, the audit of f1 against limit,
 * phi * ||x|| + phi0 + slack, the peaks, and the record of every
 * stride-th step and of the last sample. */
ALWAYS_INLINE int checks(run_args *a, const loop *l, double t, double u1, double f1,
                         double limit, int last)
{
    const double *x = a->x;
    double amp = fabs(x[0]);
    int i;
    /* max(map(abs, x)): a NaN wins only in front. */
    for (i = 1; i < a->n; i++)
        if (fabs(x[i]) > amp)
            amp = fabs(x[i]);
    if (!(amp <= a->threshold) || !(fabs(u1) <= a->threshold) || fabs(f1) > limit)
        return FAULT;
    if (amp > a->x_max)
        a->x_max = amp;
    if (fabs(u1) > a->u_max)
        a->u_max = fabs(u1);
    if (last || l->step_index % a->stride == 0)
        return record(a, t, x, u1);
    return OK;
}

/* The step from t: h = min(dt_base, d / shrink_divisor, stiff_cap * d)
 * with d = tau - t, cut to t_end - t where it reaches it, which clamps
 * the step. Returns whether it does.
 *
 * Where stiff_cap * shrink_divisor <= 1 holds exactly (shrinks is 0; fma
 * gives the sign of stiff_cap * shrink_divisor - 1 exactly),
 * stiff_cap * d <= d / shrink_divisor for every d >= 0, and rounding is
 * monotone, so the rounded stiffness cap is never above the rounded
 * shrink cap. The shrink cap then never lowers h below the stiffness
 * cap, and where the two tie they are one value: min gives the same bits
 * without it, and the division drops out of the clock's dependency
 * chain. Every step has d = tau - t > 0, since t <= t_end < tau. */
ALWAYS_INLINE int step_size(const run_args *a, const loop *l, double t, double *h)
{
    double d = a->tau - t, cap;
    *h = a->dt_base;
    if (l->shrinks) {
        cap = d / a->shrink_divisor;
        if (cap < *h)
            *h = cap;
    }
    cap = a->stiff_cap * d;
    if (cap < *h)
        *h = cap;
    if (!(*h >= a->t_end - t))
        return 0;
    *h = a->t_end - t;
    return 1;
}

/* a * b, or a / b where divide is set: in hardware doubles, or, with grid
 * set, by grid_op, which takes a carried dividend or either factor
 * carried, and sets *bad where it cannot carry the result. */
#define GRID_OP(grid, divide, a, b, bad) \
    ((grid) ? grid_op(divide, a, b, bad) : (divide) ? (a) / (b) : (a) * (b))

/* u = (0.0 + q[n-1]*y[n-1]/p[n-1] + ... + q[0]*y[0]/p[0]) / den, FAULT
 * at a zero divisor. On the grid, a zero divisor makes an infinity or a
 * NaN, which grid_op flags through bad, so the grid skips the tests. */
ALWAYS_INLINE int control(int n, const double *q, const double *y, const double *p,
                          double den, const int grid, int *bad, double *u)
{
    double acc = 0.0;
    int i;
    for (i = n - 1; i >= 0; i--) {
        if (!grid && p[i] == 0.0)
            return FAULT;
        acc = acc + GRID_OP(grid, 1, GRID_OP(grid, 0, q[i], y[i], bad), p[i], bad);
    }
    if (!grid && den == 0.0)
        return FAULT;
    *u = GRID_OP(grid, 1, acc, den, bad);
    return OK;
}

/* One RK4 stage: the input *u, f's value *fv and the derivative's last
 * component *k at the stage state y, whose other components are y's next
 * entries. On the grid, y and the three results are carried, and f runs
 * by grid_eval. */
ALWAYS_INLINE int stage(const run_args *a, const loop *l, double *st, const double *y,
                        const double *p, double s, double den, double gain, const int grid,
                        int *bad, double *u, double *fv, double *k)
{
    if (control(a->n, a->q, y, p, den, grid, bad, u))
        return FAULT;
    if (grid ? grid_eval(&l->f, st, a->n, y, *u, s, fv) : eval(&a->f, st, y, *u, s, fv))
        return FAULT;
    *k = *fv + GRID_OP(grid, 0, gain, *u, bad);
    return OK;
}

/* One pass: the first stage at the step start, its checks and its
 * record, then rest steps, if any, and one general step. OK once it has
 * recorded the last sample at t_end.
 *
 * With grid set, the pass computes the same step on the grid of 2^-1074
 * (above), for a state that calls for it: the gain law, the stage
 * states, f, by grid_eval, and the update, each product and quotient by
 * grid_op. Below DEEP (2^-600) the state stays below 2^474 carried,
 * and the audit's squares are below 2^-1200, which rounds to +0.0: its
 * limit is phi * 0.0 + phi0 + slack. Such a pass never rests. It carries
 * its step only where every product and quotient stays below CEILING and
 * every value of f can be carried, so that every carried value is
 * finite; otherwise, at the last sample, and wherever f, g or a divisor
 * could fault, it returns REDO and leaves the step to the plain pass,
 * which is why it has no side effects before its step is computed. The
 * first stage's checks come after the step, on the values the plain pass
 * would check before it, and the step is then brought back into x. */
ALWAYS_INLINE int pass(run_args *a, double *st, loop *l, const int grid)
{
    const int n = a->n, top = n - 1;
    const double tau = a->tau, t_end = a->t_end, stop = a->stop;
    const double gamma_min = a->gamma_min, gamma = a->gamma;
    double *x = a->x, *xv = grid ? l->xs : x; /* the state the step runs on */
    double *p = l->p, *m = l->m, *ya = l->ya, *yb = l->yb, *yc = l->yc;
    double t = l->t, u1, f1, k1, norm;
    double h, half, t_mid, t_next, g_mid, g_next, u, fv, k, k2, k3, k4, sixth, s;
    int i, last, resting = 0, clamped, status, again = 0, bad = 0;

    last = !(t < stop);
    if (last) {
        if (grid)
            return REDO;
        t = t_end;
        if (g_at(a, l, st, t, &l->g_now))
            return FAULT;
    }
    for (i = 0; grid && i < n; i++)
        xv[i] = to_grid(x[i]);
    /* The first stage. */
    powers(n, tau, t, p);
    if (stage(a, l, st, xv, p, t, gamma_min * l->g_now, gamma * l->g_now, grid, &bad, &u1, &f1,
              &k1))
        return grid ? REDO : FAULT;
    if (!grid) {
        /* plant.check_assumption's limit; a state that fails the
         * divergence bound faults either way. */
        for (i = 0; i < n; i++)
            l->sq[i] = x[i] * x[i];
        if (fsum(l->sq, n, &norm))
            return FAULT;
        status = checks(a, l, t, u1, f1, a->phi * sqrt(norm) + a->phi0 + a->slack, last);
        if (status || last)
            return status;
        resting = k1 == 0.0 && l->can_rest;
        /* Every component +0.0; a -0.0 keeps the step general. */
        for (i = 0; i < n && resting; i++)
            resting = x[i] == 0.0 && !signbit(x[i]);
    }
    /* Rest steps, if any, then one general step; a rest step that
     * reaches the stop time leaves for the last sample instead. */
    for (;;) {
        /* Once per step, rest steps included. */
        if (a->cancel)
            return CANCELLED;
        clamped = step_size(a, l, t, &h);
        half = 0.5 * h;
        t_mid = t + half;
        t_next = t + h;
        if (!again && (g_at(a, l, st, t_mid, &g_mid) || g_at(a, l, st, t_next, &g_next)))
            return grid ? REDO : FAULT;
        /* A rest step. From rest all four stage states are x itself,
         * +0.0, so stages 2 and 3 are the same call, and stage 4's
         * values at t_next are the next step's first stage. When both
         * derivatives are 0.0 the general step would leave x as it is:
         * each stage state and the update add products with +-0.0 to
         * +0.0, which gives +0.0. So a rest step calls f once at t_mid
         * and once at t_next and keeps x. It skips the divergence check
         * and the envelope audit of the next step start, which both
         * pass: x = +0.0 and u = +-0.0, so |v| = 0 <= threshold;
         * k = f + gain*u == 0.0 with gain*u either +-0.0 or NaN forces
         * f = 0.0, so |f| = 0 <= phi*0 + phi0 + slack; and neither peak
         * can grow from 0. A clamped step ends the loop, which
         * evaluates t_end afresh, so it is never a rest step.
         * When neither f nor g reads t, every value of a rest step but
         * its times is the same at any t, so the rest steps after it in
         * this pass repeat it: they keep g_mid, g_next, u and k, and
         * only advance the clock. */
        if (resting && !clamped) {
            status = again ? OK : rest_step(a, st, x, t_mid, g_mid, t_next, g_next, &u, &k);
            if (status == FAULT)
                return FAULT;
            if (status == OK) {
                again = l->time_free;
                k1 = k;
                t = t_next;
                l->step_index++;
                if (!(t < stop))
                    break;
                if (l->step_index % a->stride == 0)
                    if ((status = record(a, t, x, u)))
                        return status;
                continue;
            }
        }
        /* The general step: stages 2 to 4 and the update. */
        powers(n, tau, t_mid, m);
        for (i = 0; i < n; i++)
            ya[i] = xv[i] + GRID_OP(grid, 0, half, i < top ? xv[i + 1] : k1, &bad);
        if (stage(a, l, st, ya, m, t_mid, gamma_min * g_mid, gamma * g_mid, grid, &bad, &u, &fv,
                  &k2))
            return grid ? REDO : FAULT;
        for (i = 0; i < n; i++)
            yb[i] = xv[i] + GRID_OP(grid, 0, half, i < top ? ya[i + 1] : k2, &bad);
        if (stage(a, l, st, yb, m, t_mid, gamma_min * g_mid, gamma * g_mid, grid, &bad, &u, &fv,
                  &k3))
            return grid ? REDO : FAULT;
        powers(n, tau, t_next, p);
        for (i = 0; i < n; i++)
            yc[i] = xv[i] + GRID_OP(grid, 0, h, i < top ? yb[i + 1] : k3, &bad);
        if (stage(a, l, st, yc, p, t_next, gamma_min * g_next, gamma * g_next, grid, &bad, &u,
                  &fv, &k4))
            return grid ? REDO : FAULT;
        sixth = h / 6.0;
        /* In place: xv[i] reads xv[i + 1] before the next pass writes it.
         * s + s is 2.0 * s. */
        for (i = 0; i < top; i++) {
            s = ya[i + 1] + yb[i + 1];
            xv[i] = xv[i] + GRID_OP(grid, 0, sixth, xv[i + 1] + (s + s) + yc[i + 1], &bad);
        }
        s = k2 + k3;
        xv[top] = xv[top] + GRID_OP(grid, 0, sixth, k1 + (s + s) + k4, &bad);
        if (grid) {
            if (bad)
                return REDO;
            status = checks(a, l, t, from_grid(u1), from_grid(f1),
                            a->phi * 0.0 + a->phi0 + a->slack, 0);
            if (status)
                return status;
            for (i = 0; i < n; i++)
                x[i] = from_grid(xv[i]);
        }
        l->g_now = g_next;
        t = clamped ? t_end : t_next;
        l->step_index++;
        break;
    }
    l->t = t;
    return MORE;
}

/* pass on the grid, for a state that calls for it. */
static HOT int grid(run_args *a, double *st, loop *l)
{
    return pass(a, st, l, 1);
}

/* The passes of the loop, each the kind its state calls for: the choice
 * is made once per pass. pairs holds f's terms (see grid_f). */
static HOT int run(run_args *a, double *st, int *pairs)
{
    const int n = a->n;
    double p[n], m[n], ya[n], yb[n], yc[n], sq[n], xs[n], xb[n];
    const program *g = &a->g;
    loop l = {0.0, 0.0, 0, 0, !holds(&a->f, OP_T) && !holds(g, OP_T),
              !holds(g, OP_T) && !holds(g, OP_X) && !holds(g, OP_U),
              !(fma(a->stiff_cap, a->shrink_divisor, -1.0) <= 0.0), p, m, ya, yb, yc, sq, xs,
              {0}};
    int status;

    /* From the state +0.0 a stage sums only zeros, so the gain sum is +0.0
     * and u = 0.0 / (gamma_min * g), when every q is finite
     * (build_gain_schedule ensures it) and no power of tau - s is 0. The
     * stage times of a step that is not clamped lie at or before t_end,
     * and the powers shrink with tau - s, so the n-th power at t_end, the
     * smallest when tau - t_end < 1, settles that for the whole run. */
    powers(n, a->tau, a->t_end, p);
    l.can_rest = p[0] != 0.0;
    l.f = (grid_f){&a->f, weighted_sum(&a->f, pairs), pairs, xb};
    a->rows = 0;
    a->u_max = 0.0;
    a->x_max = 0.0;
    /* The first g, which a fixed g keeps. */
    if (eval(g, st, a->x, 0.0, l.t, &l.g_now))
        return FAULT;
    do {
        status = deep(n, a->x) ? grid(a, st, &l) : REDO;
        if (status == REDO)
            status = pass(a, st, &l, 0);
    } while (status == MORE);
    a->steps = l.step_index;
    return status;
}

/* run, on one stack for f and g, with room for f's grid form. */
HOT int ptc_run(run_args *a)
{
    int depth = a->f.depth > a->g.depth ? a->f.depth : a->g.depth;
    double *st = malloc(((size_t)depth + 1) * sizeof *st);
    int *pairs = malloc(length(&a->f) * sizeof *pairs);
    int status = st && pairs ? run(a, st, pairs) : FAULT;
    free(pairs);
    free(st);
    return status;
}

/* ---- Trace CSV cells ---------------------------------------------------
 *
 * ptc_format_rows writes each cell as Python's format(v, ".17g") does, and
 * ptc_parse_rows reads back what it writes. ptc_lab.cli keeps the Python
 * writer and reader as the reference and the fallback.
 *
 * Writer. A double v = m * 2^e, 2^52 <= m < 2^53 (a subnormal's m shifted
 * up to that range, e lowered to match), has the decimal exponent x or
 * x + 1, where x = floor((e + 52) * log10(2)) (the fixed-point form below
 * is exact for every such e, down to -1126). decimal multiplies v by
 * 10^(16 - x) once, in exact integers, so q = floor(v * 10^(16 - x)) has
 * 17 or 18 digits and the part cut off is known exactly: below, at or
 * above one half, and whether it is 0. With 17 digits, that part rounds q
 * half to even. With 18, x was one low: the 18th digit r joins the
 * rounding, which goes up when r > 5, or r = 5 with a nonzero part below
 * it, or r = 5 at an exact tie with the 17 digits odd. A carry to 10^17
 * moves x up by one, as in printf. The digits come from two 32-bit halves
 * through a table of digit pairs, and reach the output in copies of fixed
 * size, which may write up to SLACK bytes past the cell. Zeros and
 * non-finite values are written directly. scale takes magnitudes from
 * about 1e-6 up to 2^52, which hold nearly every cell of a trace, in
 * 128-bit integers; scale_wide takes the smaller ones, subnormals
 * included, in words of 64 bits; magnitudes of 2^52 and above go to
 * snprintf, which glibc rounds exactly too.
 *
 * Reader. Digits are taken eight at a time where eight bytes remain before
 * the end of the text: one load, a test that all eight are digits, and
 * three multiplies; the last few go one by one. A cell with at most 19
 * significant digits d and a decimal scale 10^p, -21 <= p <= 19, is
 * converted by Eisel-Lemire (Lemire, "Number parsing at a gigabyte per
 * second", 2021): d times a 128-bit truncation of 10^p, which is exact for
 * p >= 0. The truncation puts the true product within d units of the
 * 192-bit result, so the top bits decide the rounding unless they sit at a
 * boundary that those units could cross, or at an exact tie. A cell of at
 * most 17 digits with -340 <= p < -21, as the writer writes every
 * subnormal and most values below 1e-5, is read by nearest: the double near d * 10^p whose
 * 17-digit decimal is d * 10^p, found by the writer's own decimal. Every
 * other cell, and every cell those two cannot decide, goes to strtod,
 * which glibc rounds correctly too; a cell that strtod does not read to
 * its end (another LC_NUMERIC locale) is refused. Zeros are read directly.
 */

/* The longest cell, "-1.2345678901234567e-308", and its separator. */
#define CELL 25
/* The most bytes a cell writes past its own end: its digits are copied
 * 16 or 17 at a time. The output of ptc_format_rows has room for them. */
#define SLACK 16

/* 10^0 .. 10^19, the powers that fit in 64 bits. */
static const uint64_t POW10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL,
    1000000000000ULL, 10000000000000ULL, 100000000000000ULL,
    1000000000000000ULL, 10000000000000000ULL, 100000000000000000ULL,
    1000000000000000000ULL, 10000000000000000000ULL};

/* 10^k for 0 <= k <= 38. */
static u128 pow10_128(int k)
{
    return k < 20 ? (u128)POW10[k] : (u128)POW10[19] * POW10[k - 19];
}

/* "00" .. "99". */
static const char PAIRS[201] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* *q = floor(m * 2^e * 10^k), exactly; *rest says whether the part cut
 * off is below (-1), at (0) or above (1) one half, and *zero whether it is
 * 0. For 0 <= k <= 22 and e < 0, which holds from about 1e-6 up to 2^52;
 * m < 2^53. k <= 22 puts x at -6 or above, so e >= -71: no shift below
 * passes 71 bits. */
static void scale(uint64_t m, int e, int k, uint64_t *q, int *rest, int *zero)
{
    u128 num, r, half;
    num = (u128)m * pow10_128(k); /* < 2^53 * 10^22 < 2^127 */
    *q = (uint64_t)(num >> -e);
    r = num - ((u128)*q << -e);
    half = (u128)1 << (-e - 1);
    *rest = (r > half) - (r < half); /* without branches, as in format_cell */
    *zero = r == 0;
}

/* 5^0 .. 5^26. */
static const uint64_t FIVE[27] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL,
    1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL, 6103515625ULL,
    30517578125ULL, 152587890625ULL, 762939453125ULL, 3814697265625ULL,
    19073486328125ULL, 95367431640625ULL, 476837158203125ULL, 2384185791015625ULL,
    11920928955078125ULL, 59604644775390625ULL, 298023223876953125ULL,
    1490116119384765625ULL};

/* 5^(27 j) for j = 1 .. 12, below 2^(64 j): j words each, the lowest
 * first, from word j (j - 1) / 2 on. */
static const uint64_t FIVE27[78] = {
    0x6765c793fa10079dULL,
    0x6664242d97d9f649ULL, 0x29c30f1029939b14ULL,
    0x7bf3f22ac4f809c5ULL, 0xad34051767bdae34ULL, 0x10de1593369d1b5fULL,
    0x9efff7c792b260d1ULL, 0xaeba5d5681de0ec6ULL, 0x4f40737a410664a4ULL,
    0x06d00f7320d3846fULL,
    0x13a1d71cff1b172dULL, 0x7f682d3defa07617ULL, 0x3f0131e7ff8c90c0ULL,
    0x917b01773fdcb9feULL, 0x02c06b9d16c407a7ULL,
    0x056667ec960f7199ULL, 0x80f2b9cce07aefd8ULL, 0xeb9a214a8273f5e3ULL,
    0x0e477ad440b38005ULL, 0xfa28b11e277d08e6ULL, 0x011c835bd3f7d784ULL,
    0x3282d3f3f723d9d5ULL, 0x69659d25e00857d1ULL, 0x24da6d072cf117cfULL,
    0x3e5d8ced954d1417ULL, 0xfd785ae67a8bb766ULL, 0x40c78b34645436d2ULL,
    0x0072e9f794151217ULL,
    0x7893c5a72b416aa1ULL, 0x2bad2beae37dc6d4ULL, 0x7575ae4bf0fc846cULL,
    0x83b67a3462587b14ULL, 0xf7992f5502110cdbULL, 0xa4a23bec00deb022ULL,
    0xb85b654f8af5c5cdULL, 0x002e69d2818df38bULL,
    0x20b0c15f3518cbbdULL, 0xfb5dc3dd38756c2fULL, 0xbf35a95222ad2d94ULL,
    0x9a613326a699192aULL, 0xd7f48968ad2a9cedULL, 0xc8f05db6e87dfb54ULL,
    0x31c1ab495ef67531ULL, 0x9b2957b5e202ac9fULL, 0x0012bf07a143f6d3ULL,
    0x21aba2e18b971de9ULL, 0x5717233663944362ULL, 0xfb534166d9544225ULL,
    0x14640ee208c563eeULL, 0x02b0653724e40d31ULL, 0x0285e53303887f14ULL,
    0x8be3a6c4b744ef26ULL, 0x6761ece2266979b4ULL, 0xe67de319d9cb39e4ULL,
    0x000792500d39e796ULL,
    0xf414a796260eb6e5ULL, 0xdb9368ebee1a7491ULL, 0x59157750f50c105bULL,
    0xf6e56d8b9ed2fb5cULL, 0x0f319f75eaee8d23ULL, 0xac2908e92aa134d6ULL,
    0x02f02a55d4413298ULL, 0x70dde184989d5a7aULL, 0x03200981ba8040a7ULL,
    0x3c1c2a18be03b11cULL, 0x00030ee0d60427a1ULL,
    0xf1c4aa25ce566d71ULL, 0xa72283d04e93ca53ULL, 0x3d0538e2551a73eaULL,
    0x6a58de608da4303fULL, 0x49cf61a60e660221ULL, 0xb9d1a14c8d058fc1ULL,
    0xc85c69324bab157dULL, 0x9b92b8d0518c8b9eULL, 0xbd855df90d8a0e21ULL,
    0x8da29289b3ea59a1ULL, 0x3752d80f4584d506ULL, 0x00013c33b72569c6ULL};

/* scale for 22 < k <= 350, in words of 64 bits: m * 10^k * 2^e is
 * m * 5^k * 2^(e + k), and with k = 27 j + r, m * 5^k is the 128-bit
 * m * 5^r times 5^(27 j), at most j + 2 words. The shift s = -(e + k) is
 * positive, and q = floor(m * 5^k / 2^s) < 2^58 lies in words s / 64 and
 * the next; the part cut off is the s bits below it. */
static void scale_wide(uint64_t m, int e, int k, uint64_t *q, int *rest, int *zero)
{
    static const uint64_t one = 1;
    const int j = k / 27, len = j ? j : 1, s = -(e + k);
    const uint64_t *five = j ? FIVE27 + j * (j - 1) / 2 : &one;
    const u128 a = (u128)m * FIVE[k % 27]; /* < 2^53 * 5^26 < 2^114 */
    uint64_t w[15] = {0}, half, below = 0;
    u128 c = 0;
    int i;

    for (i = 0; i < len; i++) {
        c += (u128)five[i] * (uint64_t)a;
        w[i] = (uint64_t)c;
        c >>= 64;
    }
    w[len] = (uint64_t)c;
    c = 0;
    for (i = 0; i < len; i++) {
        c += (u128)five[i] * (uint64_t)(a >> 64) + w[i + 1]; /* < 2^128 */
        w[i + 1] = (uint64_t)c;
        c >>= 64;
    }
    w[len + 1] = (uint64_t)c;
    *q = w[s / 64] >> s % 64;
    if (s % 64)
        *q |= w[s / 64 + 1] << (64 - s % 64);
    /* The top bit cut off, and whether any bit below it is set. */
    half = w[(s - 1) / 64] >> (s - 1) % 64 & 1;
    for (i = 0; i < (s - 1) / 64; i++)
        below |= w[i];
    below |= w[(s - 1) / 64] & ((1ULL << (s - 1) % 64) - 1);
    *rest = half ? below != 0 : -1;
    *zero = !half && !below;
}

/* The eight digits of n < 10^8 at p.
 *
 * This and read_digits are inline: without the keyword, gcc 12 at -O2
 * emits both as functions of their own and calls them for every cell. */
static inline void put8(char *p, uint32_t n)
{
    uint32_t a = n / 10000, b = n % 10000;
    memcpy(p, PAIRS + 2 * (a / 100), 2);
    memcpy(p + 2, PAIRS + 2 * (a % 100), 2);
    memcpy(p + 4, PAIRS + 2 * (b / 100), 2);
    memcpy(p + 6, PAIRS + 2 * (b % 100), 2);
}

/* The 17 significant digits *dp, 10^16 <= *dp < 10^17, and the decimal
 * exponent *xp of the finite nonzero double of bits, rounded as
 * format(v, ".17g") rounds them: |v| rounds to *dp * 10^(*xp - 16).
 * Returns 0 for magnitudes of 2^52 and above, which go to snprintf. */
ALWAYS_INLINE int decimal(uint64_t bits, uint64_t *dp, int *xp)
{
    uint64_t m = bits & (HIDDEN - 1), d, t, q;
    int biased = (int)(bits >> 52) & 0x7ff, e, x, k, rest, zero, r, big, up, shift;

    if (biased) {
        e = biased - 1075;
        m |= HIDDEN;
    } else { /* subnormal: m * 2^-1074, with its top bit moved to bit 52 */
        shift = __builtin_clzll(m) - 11;
        m <<= shift;
        e = -1074 - shift;
    }
    if (e >= 0)
        return 0;
    x = ((e + 52) * 78913) >> 18;
    k = 16 - x;
    if (k <= 22)
        scale(m, e, k, &q, &rest, &zero);
    else
        scale_wide(m, e, k, &q, &rest, &zero);
    /* Round, without branches: which way a cell rounds is a coin flip to
     * a branch predictor. With 18 digits, the last, r, joins the part
     * below it. */
    d = q; /* < 10^18 */
    t = d / 10;
    r = (int)(d - 10 * t);
    big = d >= POW10[17];
    up = big ? (r > 5) | ((r == 5) & ((zero == 0) | (int)(t & 1)))
             : (rest > 0) | ((rest == 0) & (int)(d & 1));
    d = (big ? t : d) + (uint64_t)up;
    x += big;
    if (d == POW10[17]) {
        d = POW10[16];
        x++;
    }
    *dp = d;
    *xp = x;
    return 1;
}

/* v as format(v, ".17g") writes it; returns the length, at most CELL - 1.
 * It may write up to SLACK bytes past that length. */
static int format_cell(double v, char *out)
{
    char digits[32] = {0}; /* 17 digits, then room for copies of 16 */
    char tmp[32], *o = out;
    uint64_t bits = bits_of(v), d;
    uint32_t hi;
    int x, len;

    if ((bits & ~SIGN) >= 0x7ffULL << 52) {
        if (bits >> 63 && bits << 12 == 0)
            *o++ = '-';
        memcpy(o, bits << 12 ? "nan" : "inf", 3); /* Python writes every NaN as "nan" */
        return (int)(o - out) + 3;
    }
    if ((bits & ~SIGN) == 0) {
        if (bits >> 63)
            *o++ = '-';
        *o++ = '0';
        return (int)(o - out);
    }
    if (!decimal(bits, &d, &x)) {
        len = snprintf(tmp, sizeof tmp, "%.17g", v);
        memcpy(out, tmp, (size_t)len);
        return len;
    }
    hi = (uint32_t)(d / 100000000);
    digits[0] = (char)('0' + hi / 100000000);
    put8(digits + 1, hi % 100000000);
    put8(digits + 9, (uint32_t)(d % 100000000));
    for (len = 17; digits[len - 1] == '0'; len--)
        ;
    if (bits >> 63)
        *o++ = '-';
    if (x < -4 || x >= 17) {
        o[0] = digits[0];
        o[1] = '.';
        memcpy(o + 2, digits + 1, 16);
        o += len > 1 ? len + 1 : 1;
        *o++ = 'e';
        *o++ = x < 0 ? '-' : '+';
        if (x < 0)
            x = -x;
        if (x >= 100) { /* down to 10^-324 */
            *o++ = (char)('0' + x / 100);
            x %= 100;
        }
        memcpy(o, PAIRS + 2 * x, 2);
        o += 2;
    } else if (x >= 0) {
        /* x + 1 integer digits, zero-padded, then the fraction if any. */
        memcpy(o, digits, 17);
        o += x + 1;
        if (len > x + 1) {
            *o = '.';
            memcpy(o + 1, digits + x + 1, 16);
            o += len - x;
        }
    } else {
        memcpy(o, "0.0000", 6);
        o += 1 - x;
        memcpy(o, digits, 17);
        o += len;
    }
    return (int)(o - out);
}

/* Rows first .. first + count - 1 of cols columns, as comma-separated
 * cells with a newline after each row. Column c's value in row r is
 * data[c][r * stride[c]]. out holds count * cols * CELL + SLACK bytes;
 * returns the number of bytes of the rows. */
long ptc_format_rows(int cols, const double *const *data, const long *stride,
                     long first, long count, char *out)
{
    char *o = out;
    long r;
    int c;
    for (r = first; r < first + count; r++)
        for (c = 0; c < cols; c++) {
            o += format_cell(data[c][r * stride[c]], o);
            *o++ = c + 1 < cols ? ',' : '\n';
        }
    return o - out;
}

/* The eight bytes at s, the first in the lowest byte. */
static uint64_t load8(const char *s)
{
    uint64_t w;
    memcpy(&w, s, sizeof w);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    return w;
}

/* Whether every byte of w is '0' .. '9': adding 0x46 sets the top bit of
 * a byte above '9', and subtracting 0x30 that of a byte below '0' (or
 * above 0x7f); a carry or borrow starts only at such a byte. */
static int eight_digits(uint64_t w)
{
    return !(((w + 0x4646464646464646ULL) | (w - 0x3030303030303030ULL)) &
             0x8080808080808080ULL);
}

/* The number the eight digits of w spell: pairs, then fours, then all. */
static uint64_t eight_value(uint64_t w)
{
    w -= 0x3030303030303030ULL;
    w = w * 10 + (w >> 8);
    return (((w & 0x000000FF000000FFULL) * 0x000F424000000064ULL) +
            (((w >> 16) & 0x000000FF000000FFULL) * 0x0000271000000001ULL)) >> 32;
}

/* Appends the run of digits at s to *d (modulo 2^64) and returns its end. */
static inline const char *read_digits(const char *s, const char *end, uint64_t *d)
{
    uint64_t w, acc = *d;
    while (end - s >= 8 && eight_digits(w = load8(s))) {
        acc = acc * 100000000 + eight_value(w);
        s += 8;
    }
    for (; s < end && *s >= '0' && *s <= '9'; s++)
        acc = acc * 10 + (uint64_t)(*s - '0');
    *d = acc;
    return s;
}

/* 10^-21 .. 10^19 as {high, low} words of a 128-bit integer T with its top
 * bit set and 10^p = T * 2^(floor(p * log2(10)) - 127), truncated: exact
 * for p >= 0. */
static const uint64_t TEN[41][2] = {
    {0x971da05074da7beeULL, 0xd3f6fc16ebca5e03ULL}, /* 1e-21 */
    {0xbce5086492111aeaULL, 0x88f4bb1ca6bcf584ULL},
    {0xec1e4a7db69561a5ULL, 0x2b31e9e3d06c32e5ULL},
    {0x9392ee8e921d5d07ULL, 0x3aff322e62439fcfULL},
    {0xb877aa3236a4b449ULL, 0x09befeb9fad487c2ULL},
    {0xe69594bec44de15bULL, 0x4c2ebe687989a9b3ULL},
    {0x901d7cf73ab0acd9ULL, 0x0f9d37014bf60a10ULL}, /* 1e-15 */
    {0xb424dc35095cd80fULL, 0x538484c19ef38c94ULL},
    {0xe12e13424bb40e13ULL, 0x2865a5f206b06fb9ULL},
    {0x8cbccc096f5088cbULL, 0xf93f87b7442e45d3ULL},
    {0xafebff0bcb24aafeULL, 0xf78f69a51539d748ULL},
    {0xdbe6fecebdedd5beULL, 0xb573440e5a884d1bULL}, /* 1e-10 */
    {0x89705f4136b4a597ULL, 0x31680a88f8953030ULL},
    {0xabcc77118461cefcULL, 0xfdc20d2b36ba7c3dULL},
    {0xd6bf94d5e57a42bcULL, 0x3d32907604691b4cULL},
    {0x8637bd05af6c69b5ULL, 0xa63f9a49c2c1b10fULL},
    {0xa7c5ac471b478423ULL, 0x0fcf80dc33721d53ULL}, /* 1e-5 */
    {0xd1b71758e219652bULL, 0xd3c36113404ea4a8ULL},
    {0x83126e978d4fdf3bULL, 0x645a1cac083126e9ULL},
    {0xa3d70a3d70a3d70aULL, 0x3d70a3d70a3d70a3ULL},
    {0xccccccccccccccccULL, 0xccccccccccccccccULL},
    {0x8000000000000000ULL, 0}, /* 1e0 */
    {0xa000000000000000ULL, 0},
    {0xc800000000000000ULL, 0},
    {0xfa00000000000000ULL, 0},
    {0x9c40000000000000ULL, 0},
    {0xc350000000000000ULL, 0}, /* 1e5 */
    {0xf424000000000000ULL, 0},
    {0x9896800000000000ULL, 0},
    {0xbebc200000000000ULL, 0},
    {0xee6b280000000000ULL, 0},
    {0x9502f90000000000ULL, 0}, /* 1e10 */
    {0xba43b74000000000ULL, 0},
    {0xe8d4a51000000000ULL, 0},
    {0x9184e72a00000000ULL, 0},
    {0xb5e620f480000000ULL, 0},
    {0xe35fa931a0000000ULL, 0}, /* 1e15 */
    {0x8e1bc9bf04000000ULL, 0},
    {0xb1a2bc2ec5000000ULL, 0},
    {0xde0b6b3a76400000ULL, 0},
    {0x8ac7230489e80000ULL, 0}, /* 1e19 */
};

/* d * 10^p, correctly rounded, by Eisel-Lemire (Go's eiselLemire64);
 * 0 < d, -21 <= p <= 19, so the result, 1e-21 .. 2e38, is a normal
 * double. Returns 0 when the product's top bits cannot decide the
 * rounding. */
static int lemire(uint64_t d, int p, double *v)
{
    const uint64_t *t = TEN[p + 21];
    int clz = __builtin_clzll(d), msb;
    int e2 = ((217706 * p) >> 16) + 64 + 1023 - clz; /* floor(p*log2(10)) */
    uint64_t m = d << clz, hi, lo, low, mantissa, bits;
    u128 x = (u128)m * t[0], y;

    hi = (uint64_t)(x >> 64);
    lo = (uint64_t)x;
    if ((hi & 0x1ff) == 0x1ff && lo + m < m) {
        /* The truncated low word of 10^p could carry into hi: add it. */
        y = (u128)m * t[1];
        low = (uint64_t)y;
        lo += (uint64_t)(y >> 64);
        hi += lo < (uint64_t)(y >> 64);
        if ((hi & 0x1ff) == 0x1ff && lo + 1 == 0 && low + m < m)
            return 0;
    }
    msb = (int)(hi >> 63);
    mantissa = hi >> (msb + 9); /* 54 bits: the double's and a rounding bit */
    e2 -= 1 ^ msb;
    if (lo == 0 && (hi & 0x1ff) == 0 && (mantissa & 3) == 1)
        return 0; /* perhaps halfway with an even mantissa */
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if (mantissa >> 53) {
        mantissa >>= 1;
        e2++;
    }
    bits = (uint64_t)e2 << 52 | (mantissa & ((1ULL << 52) - 1));
    memcpy(v, &bits, sizeof bits);
    return 1;
}

/* 10^(20 a - 340), rounded, for a = 0 .. 15: times 2^1074 for a <= 12,
 * the powers up to 10^-100, whose candidates lie on the grid (see
 * nearest); as it is for the others. */
static const double COARSE[16] = {
    0x1.755dc2ff447d8p-56, 0x1.fa01712e8f047p+10, 0x1.56e1fc2f8f359p+77,
    0x1.d0b15a491eb84p+143, 0x1.3ae3591f5b4d9p+210, 0x1.aac0bf9b9e65cp+276,
    0x1.212dd4de70913p+343, 0x1.87e92154ef7acp+409, 0x1.0991a9bfa58c8p+476,
    0x1.67e9c127b6e74p+542, 0x1.e7c5f127bd87ep+608, 0x1.4a8729fc3ddb7p+675,
    0x1.bff2ee48e0530p+741, 0x1.2f8ac174d6123p-266, 0x1.9b604aaaca626p-200,
    0x1.16c262777579cp-133};

/* d * 10^p for p < -21 and d of digits digits, where that value is the
 * 17-digit decimal of a double: that double, which is what float() reads,
 * since the 17-digit decimal of every double reads back to it. Returns 0
 * where d has more than 17 digits, p is below -340, or no double near
 * d * 10^p has that decimal.
 *
 * The first candidate is d * 10^p in hardware doubles: for p < -80,
 * where d * 10^p < 10^-63, times 2^1074, on the grid (see to_grid), and
 * rounded to the integers below 2^52; above, as it is, a normal double
 * made from normal ones. Four roundings of at most 2^-53 of it each put
 * it within a few units in the last place of d * 10^p, and most often on
 * it or next to it. decimal gives each candidate's digits, which grow
 * with the candidate, so the search steps towards d * 10^p until a
 * candidate matches, or it passes d * 10^p, or four candidates fail. */
static int nearest(uint64_t d, int digits, int p, double *v)
{
    const int x = p + digits - 1, i = p + 340;
    uint64_t want, got, bits;
    int tries, xc, cmp, step = 0;
    double y;

    if (digits > 17 || i < 0)
        return 0;
    want = d * POW10[17 - digits]; /* 10^16 <= want < 10^17 */
    y = (double)d * (double)POW10[i % 20] * COARSE[i / 20];
    bits = i / 20 > 12 ? bits_of(y)
           : y < 0x1p52 ? (uint64_t)((y + 0x1p52) - 0x1p52)
                        : bits_of(y) - SHIFT;
    for (tries = 0; tries < 4 && bits; tries++) {
        if (!decimal(bits, &got, &xc)) /* never: d * 10^p < 10^-4 */
            return 0;
        cmp = xc != x ? (xc > x) - (xc < x) : (got > want) - (got < want);
        if (cmp == 0) {
            *v = of_bits(bits);
            return 1;
        }
        if (step == cmp)
            return 0; /* passed it: no double has that decimal */
        step = -cmp;
        bits += (uint64_t)(int64_t)step;
    }
    return 0;
}

/* Reads one cell, -?digits[.digits][e[+-]digits], ended by sep, into *v
 * and advances *p past sep; 0 when the text there is anything else. The
 * value is correctly rounded, as Python's float() rounds it. */
static int read_cell(const char **p, const char *end, char sep, double *v)
{
    const char *s = *p, *cell = s, *run, *first;
    uint64_t d = 0;
    int negative = 0, digits, power = 0, exponent = 0;
    char *stop;

    if (s < end && *s == '-') {
        negative = 1;
        s++;
    }
    for (run = s; s < end && *s == '0'; s++)
        ;
    first = s;
    s = read_digits(s, end, &d);
    digits = (int)(s - first);
    if (s == run)
        return 0;
    if (s < end && *s == '.') {
        run = ++s;
        if (d == 0)
            while (s < end && *s == '0')
                s++;
        first = s;
        s = read_digits(s, end, &d);
        digits += (int)(s - first);
        power = (int)(run - s);
        if (s == run)
            return 0;
    }
    if (s < end && *s == 'e') {
        int sign = 1;
        s++;
        if (s < end && (*s == '+' || *s == '-'))
            sign = *s++ == '-' ? -1 : 1;
        for (run = s; s < end && *s >= '0' && *s <= '9'; s++)
            if (exponent < 100000)
                exponent = exponent * 10 + (*s - '0');
        if (s == run)
            return 0;
        power += sign * exponent;
    }
    if (s == end || *s != sep)
        return 0;
    *p = s + 1;
    if (digits > 19 || exponent >= 100000 || power > 19 ||
        (d != 0 && !(power >= -21 ? lemire(d, power, v) : nearest(d, digits, power, v)))) {
        *v = strtod(cell, &stop); /* which reads the sign itself */
        return stop == s;
    }
    if (d == 0)
        *v = 0.0;
    if (negative)
        *v = -*v;
    return 1;
}

/* The number of '\n' in text: the rows of a text that ptc_parse_rows
 * reads, which sizes its output. */
long ptc_count_rows(const char *text, long length)
{
    const char *p = text, *end = text + length;
    long rows = 0;
    while ((p = memchr(p, '\n', (size_t)(end - p))) != NULL) {
        rows++;
        p++;
    }
    return rows;
}

/* Parses text, rows of cols cells as read_cell reads them, the last of
 * each row ended by '\n', into out (row-major, room for capacity rows),
 * and returns the row count; -1 as soon as the text leaves that grammar,
 * so that the caller's own reader can judge the whole file. */
long ptc_parse_rows(const char *text, long length, int cols, double *out, long capacity)
{
    const char *p = text, *end = text + length;
    long rows = 0;
    int c;
    while (p < end) {
        if (rows == capacity)
            return -1;
        for (c = 0; c < cols; c++)
            if (!read_cell(&p, end, c + 1 < cols ? ',' : '\n', &out[rows * cols + c]))
                return -1;
        rows++;
    }
    return rows;
}
