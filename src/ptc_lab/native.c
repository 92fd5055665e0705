/* The closed loop of ptc_lab.sim.run, compiled.
 *
 * ptc_run repeats the Python loop of sim.run operation for operation: the
 * same IEEE double operations on the same operands in the same order, so
 * that every value it records is bitwise the value the Python loop
 * records. The plant's f and g arrive as postfix programs that a small
 * stack machine interprets; no plant text is ever compiled.
 *
 * Wherever the Python loop would raise (a zero divisor, a math function
 * Python refuses, an fsum overflow, a divergence, an envelope violation),
 * and when the row buffer is full, ptc_run stops and returns a nonzero
 * status; the caller then runs the Python loop from t = 0, which raises
 * with its own message and partial trace.
 *
 * Build: gcc -O2 -fPIC -shared -ffp-contract=off -o native.so native.c -lm
 * Floating-point contraction (fused multiply-add) and fast-math would
 * change results, and so would excess precision.
 */

#include <float.h>
#include <math.h>
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

/* Stack slots of the machine; ptc_lab.native refuses programs that need
 * more than STACK - 1 values at once. */
#define STACK 64

enum { OK = 0, FAULT = 1, FULL = 2 };

typedef struct {
    const int *code;
    const double *consts;
} program;

typedef struct {
    int n;
    int can_rest;
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
} run_args;

/* CPython's math.fsum (Shewchuk's partials with half-even correction),
 * for finite and special values alike. FAULT where math.fsum raises. */
static int fsum(const double *items, int count, double *out)
{
    double p[count > 0 ? count : 1];
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
            y = lo * 2.0;
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
 * their left operand, as Python evaluates left to right. */
static int eval(const program *p, const double *x, double u, double t, double *out)
{
    static const void *const labels[] = {
        &&op_const, &&op_x, &&op_u, &&op_t, &&op_add, &&op_sub, &&op_mul,
        &&op_div, &&op_neg, &&op_sin, &&op_cos, &&op_exp, &&op_abs, &&op_fsum,
        &&op_end};
    double st[STACK]; /* st[0] takes the empty stack's tos */
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
    st[sp] = tos;
    sp -= arg - 1;
    if (fsum(&st[sp], arg, &tos))
        return FAULT;
    NEXT();
op_end:
    *out = tos;
    return OK;
#undef NEXT
}

/* One evaluation of a program on its own, for tests. */
int ptc_eval(const program *p, const double *x, double u, double t, double *out)
{
    return eval(p, x, u, t, out);
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

/* u = (0.0 + q[n-1]*y[n-1]/p[n-1] + ... + q[0]*y[0]/p[0]) / den */
static int control(int n, const double *q, const double *y, const double *p,
                   double den, double *u)
{
    double acc = 0.0;
    int i;
    for (i = n - 1; i >= 0; i--) {
        if (p[i] == 0.0)
            return FAULT;
        acc = acc + q[i] * y[i] / p[i];
    }
    if (den == 0.0)
        return FAULT;
    *u = acc / den;
    return OK;
}

/* One RK4 stage past the first: the derivative's last component at the
 * stage state y, whose other components are y's next entries. */
static int stage(const run_args *a, const double *y, const double *p, double s,
                 double den, double gain, double *k)
{
    double u, fv;
    if (control(a->n, a->q, y, p, den, &u) || eval(&a->f, y, u, s, &fv))
        return FAULT;
    *k = fv + gain * u;
    return OK;
}

static int record(run_args *a, double t, const double *x, double u)
{
    if (a->rows >= a->capacity)
        return FULL;
    a->times[a->rows] = t;
    memcpy(a->states + a->rows * a->n, x, (size_t)a->n * sizeof(double));
    a->inputs[a->rows] = u;
    a->rows++;
    return OK;
}

int ptc_run(run_args *a)
{
    const int n = a->n, top = n - 1;
    const double tau = a->tau, t_end = a->t_end, stop = a->stop;
    const double gamma_min = a->gamma_min, gamma = a->gamma;
    double *x = a->x;
    double p[n], m[n], ya[n], yb[n], yc[n], sq[n];
    double t = 0.0, g_now, u1, f1, k1 = 0.0, amp, norm, limit;
    double d, h, cap, half, t_mid, t_next, g_mid, g_next, u, fv, k, k2, k3, k4, sixth;
    long step_index = 0;
    int i, last, resting, clamped, status;

    a->rows = 0;
    a->u_max = 0.0;
    a->x_max = 0.0;
    if (eval(&a->g, x, 0.0, t, &g_now))
        return FAULT;
    for (;;) {
        last = !(t < stop);
        if (last) {
            t = t_end;
            if (eval(&a->g, x, 0.0, t, &g_now))
                return FAULT;
        }
        /* The first stage. */
        powers(n, tau, t, p);
        if (control(n, a->q, x, p, gamma_min * g_now, &u1) || eval(&a->f, x, u1, t, &f1))
            return FAULT;
        k1 = f1 + gamma * g_now * u1;
        /* max(map(abs, x)): a NaN wins only in front. */
        amp = fabs(x[0]);
        for (i = 1; i < n; i++)
            if (fabs(x[i]) > amp)
                amp = fabs(x[i]);
        if (!(amp <= a->threshold) || !(fabs(u1) <= a->threshold))
            return FAULT;
        /* plant.check_assumption */
        for (i = 0; i < n; i++)
            sq[i] = x[i] * x[i];
        if (fsum(sq, n, &norm))
            return FAULT;
        limit = a->phi * sqrt(norm) + a->phi0 + a->slack;
        if (fabs(f1) > limit)
            return FAULT;
        if (amp > a->x_max)
            a->x_max = amp;
        if (fabs(u1) > a->u_max)
            a->u_max = fabs(u1);
        if (last || step_index % a->stride == 0)
            if ((status = record(a, t, x, u1)))
                return status;
        if (last)
            break;
        resting = k1 == 0.0 && a->can_rest;
        for (i = 0; i < n && resting; i++)
            resting = x[i] == 0.0 && !signbit(x[i]);
        for (;;) {
            d = tau - t;
            h = a->dt_base;
            cap = d / a->shrink_divisor;
            if (cap < h)
                h = cap;
            cap = a->stiff_cap * d;
            if (cap < h)
                h = cap;
            clamped = h >= t_end - t;
            if (clamped)
                h = t_end - t;
            half = 0.5 * h;
            t_mid = t + half;
            t_next = t + h;
            if (eval(&a->g, x, 0.0, t_mid, &g_mid) || eval(&a->g, x, 0.0, t_next, &g_next))
                return FAULT;
            if (resting && !clamped) {
                /* A rest step, as sim.run argues it. */
                if (gamma_min * g_mid == 0.0)
                    return FAULT;
                u = 0.0 / (gamma_min * g_mid);
                if (eval(&a->f, x, u, t_mid, &fv))
                    return FAULT;
                if (fv + gamma * g_mid * u == 0.0) {
                    if (gamma_min * g_next == 0.0)
                        return FAULT;
                    u = 0.0 / (gamma_min * g_next);
                    if (eval(&a->f, x, u, t_next, &fv))
                        return FAULT;
                    k = fv + gamma * g_next * u;
                    if (k == 0.0) {
                        k1 = k;
                        t = t_next;
                        step_index++;
                        if (!(t < stop))
                            break;
                        if (step_index % a->stride == 0)
                            if ((status = record(a, t, x, u)))
                                return status;
                        continue;
                    }
                }
            }
            /* The general step: stages 2 to 4 and the update. */
            powers(n, tau, t_mid, m);
            for (i = 0; i < n; i++)
                ya[i] = x[i] + half * (i < top ? x[i + 1] : k1);
            if (stage(a, ya, m, t_mid, gamma_min * g_mid, gamma * g_mid, &k2))
                return FAULT;
            for (i = 0; i < n; i++)
                yb[i] = x[i] + half * (i < top ? ya[i + 1] : k2);
            if (stage(a, yb, m, t_mid, gamma_min * g_mid, gamma * g_mid, &k3))
                return FAULT;
            powers(n, tau, t_next, p);
            for (i = 0; i < n; i++)
                yc[i] = x[i] + h * (i < top ? yb[i + 1] : k3);
            if (stage(a, yc, p, t_next, gamma_min * g_next, gamma * g_next, &k4))
                return FAULT;
            sixth = h / 6.0;
            /* In place: x[i] reads x[i + 1] before the next pass writes it. */
            for (i = 0; i < top; i++)
                x[i] = x[i] + sixth * (x[i + 1] + 2.0 * (ya[i + 1] + yb[i + 1]) + yc[i + 1]);
            x[top] = x[top] + sixth * (k1 + 2.0 * (k2 + k3) + k4);
            g_now = g_next;
            t = clamped ? t_end : t_next;
            step_index++;
            break;
        }
    }
    a->steps = step_index;
    return OK;
}
