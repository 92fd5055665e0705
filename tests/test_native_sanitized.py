"""The trace CSV codec, the grid evaluation of programs and the closed
loop in ``native.c`` under AddressSanitizer and UndefinedBehaviorSanitizer.

The writer copies digits in blocks of fixed size, which may reach past a
cell, and the reader loads eight bytes at a time, so both touch memory
next to the ends of their buffers. A small C driver, built with
``native.c`` under both sanitizers, writes and reads at those ends: any
access out of bounds, and any undefined operation, ends it with an error.
The driver writes into a buffer of exactly the size ``native.write_rows``
allocates for one chunk, and reads texts that end exactly at the end of a
``malloc``'d block, with no NUL after them. Cells below 1e-6 are scaled
in words of 64 bits; the driver writes and reads the cells whose shifts
reach the largest counts and the highest words. The grid passes convert
between doubles and 64-bit integers; the driver converts at both ends of
the integers' range and past them, where a conversion out of range,
undefined too, ends it as well. It also evaluates deep weighted sums of
states on the grid, whose terms take a buffer sized by the program's
length, and other deep programs on the state brought back. And it runs
``ptc_run`` into row buffers of exactly the capacity it is given, through
grid passes of both kinds of f, rest steps, an expression plant and a
buffer one row short, each bit for bit the unsanitized library's run. It
needs gcc with libasan and skips without them.
"""

import ctypes
import io
import math
import os
import re
import shutil
import struct
import subprocess
from pathlib import Path

import numpy as np
import pytest

import ptc_lab as pl
from ptc_lab import native

DRIVER = r"""
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

long ptc_format_rows(int cols, const double *const *data, const long *stride,
                     long first, long count, char *out);
long ptc_parse_rows(const char *text, long length, int cols, double *out, long capacity);

typedef struct {
    const int *code;
    const double *consts;
    int depth;
} program;

typedef struct {
    int n;
    long stride;
    long capacity;
    double tau, t_end, stop, gamma_min, gamma, threshold;
    double dt_base, shrink_divisor, stiff_cap, phi, phi0, slack;
    const double *q;
    program f, g;
    double *x;
    double *times, *states, *inputs;
    long rows, steps;
    double u_max, x_max;
    volatile int cancel;
} run_args;

int ptc_eval(const program *p, int n, const double *x, double u, double t, int grid,
             double *out);
int ptc_grid(int divide, double a, double b, double *out);
int ptc_run(run_args *a);

/* The double whose bits the hex word at *s spells; advances *s past it. */
static double bits_at(char **s)
{
    unsigned long long bits = strtoull(*s, s, 16);
    double v;
    memcpy(&v, &bits, sizeof v);
    return v;
}

/* The program that "DEPTH NCONSTS NCODE CONSTS... CODE..." at *s spells,
 * in malloc'd arrays of exactly its size; advances *s past it. */
static program program_at(char **s)
{
    int depth = (int)strtol(*s, s, 10), nconsts = (int)strtol(*s, s, 10);
    int ncode = (int)strtol(*s, s, 10), i;
    double *consts = malloc(((size_t)nconsts + 1) * sizeof *consts);
    int *code = malloc((size_t)ncode * sizeof *code);
    for (i = 0; i < nconsts; i++)
        consts[i] = bits_at(s);
    for (i = 0; i < ncode; i++)
        code[i] = (int)strtol(*s, s, 10);
    return (program){code, consts, depth};
}

static void free_program(program p)
{
    free((void *)p.code);
    free((void *)p.consts);
}

/* " " and the hex word of v's bits. */
static void put_bits(double v)
{
    unsigned long long bits;
    memcpy(&bits, &v, sizeof bits);
    printf(" %016llx", bits);
}

static char line[1 << 20];

/* "w SIZE ROWS COLS V W": format ROWS rows of COLS cells, all V but the
 * last, W, into a malloc'd buffer of SIZE bytes; print the text.
 * "r HEX": parse the bytes HEX spells, the only contents of a malloc'd
 * block, as rows of one cell; print the row count and the values.
 * "e GRID N X... U T PROGRAM": evaluate PROGRAM, "DEPTH NCONSTS NCODE
 * CONSTS... CODE...", at N states, in the grid mode GRID; print its status
 * and the bits of its value.
 * "g DIVIDE A B": A * B (DIVIDE 0) or A / B (DIVIDE 1) on the grid; print
 * its status and the bits of its value.
 * "l N STRIDE CAPACITY SCALARS... Q... X0... F G": ptc_run with the 12
 * scalars of run_args, N gains, the initial state and the programs F and
 * G, into row buffers of exactly CAPACITY rows; print its status, rows,
 * steps and the bits of its peaks, then one line per row of the bits of
 * t, x1 ... xN and u. Doubles are the hex words of their bits. */
int main(void)
{
    char kind;
    while (fgets(line, sizeof line, stdin)) {
        kind = line[0];
        if (kind == 'w') {
            long size, rows, n, i, strides[8];
            int cols;
            double v, w;
            const double *data[8];
            if (sscanf(line + 2, "%ld %ld %d %la %la", &size, &rows, &cols, &v, &w) != 5 ||
                cols < 1 || cols > 8)
                return 2;
            double *values = malloc((size_t)(rows * cols) * sizeof *values);
            char *out = malloc((size_t)size);
            for (i = 0; i < rows * cols; i++)
                values[i] = v;
            values[rows * cols - 1] = w;
            for (i = 0; i < cols; i++) { /* row-major: column i, stride cols */
                data[i] = values + i;
                strides[i] = cols;
            }
            n = ptc_format_rows(cols, data, strides, 0, rows, out);
            fwrite(out, 1, (size_t)n, stdout);
            free(out);
            free(values);
        } else if (kind == 'r') {
            size_t length = strlen(line + 2) / 2, i;
            unsigned byte;
            char *text = malloc(length ? length : 1);
            double *values = malloc((length + 1) * sizeof *values);
            for (i = 0; i < length; i++) {
                if (sscanf(line + 2 + 2 * i, "%2x", &byte) != 1)
                    return 2;
                text[i] = (char)byte;
            }
            long rows = ptc_parse_rows(text, (long)length, 1, values, (long)length + 1);
            printf("%ld", rows);
            for (long r = 0; r < rows; r++)
                printf(" %a", values[r]);
            printf("\n");
            free(values);
            free(text);
        } else if (kind == 'e') {
            char *s = line + 2;
            int grid = (int)strtol(s, &s, 10), n = (int)strtol(s, &s, 10), i;
            double *x = malloc(((size_t)n + 1) * sizeof *x), u, t, out = 0.0;
            for (i = 0; i < n; i++)
                x[i] = bits_at(&s);
            u = bits_at(&s);
            t = bits_at(&s);
            program p = program_at(&s);
            printf("%d", ptc_eval(&p, n, x, u, t, grid, &out));
            put_bits(out);
            printf("\n");
            free_program(p);
            free(x);
        } else if (kind == 'g') {
            char *s = line + 2;
            int divide = (int)strtol(s, &s, 10);
            double a = bits_at(&s), b = bits_at(&s), out = 0.0;
            printf("%d", ptc_grid(divide, a, b, &out));
            put_bits(out);
            printf("\n");
        } else if (kind == 'l') {
            char *s = line + 2;
            run_args a = {0};
            double *q, *x;
            long r;
            int i;
            a.n = (int)strtol(s, &s, 10);
            a.stride = strtol(s, &s, 10);
            a.capacity = strtol(s, &s, 10);
            a.tau = bits_at(&s);
            a.t_end = bits_at(&s);
            a.stop = bits_at(&s);
            a.gamma_min = bits_at(&s);
            a.gamma = bits_at(&s);
            a.threshold = bits_at(&s);
            a.dt_base = bits_at(&s);
            a.shrink_divisor = bits_at(&s);
            a.stiff_cap = bits_at(&s);
            a.phi = bits_at(&s);
            a.phi0 = bits_at(&s);
            a.slack = bits_at(&s);
            q = malloc((size_t)a.n * sizeof *q);
            x = malloc((size_t)a.n * sizeof *x);
            for (i = 0; i < a.n; i++)
                q[i] = bits_at(&s);
            for (i = 0; i < a.n; i++)
                x[i] = bits_at(&s);
            a.q = q;
            a.x = x;
            a.f = program_at(&s);
            a.g = program_at(&s);
            a.times = malloc((size_t)a.capacity * sizeof *a.times);
            a.states = malloc((size_t)(a.capacity * a.n) * sizeof *a.states);
            a.inputs = malloc((size_t)a.capacity * sizeof *a.inputs);
            i = ptc_run(&a);
            printf("%d %ld %ld", i, a.rows, a.steps);
            put_bits(a.u_max);
            put_bits(a.x_max);
            printf("\n");
            for (r = 0; r < a.rows; r++) {
                put_bits(a.times[r]);
                for (i = 0; i < a.n; i++)
                    put_bits(a.states[r * a.n + i]);
                put_bits(a.inputs[r]);
                printf("\n");
            }
            free(a.inputs);
            free(a.states);
            free(a.times);
            free_program(a.g);
            free_program(a.f);
            free(x);
            free(q);
        } else {
            return 2;
        }
    }
    return 0;
}
"""


def _asan_gcc():
    """gcc, when it has libasan."""
    gcc = shutil.which("gcc")
    if gcc is None:
        return None
    found = subprocess.run(
        [gcc, "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    return gcc if os.path.isabs(found) else None


GCC = _asan_gcc()
pytestmark = pytest.mark.skipif(GCC is None, reason="no gcc with libasan")


@pytest.fixture(scope="module")
def driver(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sanitized")
    source = tmp / "driver.c"
    source.write_text(DRIVER)
    binary = tmp / "driver"
    subprocess.run(
        [
            GCC, "-g", "-O1", "-ffp-contract=off",
            # -fsanitize=undefined leaves out float-to-integer conversions.
            "-fsanitize=address,undefined,float-cast-overflow",
            "-fno-sanitize-recover", "-o", str(binary), str(source),
            str(Path(native.__file__).with_name("native.c")), "-lm",
        ],
        check=True,
        capture_output=True,
    )
    return binary


def _run(driver, commands):
    """The driver's stdout for ``commands``; fails on any sanitizer error."""
    result = subprocess.run(
        [str(driver)],
        input="".join(f"{c}\n" for c in commands).encode(),
        capture_output=True,
        env={**os.environ, "ASAN_OPTIONS": "detect_leaks=0"},
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")[-3000:]
    return result.stdout


def _chunk_buffer_size(monkeypatch, cols):
    """The bytes ``native.write_rows`` allocates for a full chunk of rows
    of ``cols`` columns, as its call to ``ptc_format_rows`` receives them."""
    sizes = []

    class Recorder:
        def ptc_format_rows(self, ncols, data, strides, first, count, out):
            sizes.append(ctypes.sizeof(out))
            return 0

    monkeypatch.setattr(native, "library", Recorder)
    rows = native._CHUNK_ROWS
    native.write_rows(io.BytesIO(), [np.zeros(rows)] * cols)
    assert len(sizes) == 1
    return rows, sizes[0]


LONGEST = -1.2345678901234567e-300
# x = 15 with one fraction digit: its copies reach furthest from its start.
FARTHEST = -1234567890123456.8
# 2^52 + 1, the least magnitude past the writer's scaling: to snprintf.
LARGE = -4503599627370497.0
# The least subnormal, whose 24 bytes take the highest words.
LEAST = -5e-324


@pytest.mark.parametrize(
    "last",
    [LONGEST, FARTHEST, LARGE, LEAST],
    ids=["longest", "farthest-last", "large-last", "subnormal-last"],
)
def test_writer_stays_in_the_buffer_write_rows_allocates(driver, monkeypatch, last):
    cols = 3
    rows, size = _chunk_buffer_size(monkeypatch, cols)
    text = _run(driver, [f"w {size} {rows} {cols} {LONGEST.hex()} {last.hex()}"]).decode()
    cell = format(LONGEST, ".17g")
    assert len(cell) == native.CELL - 1
    row = ",".join([cell] * cols) + "\n"
    assert text == row * (rows - 1) + ",".join([cell] * (cols - 1) + [format(last, ".17g")]) + "\n"


# The grammar the compiled reader accepts, for the expected results.
CELL_GRAMMAR = re.compile(rb"-?[0-9]+(\.[0-9]+)?(e[+-]?[0-9]+)?")


def _expected(text):
    """What the reader should print for ``text``: its rows of one cell and
    their values, or -1 outside its grammar."""
    if not text.endswith(b"\n"):
        return "-1"
    cells = text[:-1].split(b"\n")
    if not all(CELL_GRAMMAR.fullmatch(c) for c in cells):
        return "-1"
    return " ".join([str(len(cells)), *(float(c).hex() for c in cells)])


def _check_parses(driver, texts):
    out = _run(driver, [f"r {t.hex()}" for t in texts]).decode().splitlines()
    assert len(out) == len(texts)
    for text, line in zip(texts, out):
        rows, *values = line.split()
        got = " ".join([rows, *(float.fromhex(v).hex() for v in values)])
        assert got == _expected(text), text


def test_reader_stays_in_texts_that_end_at_their_block(driver):
    texts = []
    for length in range(1, 25):
        for source in (
            "123456789012345678901234",
            "0.1234567890123456789012",
            "-1.2345678901234567e-300",
            "1234567890123456.7890123",
            "-0.000012345678901234567",
            "-9007199254740993",  # a tie between two doubles: to strtod
            "-4.9406564584124654e-324",
            "2.2250738585072009e-308",
        ):
            cell = source[:length].encode()
            texts += [cell + b"\n", cell, b"1\n" + cell + b"\n", b"1\n" + cell]
    _check_parses(driver, texts)


def test_reader_judges_a_stray_byte_at_every_window_offset(driver):
    cell = b"12345678901234567"
    texts = [
        cell[:i] + bytes([bad]) + cell[i + 1:] + b"\n"
        for i in range(16)
        for bad in b"x/:. -e\x00\x80\xff"
    ]
    _check_parses(driver, texts)


def _bits(v):
    return struct.unpack("<Q", struct.pack("<d", v))[0]


def _hex(values):
    return [f"{_bits(v):x}" for v in values]


def _program_words(prog):
    return [prog.depth, len(prog.consts), len(prog.code), *_hex(prog.consts), *prog.code]


def _evaluate(prog, x):
    """The driver's command that evaluates ``prog`` on the grid at ``x``,
    with u and t 0."""
    words = [1, len(x), *_hex((*x, 0.0, 0.0)), *_program_words(prog)]
    return "e " + " ".join(map(str, words))


def _results(driver, commands):
    """(faulted, value) for each command."""
    out = _run(driver, commands).decode().splitlines()
    assert len(out) == len(commands)
    return [
        (status != "0", struct.unpack("<d", struct.pack("<Q", int(bits, 16)))[0])
        for status, bits in (line.split() for line in out)
    ]


def test_grid_conversions_stay_in_range(driver):
    # Carried values from 0 and one unit, 2^-1074, through the last
    # subnormal, 2^52 - 1 units, and the first normal, 2^52 units, up to
    # CEILING, 2^1000 units, and past it; times and over factors that
    # keep them, round them to zero, and take them past CEILING.
    units = [0, 1, 2, 3, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1, 2**53]
    values = [math.ldexp(k, -1074) for k in units]
    values += [math.ldexp(1.0, k) for k in (-75, -74, -51, -50, 0)]
    values += [math.nextafter(math.ldexp(1.0, -74), 0.0), 5e-324 * 3, math.inf, math.nan]
    values += [-v for v in values]
    factors = [1.0, -1.0, 0.5, 0.25, 3.0, 2.0**-60, 2.0**60, 2.0**1000, 0.0, -0.0, 5e-324,
               math.inf, math.nan]
    cases = [(a, b, divide) for a in values for b in factors for divide in (0, 1)]
    commands = [f"g {divide} {_bits(a):x} {_bits(b):x}" for a, b, divide in cases]
    for (a, b, divide), (bad, got) in zip(cases, _results(driver, commands)):
        want = (a / b if b != 0.0 else math.nan) if divide else a * b
        assert bad == (not (abs(a) < 2.0**-50 and abs(want) < 2.0**-74)), (a, b, divide)
        if not bad:
            assert _bits(got) == _bits(want), (a, b, divide)


def _shift(v):
    """The shift of ``native.c``'s multiword scaling for ``v``, and its
    power of ten k (k > 22 takes that scaling)."""
    bits = _bits(abs(v))
    biased, m = bits >> 52, bits & (2**52 - 1)
    e = biased - 1075 if biased else -1074 - (53 - m.bit_length())
    k = 16 - (((e + 52) * 78913) >> 18)
    return -(e + k), k


def test_tiny_cells_shift_within_their_words(driver):
    # The shifts of 0, 1 and 63 bits past a word boundary, at their
    # largest counts, and 5e-324, the largest shift of all, with its
    # quotient in the highest words: written, and read back from the end
    # of a block.
    shifted = {}
    for biased in range(1, 2046):
        v = struct.unpack("<d", struct.pack("<Q", biased << 52))[0]
        s, k = _shift(v)
        if k > 22 and s % 64 in (0, 1, 63):
            shifted[s % 64] = max(shifted.get(s % 64, (0, 0.0)), (s, v))
    values = [v for _, v in shifted.values()] + [5e-324, math.ldexp(2**52 - 1, -1074)]
    assert len(values) == 5 and _shift(5e-324)[0] == max(_shift(v)[0] for v in values) == 786
    for v in values + [-v for v in values]:
        text = _run(driver, [f"w 64 1 1 {v.hex()} {v.hex()}"])
        assert text.decode() == format(v, ".17g") + "\n"
        _check_parses(driver, [text, text[:-1]])


def test_weighted_sum_runs_on_the_grid_in_its_buffers(driver):
    # example3's form, fsum of w_i * x_i, with 5,000 terms, all on the
    # stack at once; and the same terms, every other one state first,
    # summed by ADDs from the left, which run on the state brought back.
    terms, x = 5_000, [3e-310, -(2.0**-700), 5e-324]
    weights = [(-1.0) ** k * (1.0 + k / terms) for k in range(terms)]
    products = [[(native.CONST, w), (native.X, k % 3), (native.MUL, 0)]
                for k, w in enumerate(weights)]
    by_fsum = [op for p in products for op in p] + [(native.FSUM, terms)]
    products = [p if k % 2 else [p[1], p[0], p[2]] for k, p in enumerate(products)]
    by_adds = products[0] + [op for p in products[1:] for op in (*p, (native.ADD, 0))]
    values = [w * x[k % 3] for k, w in enumerate(weights)]
    (fsum_bad, fsum_got), (adds_bad, adds_got) = _results(
        driver, [_evaluate(native.program(by_fsum), x), _evaluate(native.program(by_adds), x)]
    )
    assert native.program(by_fsum).depth == terms + 1  # the last product's two factors
    assert not fsum_bad and _bits(fsum_got) == _bits(math.fsum(values))
    total = values[0]
    for v in values[1:]:
        total = total + v
    assert not adds_bad and _bits(adds_got) == _bits(total)


def _loop_run(plant, design, cfg):
    """The arguments of the run's ``native.integrate`` call, and what that
    call returned: the unsanitized library's run."""
    calls = []
    integrate = native.integrate

    def spy(*args):
        calls.append((args, integrate(*args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "integrate", spy)
        pl.run(plant, design, cfg)
    ((args, out),) = calls
    assert out is not None
    return args, out


def _loop(driver, f, g, q, x0, scalars, stride, capacity):
    """The driver's ptc_run: its status, steps and the bits of u_max and
    x_max, and its rows, each the bits of t, x1 ... xn and u."""
    words = [len(x0), stride, capacity, *_hex(scalars[k] for k in native.SCALARS)]
    words += [*_hex((*q, *x0)), *_program_words(f), *_program_words(g)]
    head, *rows = _run(driver, ["l " + " ".join(map(str, words))]).decode().splitlines()
    status, count, steps, u_max, x_max = head.split()
    assert len(rows) == int(count)
    return (int(status), int(steps), int(u_max, 16), int(x_max, 16)), [
        [int(w, 16) for w in row.split()] for row in rows
    ]


def _row_bits(times, states, inputs):
    return [[_bits(v) for v in (t, *x, u)] for t, x, u in zip(times, states, inputs)]


def _example3(seed, eps):
    plant = pl.builtin_plant("example3", seed=seed)
    design = pl.design_controller(
        (-1.0, -4.0, -6.0, -4.0), 10.0, phi=plant.phi, phi0=plant.phi0, eps_guard_fraction=eps
    )
    return plant, design, pl.SimConfig(x0=(10.0,) * 4, epsilon_fraction=eps, record_stride=50)


def _cosine_plant():
    # example3's design, with an f that reads t: its deep steps run its
    # program on the stage state brought back, in the loop's scratch
    # buffer for it.
    plant = pl.plant_from_expressions(
        4, "0.001*x1*cos(t)", "1", gamma=1.0, gamma_min=1.0, phi=1e-3, phi0=0.0
    )
    design = pl.design_controller(
        (-1.0, -4.0, -6.0, -4.0), 10.0, phi=plant.phi, phi0=plant.phi0, eps_guard_fraction=0.9
    )
    return plant, design, pl.SimConfig(x0=(10.0,) * 4, epsilon_fraction=0.9, record_stride=50)


def _example2():
    plant = pl.builtin_plant("example2")
    design = pl.design_controller((-1.0, -2.0), 10.0, alpha=0.0214, phi=plant.phi,
                                  phi0=plant.phi0)
    return plant, design, pl.SimConfig(x0=(10.0, 10.0), dt_base=5e-3, record_stride=7)


@pytest.mark.parametrize(
    "run, end",
    [
        # From step 470 on, every component is below 2^-600 and one is
        # nonzero, subnormal from step 771: grid passes, never rest
        # (t_end = 1, 6,268 steps).
        (lambda: _example3(42, 0.9), "deep"),
        # At rest, +0.0, from step 7,715 (t_end = 1.5, 9,668 steps): rest
        # steps, and, as example3's f and g do not read t, repeated ones.
        (lambda: _example3(6, 0.85), "rest"),
        (_cosine_plant, "deep"),
        (_example2, None),
        # A row buffer one row short: FULL, after every row it holds.
        (_example2, "full"),
    ],
    ids=["example3-grid", "example3-rest", "cosine-grid", "example2-expression",
         "example2-full"],
)
def test_loop_runs_under_the_sanitizers(driver, run, end):
    args, (times, states, inputs, steps, u_max, x_max) = _loop_run(*run())
    f, g, q, x0, scalars, stride, capacity = args
    want = _row_bits(times, states, inputs)
    if end == "full":
        (status, *_), rows = _loop(driver, f, g, q, x0, scalars, stride, len(want) - 1)
        assert status == 2 and rows == want[:-1]
        return
    head, rows = _loop(driver, f, g, q, x0, scalars, stride, capacity)
    assert head == (0, steps, _bits(u_max), _bits(x_max))
    assert rows == want
    last = np.abs(states[-1])
    if end == "deep":
        assert steps > 771 and 0.0 < last.max() < 2.0**-600
    elif end == "rest":
        assert steps > 7_715 and not any(map(_bits, states[-1]))
