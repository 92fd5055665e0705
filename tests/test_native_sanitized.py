"""The trace CSV codec and the grid evaluation of programs in ``native.c``
under AddressSanitizer and UndefinedBehaviorSanitizer.

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
length. It needs gcc with libasan and skips without them.
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

int ptc_eval(const program *p, int n, const double *x, double u, double t, int grid,
             double *out);
int ptc_grid(int divide, double a, double b, double *out);

/* The double whose bits the hex word at *s spells; advances *s past it. */
static double bits_at(char **s)
{
    unsigned long long bits = strtoull(*s, s, 16);
    double v;
    memcpy(&v, &bits, sizeof v);
    return v;
}

static char line[1 << 20];

/* "w SIZE ROWS COLS V W": format ROWS rows of COLS cells, all V but the
 * last, W, into a malloc'd buffer of SIZE bytes; print the text.
 * "r HEX": parse the bytes HEX spells, the only contents of a malloc'd
 * block, as rows of one cell; print the row count and the values.
 * "e GRID N DEPTH NCONSTS NCODE X... U T CONSTS... CODE...": evaluate the
 * program of CODE's ints and CONSTS at N states, in the grid mode GRID;
 * print its status and the bits of its value.
 * "g DIVIDE A B": A * B (DIVIDE 0) or A / B (DIVIDE 1) on the grid; print
 * its status and the bits of its value. Doubles are the hex words of
 * their bits. */
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
            int depth = (int)strtol(s, &s, 10), nconsts = (int)strtol(s, &s, 10);
            int ncode = (int)strtol(s, &s, 10), status;
            double *x = malloc(((size_t)n + 1) * sizeof *x), u, t, out = 0.0;
            double *consts = malloc(((size_t)nconsts + 1) * sizeof *consts);
            int *code = malloc((size_t)ncode * sizeof *code);
            unsigned long long bits;
            for (i = 0; i < n; i++)
                x[i] = bits_at(&s);
            u = bits_at(&s);
            t = bits_at(&s);
            for (i = 0; i < nconsts; i++)
                consts[i] = bits_at(&s);
            for (i = 0; i < ncode; i++)
                code[i] = (int)strtol(s, &s, 10);
            program p = {code, consts, depth};
            status = ptc_eval(&p, n, x, u, t, grid, &out);
            memcpy(&bits, &out, sizeof bits);
            printf("%d %016llx\n", status, bits);
            free(code);
            free(consts);
            free(x);
        } else if (kind == 'g') {
            char *s = line + 2;
            int divide = (int)strtol(s, &s, 10), status;
            double a = bits_at(&s), b = bits_at(&s), out = 0.0;
            unsigned long long bits;
            status = ptc_grid(divide, a, b, &out);
            memcpy(&bits, &out, sizeof bits);
            printf("%d %016llx\n", status, bits);
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


def _evaluate(prog, x):
    """The driver's command that evaluates ``prog`` on the grid at ``x``,
    with u and t 0."""
    words = [1, len(x), prog.depth, len(prog.consts), len(prog.code)]
    words += [f"{_bits(v):x}" for v in (*x, 0.0, 0.0, *prog.consts)]
    return "e " + " ".join(map(str, [*words, *prog.code]))


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
    # stack at once; and the same terms summed by ADDs from the left.
    terms, x = 5_000, [3e-310, -(2.0**-700), 5e-324]
    weights = [(-1.0) ** k * (1.0 + k / terms) for k in range(terms)]
    products = [
        [(native.CONST, w), (native.X, k % 3), (native.MUL, 0)] if k % 2
        else [(native.X, k % 3), (native.CONST, w), (native.MUL, 0)]
        for k, w in enumerate(weights)
    ]
    by_fsum = [op for p in products for op in p] + [(native.FSUM, terms)]
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
