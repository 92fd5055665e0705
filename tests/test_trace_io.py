"""The compiled trace CSV writer and reader, against Python's own text.

``native.write_rows`` must write each cell as ``format(v, ".17g")`` does,
and ``native.parse_rows`` must read each cell as ``float()`` does, bit for
bit. ``verify`` must answer the same with and without the library: the
compiled reader hands every file outside its grammar back to the Python
reader, which then gives every message and exit code. The cell tests
need gcc and skip without it; the ``verify`` tests then compare the Python
reader with itself.
"""

import io
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptc_lab import native
from ptc_lab.cli import main

from test_cli import MALFORMED_BODIES, TRIANGLE_HEADER, TRIANGLE_ROWS
from test_library_cache import fill_cache, session_library

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc")


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _pattern(v):
    return struct.unpack("<Q", struct.pack("<d", v))[0]


def _cells(values):
    """The cells ``native.write_rows`` writes for ``values``, one a row."""
    out = io.BytesIO()
    native.write_rows(out, [np.array(values, dtype=np.float64)])
    return out.getvalue().decode("ascii").split("\n")[:-1]


def _assert_cells_match_python(values):
    assert _cells(values) == [format(v, ".17g") for v in values]
    # What the writer wrote, the reader reads back as float() does.
    text = [format(v, ".17g") for v in values if math.isfinite(v)]
    parsed = native.parse_rows("".join(f"{s}\n" for s in text).encode(), 1)
    if not text:  # every value was inf or nan: no row, which parse_rows refuses
        assert parsed is None
        return
    assert parsed[:, 0].tobytes() == np.array([float(s) for s in text]).tobytes()


def _edge_values():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308]
    values += [1e16, 1e17, 9.9999999999999999e16, math.inf, -math.inf, math.nan, 0.1, 1 / 3]
    for k in range(-30, 40):
        p = float(f"1e{k}")
        values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    # Small integers times 2^40..2^80: exact ties at the 17th digit.
    values += [float(i * 2**s) for i in (1, 3, 5, 7, 9, 11, 999, 12345) for s in range(40, 81)]
    # Dyadic fractions.
    values += [i / 2**s for i in (1, 3, 7, 255, 4097) for s in range(1, 70, 3)]
    return values + [-v for v in values]


@needs_gcc
def test_cells_match_python_at_the_edges():
    _assert_cells_match_python(_edge_values())


@needs_gcc
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_cells_match_python_on_raw_bit_patterns(patterns):
    _assert_cells_match_python([_double(bits) for bits in patterns])


def _tiny_values():
    """Cells below 1e-6, which the writer scales in words of 64 bits and
    the reader converts by its candidates: the subnormal mantissas m = 1
    and m = 2^52 - 1, both sides of 2^-1022, three values at every decimal
    exponent from -324 to -7, the powers of ten whose 17 digits carry into
    the next decade, and the powers of two, whose cut-off part is 0 from
    2^-20 to 2^-24 and one half at 2^-25."""
    values = [_double(1), _double(2), _double(2**51), _double(2**52 - 1), _double(2**52),
              _double(2**52 + 1), 2.0**-1022 * 1.5, 2.0**-1023 * 1.5]
    values += [2.0**-k for k in range(20, 1075)]
    for x in range(-324, -6):
        power = float(f"1e{x}")
        values += [float(f"3e{x}"), float(f"9.87654321e{x}"), power]
        values += [math.nextafter(power, 0.0), math.nextafter(power, 1.0)]
    return [v for v in values if v != 0.0]


def _carries(values):
    """The values whose 17 digits round up to the next power of ten."""
    out = []
    for v in values:
        mantissa, _, exponent = format(v, ".17g").partition("e")
        if mantissa == "1" and Fraction(v) < Fraction(10) ** int(exponent):
            out.append(v)
    return out


@needs_gcc
def test_tiny_cells_match_python():
    values = _tiny_values()
    exponents = {int(format(v, ".17g").partition("e")[2]) for v in values}
    assert exponents == set(range(-324, -6))
    assert _carries(values)
    _assert_cells_match_python(values + [-v for v in values])


# Bit patterns weighted to subnormals and to normals below 1e-6.
_TINY_PATTERNS = st.one_of(
    st.integers(1, 2**52 - 1),
    st.integers(2**52, _pattern(1e-6)),
    st.integers(1, 64).map(lambda k: 2**52 - k),
    st.integers(0, 52).map(lambda k: 1 << k),
).flatmap(lambda bits: st.sampled_from((bits, bits | 1 << 63)))


@needs_gcc
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_TINY_PATTERNS, min_size=1, max_size=64))
def test_tiny_cells_match_python_on_bit_patterns(patterns):
    _assert_cells_match_python([_double(bits) for bits in patterns])


@needs_gcc
@pytest.mark.parametrize(
    "text",
    [
        # Not the 17-digit decimal of any double: to strtod.
        "5e-324", "-5e-324", "1e-323", "3e-324", "2e-324",
        "49406564584124654417656879286822137236505980e-367",
        "12345678901234567890e-330", "98765432109876543210e-320",
        # Near halfway between the subnormals of 1 and 2 units, and of
        # 2^52 - 2 and 2^52 - 1 units.
        "7.4109846876186982e-324", "7.41098468761869816e-324",
        "2.2250738585072006e-308", "2.22507385850720063e-308",
        # 17-digit decimals of doubles, written as the writer would not.
        "4.94065645841246544e-324", "0.0000000000000000000000000000000049406564584124654",
        "49406564584124654e-340", "4.9406564584124654e-324",
        # Past the candidates' table, and zeros.
        "1e-341", "1e-400", "0e-400", "-0.000e-30",
    ],
)
def test_parser_reads_tiny_texts_as_float_does(text):
    assert native.parse_rows(f"{text}\n".encode(), 1)[0, 0].hex() == float(text).hex()


@needs_gcc
def test_parser_rounds_halfway_subnormal_decimals_as_float_does():
    # The exact decimals halfway between adjacent subnormals, (2a + 1)
    # times 2^-1075, each with its last digit moved one down and one up.
    strings = []
    for a in (0, 1, 2, 3, 2**51, 2**52 - 2):
        tie = (2 * a + 1) * 5**1075
        strings += [_decimal(tie + step, 1075) for step in (-1, 0, 1)]
    strings += ["-" + s for s in strings]
    parsed = native.parse_rows("".join(f"{s}\n" for s in strings).encode(), 1)
    assert parsed[:, 0].tobytes() == np.array([float(s) for s in strings]).tobytes()


def _c_table(name):
    """The integers of the C array ``name`` in native.c, in order."""
    source = Path(native.__file__).with_name("native.c").read_text()
    body = re.search(r"\b" + name + r"\[\d+\] = \{([^}]*)\}", source).group(1)
    return [int(word, 0) for word in re.findall(r"\b(0x[0-9a-f]+|\d+)ULL", body)]


def test_power_of_five_tables_hold_their_powers():
    assert _c_table("FIVE") == [5**r for r in range(27)]
    words = _c_table("FIVE27")
    for j in range(1, 13):
        row = words[j * (j - 1) // 2: j * (j + 1) // 2]
        assert sum(w << (64 * i) for i, w in enumerate(row)) == 5 ** (27 * j), j
    assert len(words) == 12 * 13 // 2


# Decimal strings of the parser's grammar, from a few digits to many.
_DIGITS = st.text("0123456789", min_size=1, max_size=25)
_DECIMALS = st.builds(
    lambda sign, whole, fraction, exponent: sign + whole + fraction + exponent,
    st.sampled_from(["", "-"]),
    _DIGITS,
    st.one_of(st.just(""), _DIGITS.map(".".__add__)),
    st.one_of(
        st.just(""),
        st.builds("e{}{}".format, st.sampled_from(["", "+", "-"]), st.integers(0, 400)),
    ),
)


@needs_gcc
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_DECIMALS, min_size=1, max_size=32))
def test_parser_matches_float(strings):
    parsed = native.parse_rows("".join(f"{s}\n" for s in strings).encode(), 1)
    assert parsed[:, 0].tobytes() == np.array([float(s) for s in strings]).tobytes()


def _decimal(digits, point):
    """The decimal string of the integer ``digits`` times 10^-point."""
    text = str(digits).rjust(point + 1, "0")
    return f"{text[:-point]}.{text[-point:]}" if point > 0 else text


def _halfway_decimals():
    """Exact ties between adjacent doubles, each with its last digit moved
    one down and one up: the tie (2a + 1) * 2^t of a * 2^(t+1) and
    (a + 1) * 2^(t+1), for 53-bit a. t = -1 gives n + 0.5 for n in
    [2^52, 2^53), and t = 0 the odd integers in [2^53, 2^54). Every string
    has at most 19 significant digits and a scale within 10^-3 .. 10^0, so
    Eisel-Lemire sees them all, and the ties it cannot decide go to
    strtod."""
    strings = []
    for t in range(-3, 10):
        for a in (2**52, 2**52 + 1, 3 * 2**51, 3 * 2**51 + 1, 2**53 - 2, 2**53 - 1):
            point = max(-t, 0)
            tie = (2 * a + 1) * (5**point if t < 0 else 2**t)
            strings += [_decimal(tie + step, point) for step in (-1, 0, 1)]
    return strings + ["-" + s for s in strings]


@needs_gcc
def test_parser_rounds_exact_ties_to_even():
    strings = _halfway_decimals()
    parsed = native.parse_rows("".join(f"{s}\n" for s in strings).encode(), 1)
    assert parsed[:, 0].tobytes() == np.array([float(s) for s in strings]).tobytes()


@needs_gcc
@pytest.mark.parametrize(
    "text",
    [
        # 19 digits with the top bit of 64 set, and values around 2^63 and 2^64.
        "9999999999999999999", "-9999999999999999999", "9223372036854775807",
        "9223372036854775808", "9223372036854775809", "1844674407370955161e1",
        "1844674407370955162e1", "1.844674407370955161e19", "0.1844674407370955162",
        # The ends of the fast path's scales, 10^-21 and 10^19, and past them.
        "1e-21", "0.000000000000000000001", "9999999999999999999e-21", "4503599627370497e-21",
        "1e19", "1234567890123456789e19", "9999999999999999999e19", "4503599627370497e19",
        "1e-22", "1e20", "9999999999999999999e-22", "12345678901234567890", "0e-21", "0e19",
    ],
)
def test_parser_matches_float_at_the_ends_of_its_fast_range(text):
    assert native.parse_rows(f"{text}\n".encode(), 1)[0, 0].hex() == float(text).hex()


def _ties_of_18_digits():
    """Doubles whose exact decimal has 18 significant digits and ends in
    5, from the part of a binade at or above its power of ten 10^x. There
    the writer's first scaling gives 18 digits, and the 18th decides an
    exact tie: v = D / 10^(17 - x) = M / 2^(17 - x) with M = D / 5^(17 - x)
    odd and below 2^53."""
    values = []
    for x in range(-4, 16):
        a = 17 - x
        top = Fraction(2) ** (math.floor(math.log2(10.0**x)) + 1)  # the binade's end
        low = -(-(10**17) // 5**a)
        high = math.ceil(10**17 * top / Fraction(10) ** x / 5**a) - 1
        for m in [*range(low, low + 8), *range(high - 7, high + 1)]:
            if m % 2:
                v = m / 2**a
                digits = Fraction(v) * 10**a
                assert digits.denominator == 1 and len(str(digits.numerator)) == 18
                assert 10.0**x <= v < top and str(digits.numerator).endswith("5")
                values += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    return values + [-v for v in values]


@needs_gcc
def test_writer_rounds_ties_of_an_18th_digit_to_even():
    _assert_cells_match_python(_ties_of_18_digits())


@needs_gcc
@pytest.mark.parametrize(
    "text",
    [
        b"", b"1\n\n2\n", b"1\r\n", b"1", b" 1\n", b"1 \n", b'"1"\n', b"1_0\n", b"0x1\n",
        b"inf\n", b"nan\n", b"1E5\n", b"+1\n", b".5\n", b"5.\n", b"1e\n", b"--1\n",
        b"1,2\n", "\N{BYTE ORDER MARK}1\n".encode(), b"1\x00\n",
        # Breaks inside the eight bytes the reader takes at once.
        b"1234567x\n", b"12345678.", b"1\n12345678.", b"12345678.\n", b"12345678-\n",
        b"1.234567-8\n", b"0.12345678-1\n", b"1234/678\n", b"12345:78\n", b"1234\x80678\n",
        b"1.2345678901234\xff67\n", b"12345678901234567", b"0.12345678901234567",
    ],
)
def test_parser_hands_back_what_leaves_its_grammar(text):
    assert native.parse_rows(text, 1) is None


def _verify_both_ways(tmp_path, capsys, monkeypatch, data):
    """``verify`` on a file of ``data``, with the library built (as a
    compiled run builds it) and without one: each side's exit code, stdout
    and stderr."""
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    argv = ["verify", str(path), "--tau", "10", "--x0-norm", "5"]
    native.library()
    with_library = (main(argv), *capsys.readouterr())
    with monkeypatch.context() as patched:
        patched.setattr(native, "library", lambda: None)
        without = (main(argv), *capsys.readouterr())
    return with_library, without


TRIANGLE = TRIANGLE_HEADER + "".join(TRIANGLE_ROWS)

# Rows that leave the grammar inside the eight bytes the C reader takes at
# once.
WINDOW_BREAKS = {
    "letter-at-byte-7": "1,1234567x,0,4.5,4.5\n",
    "point-at-the-end": "1,4.5,0,4.5,12345678.",
    "minus-at-byte-8": "1,12345678-9,0,4.5,4.5\n",
    "minus-in-fraction": "1,4.5,0,4.5,0.1234567-8\n",
}


@pytest.mark.parametrize(
    "data",
    [
        *((TRIANGLE_HEADER + body).encode() for body, _ in MALFORMED_BODIES.values()),
        (TRIANGLE_HEADER + '"0","5",0,5,"5"\n' + "".join(TRIANGLE_ROWS[1:])).encode(),
        TRIANGLE.replace("\n", "\r\n").encode(),
        (TRIANGLE_HEADER + TRIANGLE_ROWS[0] + "\n" + "".join(TRIANGLE_ROWS[1:])).encode(),
        TRIANGLE.rstrip("\n").encode(),
        (TRIANGLE_HEADER + " " + "".join(TRIANGLE_ROWS)).encode(),
        ("\N{BYTE ORDER MARK}" + TRIANGLE).encode(),
        (TRIANGLE_HEADER + "0,5,0\x00,5,5\n" + "".join(TRIANGLE_ROWS[1:])).encode(),
        (TRIANGLE + "10,1e999,0,1e999,0\n").encode(),
        (TRIANGLE + "10,\xff,0,0,0\n").encode("latin-1"),
        (TRIANGLE_HEADER.replace("\n", "\r\n") + "".join(TRIANGLE_ROWS)).encode(),
        TRIANGLE.replace("t,x1", '"t",x1').encode(),
        *((TRIANGLE_HEADER + "0,5,0,5,5\n" + row).encode() for row in WINDOW_BREAKS.values()),
    ],
    ids=[
        *MALFORMED_BODIES,
        "quoted-cells", "crlf", "blank-line", "no-final-newline", "leading-space", "bom",
        "nul-byte", "1e999", "non-utf8-byte", "crlf-header", "quoted-header", *WINDOW_BREAKS,
    ],
)
def test_verify_answers_the_same_without_the_library(tmp_path, capsys, monkeypatch, data):
    with_library, without = _verify_both_ways(tmp_path, capsys, monkeypatch, data)
    assert with_library == without
    assert "Traceback" not in without[2]


def test_a_non_utf8_byte_is_named_by_its_offset_in_the_file(tmp_path, capsys, monkeypatch):
    # Far past the text reader's first chunk of 8,192 bytes.
    data = bytearray((TRIANGLE + "10,0,0,0,0\n" * 10_000).encode())
    offset = 70_003
    data[offset] = 0xFF
    with_library, without = _verify_both_ways(tmp_path, capsys, monkeypatch, bytes(data))
    assert with_library == without
    reason = f"'utf-8' codec can't decode byte 0xff in position {offset}: invalid start byte"
    assert without == (1, "", f"error: trace {tmp_path / 'trace.csv'} is not UTF-8 text: {reason}\n")


def test_verify_reads_its_own_csv_compiled(tmp_path, capsys, monkeypatch):
    parsed = []
    parse_rows = native.parse_rows

    def spy(text, cols):
        rows = parse_rows(text, cols)
        parsed.append(rows is not None)
        return rows

    monkeypatch.setattr(native, "parse_rows", spy)
    with_library, without = _verify_both_ways(tmp_path, capsys, monkeypatch, TRIANGLE.encode())
    assert with_library == without and with_library[0] == 0
    assert parsed == [True] * (native.library() is not None)


def _verify_alone(tmp_path):
    """``verify`` in a fresh process whose per-user cache is under
    ``tmp_path``: its exit code, whether it imported subprocess (which
    only a gcc build does), and whether it read the trace in C."""
    path = tmp_path / "trace.csv"
    path.write_text(TRIANGLE)
    code = (
        "import sys; from ptc_lab import native; from ptc_lab.cli import main; "
        "parse_rows = native.parse_rows; compiled = []; "
        "native.parse_rows = lambda *a: compiled.append(1) or parse_rows(*a); "
        f"code = main(['verify', {str(path)!r}, '--tau', '10', '--x0-norm', '5']); "
        "print(code, 'subprocess' in sys.modules, bool(compiled))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_var = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path_var, "XDG_CACHE_HOME": str(tmp_path / "cache")},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines()[-1]


def test_verify_alone_builds_no_library(tmp_path):
    # With a cold cache, a process that only verifies reads in Python
    # rather than pay for a gcc build.
    assert _verify_alone(tmp_path) == "0 False False"


@needs_gcc
def test_verify_alone_reads_a_warm_cache_in_c(tmp_path):
    fill_cache(tmp_path / "cache", session_library())
    assert _verify_alone(tmp_path) == "0 False True"
