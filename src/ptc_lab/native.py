"""The compiled closed loop and trace CSV I/O, and the plant programs the
loop interprets.

Plants built by this package carry their ``f`` and ``g`` as data as well
as callables: a postfix program of the ops below, registered against the
callable's identity in a weak-key table. ``expressions.parse_expression``
derives one from the checked syntax tree, and ``plant.builtin_plant``
declares example3's. The C machine sizes its stack from each program's
``depth``, so a program of any depth runs. A callable that is not in the
table, such as a wrapper made with ``functools.wraps``, has no program,
and its plant runs in the Python loop of ``sim.run``.

``integrate`` runs the loop of ``sim.run`` in ``native.c``, a fixed C
source shipped with the package. The shared library is built with the
system's ``gcc`` on the first call, never at import, once per user: it is
kept in ``${XDG_CACHE_HOME:-~/.cache}/ptc-lab/``, named by a hash of the
source, the compiler and the flags, and later processes load it without
running gcc. The cache is used only when its directory and file pass the
checks of ``_usable``; otherwise, and on any error, the library is built
in a temporary directory that is removed once it is loaded. Without a
compiler, or when the build fails, ``integrate`` returns None and
``sim.run`` takes the Python loop; it returns None as well whenever the C
loop meets anything the Python loop raises on. The C loop runs in a worker
thread, so that Ctrl-C in the calling thread stops it within one step.

``write_rows`` and ``parse_rows`` write and read the rows of a trace CSV
in the same library, for ``cli.write_trace_csv`` and ``verify``'s reader,
which use them once a compiled run has loaded the library or the cache
holds it (``built``).
The writer gives each cell the bytes of ``format(v, ".17g")``, and the
reader the bits of ``float()``. The reader accepts only the strict grammar
of what the writer writes and hands anything else back, so that the
Python reader, the reference and the fallback, judges such a file with
its own messages.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import stat
import struct
import threading
from contextlib import suppress
from functools import lru_cache
from pathlib import Path
from typing import BinaryIO, Callable, NamedTuple, Sequence
from weakref import WeakKeyDictionary

import numpy as np

__all__: list[str] = []

# Opcodes, numbered as in native.c. X takes a state index, CONST a value
# and FSUM a count of operands; the others take no argument. END closes
# every program.
(CONST, X, U, T, ADD, SUB, MUL, DIV, NEG, SIN, COS, EXP, ABS, FSUM, END) = range(15)
_BINARY = frozenset((ADD, SUB, MUL, DIV))
_UNARY = frozenset((NEG, SIN, COS, EXP, ABS))


class Program(NamedTuple):
    """A postfix program for ``f(x, u, t)`` or ``g(t)``.

    ``code`` holds (opcode, operand) pairs, with CONST operands indexing
    ``consts``. ``depth`` is the most values it holds at once, which sizes
    the machine's stack, and ``states`` the number of state components it
    reads: it runs for a plant of that order or more.
    """

    code: tuple[int, ...]
    consts: tuple[float, ...]
    depth: int
    states: int


def program(ops: Sequence[tuple[int, float]]) -> Program:
    """The program of ``ops``, a postfix list of (opcode, argument) pairs."""
    code: list[int] = []
    consts: list[float] = []
    depth = top = states = 0
    for op, arg in ops:
        if op == CONST:
            consts.append(float(arg))
            arg = len(consts) - 1
        if op in (CONST, X, U, T):
            top += 1
        elif op in _BINARY:
            top -= 1
        elif op == FSUM:
            top -= int(arg) - 1
        elif op not in _UNARY:
            raise ValueError(f"unknown opcode {op}")
        if op == X:
            states = max(states, int(arg) + 1)
        if top < 1:
            raise ValueError("program pops an empty stack")
        depth = max(depth, top)
        code += (op, int(arg))
    if top != 1:
        raise ValueError(f"program leaves {top} values on the stack")
    return Program((*code, END, 0), tuple(consts), depth, states)


_PROGRAMS: WeakKeyDictionary[Callable, Program] = WeakKeyDictionary()


def register(fn: Callable, prog: Program) -> None:
    """Declare that calling ``fn`` computes what ``prog`` computes."""
    _PROGRAMS[fn] = prog


def program_of(fn: Callable) -> Program | None:
    """The program registered for this very callable, if any."""
    try:
        return _PROGRAMS.get(fn)
    except TypeError:  # unhashable or not weakly referenceable
        return None


class _Program(ctypes.Structure):
    _fields_ = [
        ("code", ctypes.POINTER(ctypes.c_int)),
        ("consts", ctypes.POINTER(ctypes.c_double)),
        ("depth", ctypes.c_int),
    ]


# The scalars of a run, in the order of run_args in native.c.
SCALARS = (
    "tau", "t_end", "stop", "gamma_min", "gamma", "threshold",
    "dt_base", "shrink_divisor", "stiff_cap", "phi", "phi0", "slack",
)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)


class _RunArgs(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int),
        ("stride", ctypes.c_long),
        ("capacity", ctypes.c_long),
        *((name, ctypes.c_double) for name in SCALARS),
        ("q", _DOUBLE_P),
        ("f", _Program),
        ("g", _Program),
        ("x", _DOUBLE_P),
        ("times", _DOUBLE_P),
        ("states", _DOUBLE_P),
        ("inputs", _DOUBLE_P),
        ("rows", ctypes.c_long),
        ("steps", ctypes.c_long),
        ("u_max", ctypes.c_double),
        ("x_max", ctypes.c_double),
        ("cancel", ctypes.c_int),
    ]


# The functions native.c exports: name -> (restype, argtypes).
SIGNATURES = {
    "ptc_run": (ctypes.c_int, [ctypes.POINTER(_RunArgs)]),
    "ptc_eval": (
        ctypes.c_int,
        [
            ctypes.POINTER(_Program), ctypes.c_int, _DOUBLE_P, ctypes.c_double,
            ctypes.c_double, ctypes.c_int, _DOUBLE_P,
        ],
    ),
    "ptc_grid": (ctypes.c_int, [ctypes.c_int, ctypes.c_double, ctypes.c_double, _DOUBLE_P]),
    "ptc_format_rows": (
        ctypes.c_long,
        [
            ctypes.c_int, ctypes.POINTER(_DOUBLE_P), ctypes.POINTER(ctypes.c_long),
            ctypes.c_long, ctypes.c_long, ctypes.POINTER(ctypes.c_char),
        ],
    ),
    "ptc_count_rows": (ctypes.c_long, [ctypes.c_char_p, ctypes.c_long]),
    "ptc_parse_rows": (
        ctypes.c_long,
        [ctypes.c_char_p, ctypes.c_long, ctypes.c_int, _DOUBLE_P, ctypes.c_long],
    ),
}


_SOURCE = Path(__file__).with_name("native.c")
# gcc's flags for native.c, read by the build and by the cache key.
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


@lru_cache(maxsize=None)
def library() -> ctypes.CDLL | None:
    """The compiled loop, from the per-user cache or built on first use;
    None without a working gcc."""
    compiler = shutil.which("gcc")
    if compiler is None:
        return None
    try:
        return _cached_library(compiler)
    except (OSError, AttributeError):  # the cache cannot be used: build without it
        pass
    import tempfile

    with tempfile.TemporaryDirectory(prefix="ptc_lab-", ignore_cleanup_errors=True) as tmp:
        target = Path(tmp) / "native.so"
        try:
            return _load(target) if _compile(compiler, target) else None
        except (OSError, AttributeError):
            return None


def _compile(compiler: str, target: Path) -> bool:
    """Whether gcc built native.c into the shared library ``target``."""
    import subprocess

    command = [compiler, *_FLAGS, "-o", str(target), str(_SOURCE), "-lm"]
    try:
        subprocess.run(command, capture_output=True, check=True, timeout=300)
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def _load(path: Path) -> ctypes.CDLL:
    """The library at ``path`` with the types of SIGNATURES. Raises
    OSError when it cannot be loaded and AttributeError when it lacks one
    of the functions."""
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in SIGNATURES.items():
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = argtypes
    return lib


def _cache_entry(compiler: str) -> Path:
    """The cache's path for what ``compiler`` builds from native.c with
    ``_FLAGS``. Raises OSError when the cache has no absolute location."""
    import hashlib  # loads OpenSSL: not at import

    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    directory = Path(base, "ptc-lab")
    if not directory.is_absolute():
        raise OSError(f"no absolute cache directory: {directory}")
    key = hashlib.sha256(repr((_SOURCE.read_bytes(), compiler, _FLAGS)).encode()).hexdigest()
    return directory / f"native-{key}.so"


def _trusted(path: Path, directory: bool) -> bool:
    """Whether ``path`` itself, not followed if it is a symlink, is owned
    by the current user and is a ``directory`` of mode 0700, or a regular
    file that no one else can write."""
    info = os.lstat(path)
    if info.st_uid != os.getuid():
        return False
    if directory:
        return stat.S_ISDIR(info.st_mode) and stat.S_IMODE(info.st_mode) == 0o700
    return stat.S_ISREG(info.st_mode) and not info.st_mode & 0o022


# Per ELF class (32 or 64 bits): the word format, where the ELF header
# keeps e_phoff and e_phentsize, and where a program header keeps p_offset
# and p_filesz.
_ELF_LAYOUT = {1: ("I", 0x1C, 0x2A, 4, 16), 2: ("Q", 0x20, 0x36, 8, 32)}


def _whole(path: Path) -> bool:
    """Whether ``path`` is an ELF file that holds every byte its program
    headers map. dlopen maps them without checking the file's length, and
    a process that touches a page past the end of a truncated file dies of
    SIGBUS."""
    data = path.read_bytes()
    if data[:4] != b"\x7fELF":
        return False
    try:
        order = {1: "<", 2: ">"}[data[5]]
        word, phoff_at, phentsize_at, offset_at, filesz_at = _ELF_LAYOUT[data[4]]
        (phoff,) = struct.unpack_from(order + word, data, phoff_at)
        entsize, count = struct.unpack_from(order + "HH", data, phentsize_at)
        ends = [
            sum(struct.unpack_from(order + word, data, phoff + i * entsize + at)[0]
                for at in (offset_at, filesz_at))
            for i in range(count)
        ]
    except (IndexError, KeyError, struct.error):
        return False
    return max(ends, default=0) <= len(data)


def _usable(path: Path) -> bool:
    """Whether the cache may load ``path``: it and its directory are
    ``_trusted`` and it is ``_whole``. Raises OSError when either is
    missing or cannot be read."""
    return (
        _trusted(path.parent, directory=True)
        and _trusted(path, directory=False)
        and _whole(path)
    )


def _cached_library(compiler: str) -> ctypes.CDLL:
    """The library from the per-user cache, built into it when absent or
    unusable. Raises OSError when the cache directory cannot be made or
    trusted, or the build fails, and OSError or AttributeError when the
    built library cannot be loaded."""
    path = _cache_entry(compiler)
    with suppress(OSError, AttributeError):  # absent, untrusted, truncated or unloadable
        if _usable(path):
            return _load(path)
    path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    if not _trusted(path.parent, directory=True):
        raise PermissionError(f"untrusted cache directory {path.parent}")
    import tempfile

    # Built under a name of its own and renamed into place, so that a
    # process that starts meanwhile finds either no file or a whole one.
    fd, name = tempfile.mkstemp(prefix=".native-", suffix=".so", dir=path.parent)
    os.close(fd)
    tmp = Path(name)
    try:
        if not _compile(compiler, tmp):
            raise OSError(f"gcc could not build {_SOURCE}")
        tmp.chmod(0o700)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return _load(path)


def _in_cache() -> bool:
    """Whether ``library()`` would load the cache without running gcc."""
    compiler = shutil.which("gcc")
    try:
        return compiler is not None and _usable(_cache_entry(compiler))
    except OSError:
        return False


# Bound here, so that built() still reads the real cache when a test
# replaces library() with a stand-in.
_library_cache_info = library.cache_info


def built() -> ctypes.CDLL | None:
    """``library()`` once this process has called it or the per-user cache
    holds it, else None without building it. Writing or reading one trace
    saves less time than the gcc build costs, so trace CSV I/O uses the
    library only when no build is needed."""
    return library() if _library_cache_info().currsize or _in_cache() else None


def _as_struct(prog: Program, keep: list) -> _Program:
    code = (ctypes.c_int * len(prog.code))(*prog.code)
    consts = (ctypes.c_double * max(len(prog.consts), 1))(*prog.consts)
    keep += (code, consts)
    return _Program(code, consts, prog.depth)


def evaluate(
    prog: Program, x: Sequence[float], u: float, t: float, grid: bool = False
) -> float | None:
    """``prog`` at ``(x, u, t)`` in the compiled machine, or None where it
    faults. With ``grid``, it runs as ``f`` runs in the loop's grid steps,
    on ``x`` and ``u`` times 2^1074, and gives None as well where ``x`` or
    ``u`` is not below 2^-50 or those steps would not carry the value:
    example3's weighted sum runs on the grid, any other program on the
    values brought back, with their value carried below 2^-50.
    Raises RuntimeError when no compiled machine is available."""
    lib = library()
    if lib is None:
        raise RuntimeError("no C compiler: the compiled machine is unavailable")
    keep: list = []
    state = (ctypes.c_double * max(len(x), 1))(*x)
    out = ctypes.c_double()
    if lib.ptc_eval(
        ctypes.byref(_as_struct(prog, keep)), len(x), state, u, t, grid, ctypes.byref(out)
    ):
        return None
    return out.value


def integrate(
    f: Program,
    g: Program,
    q: Sequence[float],
    x0: Sequence[float],
    scalars: dict[str, float],  # one value per name in SCALARS
    stride: int,
    capacity: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, float, float] | None:
    """Run the loop of ``sim.run`` in C.

    Returns ``(times, states, inputs, steps_total, u_max, x_max)``, or
    None when no compiled loop is available, the buffers of ``capacity``
    rows cannot be allocated, or the run must be repeated in Python: it
    faulted, or it recorded more than ``capacity`` rows. A
    KeyboardInterrupt stops the C loop within one step and propagates.
    """
    lib = library()
    if lib is None:
        return None
    n = len(x0)
    try:
        times = np.empty(capacity)
        states = np.empty((capacity, n))
        inputs = np.empty(capacity)
    except MemoryError:
        return None
    x = np.array(x0, dtype=np.float64)
    q_arr = np.array(q, dtype=np.float64)
    keep: list = [x, q_arr, times, states, inputs]  # these must outlive the call
    args = _RunArgs(
        n=n,
        stride=stride,
        capacity=capacity,
        q=q_arr.ctypes.data_as(_DOUBLE_P),
        f=_as_struct(f, keep),
        g=_as_struct(g, keep),
        x=x.ctypes.data_as(_DOUBLE_P),
        times=times.ctypes.data_as(_DOUBLE_P),
        states=states.ctypes.data_as(_DOUBLE_P),
        inputs=inputs.ctypes.data_as(_DOUBLE_P),
        **{name: scalars[name] for name in SCALARS},  # none may default to 0
    )
    if _run_interruptibly(lib.ptc_run, args, keep) != 0:
        return None
    rows = args.rows
    return times[:rows], states[:rows], inputs[:rows], args.steps, args.u_max, args.x_max


def _run_interruptibly(ptc_run, args: _RunArgs, keep: list) -> int:
    """``ptc_run(args)`` in a worker thread; returns its status.

    ctypes releases the GIL for the call, so the calling thread can wait
    on an event, where Ctrl-C raises KeyboardInterrupt. It then sets the
    cancel flag, waits for the C loop to return at its next step, and
    re-raises. The worker holds ``args`` and ``keep``, whose buffers the C
    loop writes, until the call returns. (``Thread.join`` would not do: an
    interrupted join can mark the running thread as stopped, and the next
    join then returns at once.)
    """
    status: list[int] = []
    done = threading.Event()

    def call(args: _RunArgs, keep: list) -> None:
        try:
            status.append(ptc_run(ctypes.byref(args)))
        finally:
            done.set()

    threading.Thread(target=call, args=(args, keep), name="ptc_lab-native").start()
    try:
        done.wait()
    except KeyboardInterrupt:
        args.cancel = 1
        done.wait()
        raise
    return status[0]


# native.c's CELL, the longest cell and its separator, and SLACK, the most
# bytes a cell writes past its own end; in bytes.
CELL = 25
SLACK = 16
# Rows formatted per call of ptc_format_rows, which bounds the buffer.
_CHUNK_ROWS = 4096


def write_rows(fh: BinaryIO, columns: Sequence[np.ndarray]) -> None:
    """Write the rows of ``columns``, float64 arrays of one length, to the
    binary file ``fh``: each cell as ``format(v, ".17g")`` gives it, cells
    separated by commas, each row ended by a newline. Raises RuntimeError
    when no compiled library is available."""
    lib = library()
    if lib is None:
        raise RuntimeError("no C compiler: the compiled writer is unavailable")
    arrays = [np.asarray(c, dtype=np.float64) for c in columns]
    rows = len(arrays[0])
    if any(a.shape != (rows,) for a in arrays):
        raise ValueError("columns must be 1-D arrays of one length")
    arrays = [a if a.strides[0] % a.itemsize == 0 else a.copy() for a in arrays]
    data = (_DOUBLE_P * len(arrays))(*(a.ctypes.data_as(_DOUBLE_P) for a in arrays))
    strides = (ctypes.c_long * len(arrays))(*(a.strides[0] // a.itemsize for a in arrays))
    buffer = bytearray(min(rows, _CHUNK_ROWS) * len(arrays) * CELL + SLACK)
    out = (ctypes.c_char * len(buffer)).from_buffer(buffer)
    view = memoryview(buffer)
    for first in range(0, rows, _CHUNK_ROWS):
        count = min(_CHUNK_ROWS, rows - first)
        fh.write(view[: lib.ptc_format_rows(len(arrays), data, strides, first, count, out)])


def parse_rows(text: bytes, cols: int) -> np.ndarray | None:
    """The rows of ``text`` as a (rows, cols) float64 array, each cell
    converted as ``float()`` converts it. None when ``text`` holds no row,
    or when it leaves the strict grammar of what ``write_rows`` writes:
    cells ``-?digits[.digits][e[+-]digits]``, separated by commas, each row
    of ``cols`` cells ended by a newline. The caller's own reader then
    judges the text. Raises RuntimeError when no compiled library is
    available."""
    lib = library()
    if lib is None:
        raise RuntimeError("no C compiler: the compiled reader is unavailable")
    capacity = lib.ptc_count_rows(text, len(text))
    out = np.empty((capacity, cols))
    rows = lib.ptc_parse_rows(text, len(text), cols, out.ctypes.data_as(_DOUBLE_P), capacity)
    return out if rows == capacity > 0 else None
