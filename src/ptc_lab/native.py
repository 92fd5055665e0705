"""The compiled closed loop, and the plant programs it interprets.

Plants built by this package carry their ``f`` and ``g`` as data as well
as callables: a postfix program of the ops below, registered against the
callable's identity in a weak-key table. ``expressions.parse_expression``
derives one from the checked syntax tree, and ``plant.builtin_plant``
declares its own. A callable that is not in the table, such as a wrapper
made with ``functools.wraps``, has no program, and its plant runs in the
Python loop of ``sim.run``.

``integrate`` runs the loop of ``sim.run`` in ``native.c``, a fixed C
source shipped with the package. The shared library is built with the
system's ``gcc`` on the first call, never at import, into a temporary
directory that is removed once the library is loaded. Without a compiler,
or when the build fails, ``integrate`` returns None and ``sim.run`` takes
the Python loop; it returns None as well whenever the C loop meets
anything the Python loop raises on.
"""

from __future__ import annotations

import ctypes
import shutil
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple, Sequence
from weakref import WeakKeyDictionary

import numpy as np

__all__: list[str] = []

# Opcodes, numbered as in native.c. X takes a state index, CONST a value
# and FSUM a count of operands; the others take no argument. END closes
# every program.
(CONST, X, U, T, ADD, SUB, MUL, DIV, NEG, SIN, COS, EXP, ABS, FSUM, END) = range(15)
# native.c's STACK - 1: the most values a program may hold at once.
MAX_DEPTH = 63
_BINARY = frozenset((ADD, SUB, MUL, DIV))
_UNARY = frozenset((NEG, SIN, COS, EXP, ABS))


class Program(NamedTuple):
    """A postfix program for ``f(x, u, t)`` or ``g(t)``.

    ``code`` holds (opcode, operand) pairs, with CONST operands indexing
    ``consts``. ``states`` is the number of state components the callable
    reads: exactly that many when ``exact`` (a builtin unpacks ``x``), at
    least that many otherwise (an expression indexes it).
    """

    code: tuple[int, ...]
    consts: tuple[float, ...]
    depth: int
    states: int
    exact: bool

    def fits(self, n: int) -> bool:
        """Whether the compiled loop runs this program for an order-n plant."""
        if self.depth > MAX_DEPTH:
            return False
        return self.states == n if self.exact else self.states <= n


def program(ops: Sequence[tuple[int, float]], *, exact: bool = False) -> Program:
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
    return Program((*code, END, 0), tuple(consts), depth, states, exact)


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
        ("can_rest", ctypes.c_int),
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
    ]


@lru_cache(maxsize=None)
def library() -> ctypes.CDLL | None:
    """The compiled loop, built on first use; None without a working gcc."""
    compiler = shutil.which("gcc")
    if compiler is None:
        return None
    import subprocess
    import tempfile

    source = Path(__file__).with_name("native.c")
    with tempfile.TemporaryDirectory(prefix="ptc_lab-", ignore_cleanup_errors=True) as tmp:
        target = Path(tmp) / "native.so"
        command = [
            compiler, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
            "-o", str(target), str(source), "-lm",
        ]
        try:
            subprocess.run(command, capture_output=True, check=True, timeout=300)
            lib = ctypes.CDLL(str(target))
        except (OSError, subprocess.SubprocessError):
            return None
    lib.ptc_run.argtypes = [ctypes.POINTER(_RunArgs)]
    lib.ptc_run.restype = ctypes.c_int
    lib.ptc_eval.argtypes = [
        ctypes.POINTER(_Program), _DOUBLE_P, ctypes.c_double, ctypes.c_double, _DOUBLE_P,
    ]
    lib.ptc_eval.restype = ctypes.c_int
    return lib


def _as_struct(prog: Program, keep: list) -> _Program:
    code = (ctypes.c_int * len(prog.code))(*prog.code)
    consts = (ctypes.c_double * max(len(prog.consts), 1))(*prog.consts)
    keep += (code, consts)
    return _Program(code, consts)


def evaluate(prog: Program, x: Sequence[float], u: float, t: float) -> float | None:
    """``prog`` at ``(x, u, t)`` in the compiled machine, or None where it
    faults. Raises RuntimeError when no compiled machine is available."""
    lib = library()
    if lib is None:
        raise RuntimeError("no C compiler: the compiled machine is unavailable")
    keep: list = []
    state = (ctypes.c_double * max(len(x), 1))(*x)
    out = ctypes.c_double()
    if lib.ptc_eval(ctypes.byref(_as_struct(prog, keep)), state, u, t, ctypes.byref(out)):
        return None
    return out.value


def integrate(
    f: Program,
    g: Program,
    q: Sequence[float],
    x0: Sequence[float],
    scalars: dict[str, float],  # one value per name in SCALARS
    stride: int,
    can_rest: bool,
    capacity: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, float, float] | None:
    """Run the loop of ``sim.run`` in C.

    Returns ``(times, states, inputs, steps_total, u_max, x_max)``, or
    None when no compiled loop is available, the buffers of ``capacity``
    rows cannot be allocated, or the run must be repeated in Python: it
    faulted, or it recorded more than ``capacity`` rows.
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
    keep: list = []  # the ctypes arrays must outlive the call
    args = _RunArgs(
        n=n,
        can_rest=int(can_rest),
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
    if lib.ptc_run(ctypes.byref(args)) != 0:
        return None
    rows = args.rows
    return times[:rows], states[:rows], inputs[:rows], args.steps, args.u_max, args.x_max
