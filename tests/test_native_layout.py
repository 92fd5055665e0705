"""``native.py`` declares what ``native.c`` defines, read from the C source.

ctypes trusts ``_RunArgs`` to lay out ``run_args``, ``SIGNATURES`` to give
each exported function's parameter and return types, and the opcode
numbers to match the C enum; a mismatch corrupts memory or runs the wrong
ops instead of failing. These tests parse the source, so they need no gcc,
except the last two, which build it: one checks where gcc places the
closed loop's code, the other that gcc has no warning for it.
"""

import ctypes
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from ptc_lab import native

# native.c without its comments.
CODE = re.sub(
    r"/\*.*?\*/", "", Path(native.__file__).with_name("native.c").read_text(), flags=re.S
)

# The C types of the structures' fields, as ctypes spells them.
C_TYPES = {
    "int": ctypes.c_int,
    "long": ctypes.c_long,
    "double": ctypes.c_double,
    "int *": ctypes.POINTER(ctypes.c_int),
    "double *": ctypes.POINTER(ctypes.c_double),
    "program": native._Program,
}


def _struct_fields(name):
    """(field, C type) pairs of ``typedef struct { ... } name;``, in order."""
    body = re.search(r"typedef struct \{([^}]*)\}\s*" + name + ";", CODE).group(1)
    fields = []
    for declaration in filter(str.strip, body.split(";")):
        words = re.sub(r"\b(const|volatile)\b", "", declaration).split(",")
        base, first = words[0].split(None, 1)
        for declarator in (first, *words[1:]):
            pointer = " *" if "*" in declarator else ""
            fields.append((declarator.replace("*", "").strip(), base + pointer))
    return fields


@pytest.mark.parametrize(
    "name, structure", [("run_args", native._RunArgs), ("program", native._Program)]
)
def test_structures_match_their_ctypes_layout(name, structure):
    fields = [(field, C_TYPES[c_type]) for field, c_type in _struct_fields(name)]
    assert fields == list(structure._fields_)


def test_opcodes_match_native_py():
    (opcodes,) = re.findall(r"enum \{(\s*OP_[^}]*)\}", CODE)
    names = re.findall(r"\bOP_(\w+)", opcodes)
    assert [getattr(native, name) for name in names] == list(range(len(names)))
    assert names[-1] == "END"
    # eval's one jump table lists one label per opcode, in enum order.
    (table,) = re.findall(r"\b(\w*labels)\[\] = \{([^}]*)\}", CODE)
    assert table[0] == "labels"
    assert re.findall(r"&&op_(\w+)", table[1]) == [name.lower() for name in names]


# The base types of the exported functions' parameters, as ctypes spells them.
BASE_TYPES = {
    "int": ctypes.c_int,
    "long": ctypes.c_long,
    "double": ctypes.c_double,
    "char": ctypes.c_char,
    "program": native._Program,
    "run_args": native._RunArgs,
}


def _parameter_type(declaration):
    """The ctypes type of one C parameter declaration such as
    ``const double *const *data``."""
    words = declaration.replace("*", " * ").split()[:-1]  # without the name
    if words == ["const", "char", "*"]:
        return ctypes.c_char_p  # a byte string, passed without a copy
    (base,) = (word for word in words if word not in ("const", "*"))
    c_type = BASE_TYPES[base]
    for _ in range(words.count("*")):
        c_type = ctypes.POINTER(c_type)
    return c_type


def test_exported_functions_match_their_signatures():
    prototypes = re.findall(
        r"^(?:HOT )?(int|long|double) (ptc_\w+)\(([^)]*)\)\s*\{", CODE, flags=re.M
    )
    declared = {
        name: (BASE_TYPES[restype], [_parameter_type(p) for p in parameters.split(",")])
        for restype, name, parameters in prototypes
    }
    assert declared == {
        name: (restype, list(argtypes)) for name, (restype, argtypes) in native.SIGNATURES.items()
    }


def test_cell_width_matches_native_py():
    assert native.CELL == int(re.search(r"#define CELL (\d+)", CODE).group(1))


def test_cell_slack_matches_native_py():
    assert native.SLACK == int(re.search(r"#define SLACK (\d+)", CODE).group(1))


# The functions native.c marks HOT, the closed loop's.
HOT = re.findall(r"^(?:static )?HOT \w+ \*?(\w+)\(", CODE, flags=re.M)


@pytest.mark.skipif(
    shutil.which("gcc") is None or shutil.which("nm") is None, reason="no gcc or nm"
)
def test_hot_functions_start_on_a_cache_line(tmp_path):
    # Each HOT function that gcc emits on its own starts at a multiple of
    # 64 bytes, so that code emitted ahead of it cannot shift its
    # instructions; some are always inlined and have no symbol.
    assert {"fsum", "eval", "record", "grid", "run", "ptc_run"} <= set(HOT)
    library = tmp_path / "native.so"
    assert native._compile(shutil.which("gcc"), library)
    symbols = subprocess.run(
        ["nm", str(library)], capture_output=True, text=True, check=True
    ).stdout
    addresses = {
        name: int(address, 16)
        for address, kind, name in (line.split() for line in symbols.splitlines()
                                    if len(line.split()) == 3)
        if kind in "tT"
    }
    emitted = {name: addresses[name] for name in HOT if name in addresses}
    # ptc_run is exported, and gcc inlines no function with computed gotos.
    assert {"eval", "ptc_run"} <= set(emitted)
    assert {name: address % 64 for name, address in emitted.items()} == dict.fromkeys(emitted, 0)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc")
def test_native_c_builds_without_warnings(tmp_path):
    # The build's own flags with -Wall -Wextra -Werror: an unused
    # variable, parameter or function, among others, fails the build.
    command = [
        shutil.which("gcc"), *native._FLAGS, "-Wall", "-Wextra", "-Werror",
        "-o", str(tmp_path / "native.so"), str(native._SOURCE), "-lm",
    ]
    result = subprocess.run(command, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
