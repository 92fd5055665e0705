"""The compiled library is built once per user and loaded from a cache.

``native.library()`` keeps what gcc builds in
``${XDG_CACHE_HOME:-~/.cache}/ptc-lab/`` and loads it from there in later
processes without running gcc. It loads only a whole regular file that
the user owns and no one else can write, in a directory of mode 0700 that
the user owns, with no symlink on either; anything else is rebuilt in the
cache or, when the directory cannot be trusted, in a temporary directory.
Every test here keeps its cache under ``tmp_path``. The in-process tests
replace gcc with a copy of the library that this session built, and
record what is built and what is loaded.
"""

import ctypes
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from ptc_lab import native

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc")


def session_library() -> Path:
    """The library in this session's cache, built there if absent."""
    compiler = shutil.which("gcc")
    native._cached_library(compiler)
    return native._cache_entry(compiler)


def fill_cache(cache_home: Path, built: Path) -> Path:
    """The cache under ``cache_home`` as a first process leaves it, with a
    copy of the library ``built``; returns the copy's path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(cache_home))
        entry = native._cache_entry(shutil.which("gcc"))
    entry.parent.mkdir(mode=0o700, parents=True)
    shutil.copy(built, entry)
    return entry


class Cache(NamedTuple):
    entry: Path  # where the cache keeps the library
    events: list  # ("build", target) and ("load", path), in order
    built: Path  # session_library()

    def fill(self, cache_home: Path | None = None) -> Path:
        return fill_cache(cache_home or self.entry.parents[1], self.built)


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache under ``tmp_path``, with gcc replaced by a copy of
    this session's library, and no library loaded yet."""
    built = session_library()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    events = []
    load = native._load

    def compile_(compiler, target):
        events.append(("build", Path(target)))
        shutil.copyfile(built, target)
        return True

    def load_(path):
        events.append(("load", Path(path)))
        return load(path)

    monkeypatch.setattr(native, "_compile", compile_)
    monkeypatch.setattr(native, "_load", load_)
    native.library.cache_clear()
    yield Cache(native._cache_entry(shutil.which("gcc")), events, built)
    native.library.cache_clear()


def _works(lib):
    return lib is not None and lib.ptc_count_rows(b"1\n2\n", 4) == 2


def _reload():
    native.library.cache_clear()
    return native.library()


def test_a_miss_builds_into_the_cache_and_a_hit_builds_nothing(cache):
    assert _works(native.library())
    assert [kind for kind, _ in cache.events] == ["build", "load"]
    assert cache.events[0][1].parent == cache.entry.parent
    assert cache.events[1][1] == cache.entry
    assert oct(cache.entry.parent.stat().st_mode & 0o777) == oct(0o700)
    assert sorted(cache.entry.parent.iterdir()) == [cache.entry]  # no temporary left
    cache.events.clear()
    assert _works(_reload())
    assert cache.events == [("load", cache.entry)]


@pytest.mark.parametrize("mode", [0o720, 0o702, 0o770])
def test_a_file_others_can_write_is_rebuilt_not_loaded(cache, mode):
    entry = cache.fill()
    entry.chmod(mode)
    assert _works(native.library())
    assert [kind for kind, _ in cache.events] == ["build", "load"]
    assert cache.events[1][1] == entry
    assert not entry.stat().st_mode & 0o022


@pytest.mark.parametrize("mode", [0o770, 0o755, 0o707])
def test_a_directory_not_of_mode_0700_is_not_used(cache, mode):
    entry = cache.fill()
    before = entry.read_bytes()
    entry.parent.chmod(mode)
    assert _works(native.library())
    assert [kind for kind, _ in cache.events] == ["build", "load"]
    target = cache.events[0][1]
    assert cache.events[1][1] == target and entry.parent not in target.parents
    assert not native._in_cache() and native.built() is not None  # this process built one
    assert sorted(entry.parent.iterdir()) == [entry] and entry.read_bytes() == before


def test_a_symlinked_file_is_replaced_not_loaded(cache, tmp_path):
    elsewhere = cache.fill(tmp_path / "elsewhere")  # a whole, trusted library
    cache.entry.parent.mkdir(mode=0o700)
    cache.entry.symlink_to(elsewhere)
    assert _works(native.library())
    assert [kind for kind, _ in cache.events] == ["build", "load"]
    assert not cache.entry.is_symlink() and cache.entry.is_file()


def test_a_symlinked_directory_is_not_used(cache, tmp_path):
    elsewhere = cache.fill(tmp_path / "elsewhere")
    cache.entry.parents[1].mkdir(exist_ok=True)
    cache.entry.parent.symlink_to(elsewhere.parent)
    assert _works(native.library())
    assert [kind for kind, _ in cache.events] == ["build", "load"]
    assert elsewhere.parent not in cache.events[0][1].parents
    assert sorted(elsewhere.parent.iterdir()) == [elsewhere]


@pytest.mark.parametrize("keep", [0.0, 0.004, 0.5])
def test_a_truncated_file_is_rebuilt(cache, keep):
    # dlopen refuses a file cut inside its headers, but maps one cut in
    # its segments, and the process then dies of SIGBUS: both are rebuilt.
    entry = cache.fill()
    whole = entry.read_bytes()
    entry.write_bytes(whole[: int(keep * len(whole))])
    assert not native._whole(entry) and not native._in_cache()
    assert _works(native.library())
    assert [kind for kind, _ in cache.events] == ["build", "load"]
    assert entry.read_bytes() == whole


def test_a_library_without_a_function_is_never_returned(cache, monkeypatch):
    cache.fill()
    monkeypatch.setitem(native.SIGNATURES, "ptc_missing", (ctypes.c_int, []))
    assert native.library() is None
    # Loaded from the cache, rebuilt there and loaded again, then built and
    # loaded in a temporary directory: every load lacked the function.
    assert [kind for kind, _ in cache.events] == ["load", "build", "load", "build", "load"]


def test_no_gcc_means_no_library_even_with_a_warm_cache(cache, monkeypatch):
    cache.fill()
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert native.library() is None and native.built() is None
    assert cache.events == []


def test_built_loads_a_warm_cache_and_builds_nothing_on_a_cold_one(cache):
    assert native.built() is None and cache.events == []
    assert native._library_cache_info().currsize == 0
    cache.fill()
    assert _works(native.built())
    assert cache.events == [("load", cache.entry)]


def _fresh(code, cache_home, cwd):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "XDG_CACHE_HOME": str(cache_home)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True
    )


def test_a_second_process_loads_the_cache_without_subprocess(tmp_path):
    code = (
        "import sys; from ptc_lab import native; "
        "print(native.library() is not None, 'subprocess' in sys.modules)"
    )
    first = _fresh(code, tmp_path / "cache", tmp_path)
    second = _fresh(code, tmp_path / "cache", tmp_path)
    assert (first.stdout, second.stdout) == ("True True\n", "True False\n")
    (entry,) = (tmp_path / "cache" / "ptc-lab").iterdir()
    assert entry.name.startswith("native-") and entry.suffix == ".so"


def test_output_is_byte_identical_with_a_cold_and_a_warm_cache(tmp_path):
    # simulate, then verify each trace, in one fresh process.
    code = (
        "import sys; from pathlib import Path; from ptc_lab.cli import main\n"
        f"print(main(['simulate', '--scenario', {str(ROOT / 'scenarios' / 'example2.json')!r},"
        " '--out-dir', 'out']))\n"
        "for csv in sorted(Path('out').glob('*.csv')): print(main(['verify', str(csv)]))\n"
    )
    runs = []
    for _ in range(2):  # cold, then warm
        work = tmp_path / f"run{len(runs)}"
        work.mkdir()
        out = _fresh(code, tmp_path / "cache", work)
        files = {p.name: p.read_bytes() for p in sorted((work / "out").iterdir())}
        runs.append((out.returncode, out.stdout, out.stderr, files))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and len(runs[0][3]) == 6
