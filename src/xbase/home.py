"""Bootstrap home directory resolution.

The per-actor root store and root namer live under one directory, selected
by the XBASE_HOME environment variable with a platform user-data fallback.
Two processes given the same XBASE_HOME resolve the same paths. Within one
process, each root is opened once and shared until it is closed.
"""
from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from typing import Callable, TypeVar

ENV_VAR = "XBASE_HOME"
ROOT_STORE_FILENAME = "root.store"
ROOT_NAMER_FILENAME = "root.namer"

T = TypeVar("T")

# resolved path -> the open root store or root namer there
_roots: dict = {}
_roots_lock = threading.Lock()


def xbase_home(home: str | os.PathLike | None = None) -> Path:
    """Resolve the bootstrap directory, creating it if needed."""
    if home is not None:
        path = Path(home)
    else:
        env = os.environ.get(ENV_VAR)
        path = Path(env) if env else _user_data_dir() / "xbase"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _user_data_dir() -> Path:
    if sys.platform == "darwin":
        return Path.home() / "Library" / "Application Support"
    base = os.environ.get("XDG_DATA_HOME")
    return Path(base) if base else Path.home() / ".local" / "share"


def open_root(filename: str, opener: Callable[[Path], T],
              home: str | os.PathLike | None = None) -> T:
    """The bootstrap instance at <home>/filename, made by opener(path) on
    first use and again once it has been closed. Repeated calls in one
    process return the same instance for the same resolved home."""
    path = xbase_home(home) / filename
    with _roots_lock:
        root = _roots.get(path)
        if root is None or root.closed:
            root = _roots[path] = opener(path)
        return root


def root_is_open(filename: str, home: str | os.PathLike | None = None) -> bool:
    """Whether this process holds the bootstrap instance at <home>/filename open."""
    path = xbase_home(home) / filename
    with _roots_lock:
        root = _roots.get(path)
        return root is not None and not root.closed
