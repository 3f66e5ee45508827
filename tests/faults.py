"""Write faults injected into ``ctxda.tensor.atomic_text``, through which
every output file of the package is written: checkpoints, the character-LM
cache, corpus splits and tags, histories, records, tables and charts."""

import builtins
import errno
import os

from ctxda import tensor


class _FullDisk:
    """A text file that takes ``budget`` characters, then raises ENOSPC."""

    def __init__(self, fh, budget: int):
        self.fh, self.left = fh, budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text: str) -> int:
        if len(text) > self.left:
            self.fh.write(text[: self.left])
            self.fh.flush()
            self.left = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.left -= len(text)
        return self.fh.write(text)


def fill_disk(monkeypatch, budget: int, applies=lambda path: True) -> None:
    """The writer's temporary files for which ``applies(path)`` holds take
    ``budget`` characters and then fail, half written."""
    def open_(file, *args, **kwargs):
        fh = builtins.open(file, *args, **kwargs)
        return _FullDisk(fh, budget) if applies(os.fspath(file)) else fh

    monkeypatch.setattr(tensor, "open", open_, raising=False)


def refuse_replace(monkeypatch, applies=lambda dst: True) -> None:
    """The writer's ``os.replace`` onto a ``dst`` for which ``applies(dst)``
    holds raises PermissionError; every other one goes through."""
    replace = os.replace

    def refuse(src, dst):
        if applies(os.fspath(dst)):
            raise PermissionError(f"cannot write {dst}")
        return replace(src, dst)

    monkeypatch.setattr(tensor.os, "replace", refuse)
