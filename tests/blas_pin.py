"""A recording stand-in for OpenBLAS's thread-count setter.

`metaclf._one_blas_thread` asks `metaclf._blas_setter()` for the setter.
`record_setter` puts a `RecordingSetter` there, so a test can see which
counts an entry point sets on any BLAS, and `count_spy` reads the count
a BLAS-calling function runs at.
"""

from metaseg import metaclf


class RecordingSetter:
    """Holds a thread count, 4 at first, and records every count set."""

    def __init__(self):
        self.count = 4
        self.calls = []

    def __call__(self, n):
        self.calls.append(n)
        previous, self.count = self.count, n
        return previous


def record_setter(monkeypatch) -> RecordingSetter:
    setter = RecordingSetter()
    monkeypatch.setattr(metaclf, "_blas_setter", lambda: setter)
    return setter


def count_spy(monkeypatch, owner, name, setter, fail) -> list:
    """Replace `owner.name` with a function that records the setter's
    count at each call, then raises RuntimeError(name) if `fail`, else
    calls through.  Returns the recorded counts."""
    seen = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(setter.count)
        if fail:
            raise RuntimeError(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return seen
