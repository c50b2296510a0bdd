"""A spy on the WAVA kernel's sweeps and tracebacks, shared by the tests'
``kernel_calls`` fixture and ``scripts/bench_wava.py``.

The spy wraps the private methods ``wava._Kernel.sweep``, ``.constrained`` and
``.traceback``, so a rename of any of them fails the tests that use it.
"""

from nestedtbcc import wava


def kernel_spies() -> tuple[list[tuple[str, int]], dict]:
    """A list that records every kernel sweep as (kind, columns), kind forward, backward
    or constrained (a sweep of `_Kernel.constrained`), and every traceback as
    ("traceback", columns); and, by method name, the wrappers that fill it once they
    are set on `wava._Kernel`."""
    calls, inside = [], []
    sweep, constrained, traceback = (wava._Kernel.sweep, wava._Kernel.constrained,
                                     wava._Kernel.traceback)

    def spy_sweep(kern, r_cols, P, bp, reverse=False):
        kind = "constrained" if inside else "backward" if reverse else "forward"
        calls.append((kind, P.shape[1]))
        return sweep(kern, r_cols, P, bp, reverse)

    def spy_constrained(kern, *args):
        inside.append(True)
        try:
            return constrained(kern, *args)
        finally:
            inside.pop()

    def spy_traceback(kern, bp, s, cols):
        calls.append(("traceback", len(cols)))
        return traceback(kern, bp, s, cols)

    return calls, {"sweep": spy_sweep, "constrained": spy_constrained,
                   "traceback": spy_traceback}
