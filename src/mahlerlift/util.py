"""Shared helpers.

The module is also kept because perfbench/tracer.py imports every layer
module by name.  ``__all__`` stays empty, so the tracer wraps nothing here.
"""

__all__ = []


def sparse_mul(a, b):
    """Product of two polynomials held as {exponent tuple: coefficient} dicts."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(key)
            out[key] = va * vb if s is None else s + va * vb
    return {k: v for k, v in out.items() if v != 0}
