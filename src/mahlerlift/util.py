"""Shared helpers; none at present.

The module is kept because perfbench/tracer.py imports every layer module
by name, this one included.
"""

__all__ = []
