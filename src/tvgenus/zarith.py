"""The exact carrier under its former name: ZElt is CycNumber.

The benchmark's tracer (perfbench/tracing.py) counts exact multiplications
by wrapping tvgenus.zarith.ZElt.__mul__, so this name stays; the arithmetic
lives in cyclotomic.
"""

from .cyclotomic import CycNumber as ZElt

__all__ = ["ZElt"]
