"""Exact-arithmetic toolkit for the flickering central factorial triangle
(A395021), its companion array (A394582) and integer-only power sums.

Every route computes in plain Python integers (`Fraction` is left only in
the truncated series type `flick.series.SeriesQ`, which no route uses, and
in its `verify` check, and is imported only when a `SeriesQ` is built);
identities come with independent computation routes and the `verify` suite
cross-checks them all.  The package re-exports the names the demos and the
README use; every other name is imported from its submodule.  The
re-exports are loaded on first use, so `import flick` (and every `flick`
command) loads only the submodules it needs.
"""

import importlib

__version__ = "0.1.0"

# Each re-exported name and the submodule that defines it.
_SOURCES = {
    "antidiagonal_sums": "transforms",
    "base_poly": "todd",
    "bell_closed_form": "series",
    "bell_ogf_coefficients": "series",
    "bell_with_leading_one": "transforms",
    "binomial_transform": "transforms",
    "fallshift": "powersum",
    "fit_column_polynomial": "todd",
    "integral_basis": "powersum",
    "kernel": "transforms",
    "power_sum": "powersum",
    "power_sum_naive": "powersum",
    "row_sums": "transforms",
    "todd_column": "todd",
    "todd_finite_difference": "todd",
    "todd_recurrence": "todd",
    "todd_row": "todd",
    "todd_stirling": "todd",
    "triangle_entry_recurrence": "triangle",
    "triangle_rows": "triangle",
}

__all__ = list(_SOURCES)


def _lazy_getattr(namespace: dict, sources: dict[str, str]):
    """A module `__getattr__` (PEP 562) over `namespace`, a module's globals:
    each name in `sources` is imported from the flick submodule named there on
    first read and kept in `namespace`, so later reads skip the hook."""

    def __getattr__(name: str):
        if name not in sources:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f"flick.{sources[name]}"), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _lazy_getattr(globals(), _SOURCES)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
