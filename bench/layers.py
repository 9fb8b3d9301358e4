"""Where the traced run times `flick`, and how spans become per-layer metrics.

Only bindings that one module imports from another, or that a module calls
through its own globals, are replaced; the recursive
`flick.triangle.triangle_entry_recurrence` is wrapped where `flick.powersum`
imports it, never under its own name, so its recursion depth is unchanged.
A binding that no longer exists is reported as absent with the reason.
"""

from __future__ import annotations

import importlib
from typing import Any

from timing import Recorder


def _bits(args, kwargs, result) -> int:
    return result.bit_length()


def _recurrence_rows(args, kwargs, result) -> int:
    method = kwargs.get("method", args[1] if len(args) > 1 else "recurrence")
    return len(result) if method == "recurrence" else 0


def _length(args, kwargs, result) -> int:
    return len(result)


# (module, attribute, span name, keep one span per call, size)
BINDINGS: list[tuple[str, str, str, bool, Any]] = [
    ("flick.powersum", "power_sum", "powersum.eval", True, None),
    ("flick.cli", "power_sum", "powersum.eval", True, None),
    ("flick.verify", "power_sum", "powersum.eval", True, None),
    ("flick.powersum", "integral_basis", "powersum.basis", True, _bits),
    ("flick.powersum", "triangle_entry_recurrence", "triangle.coeff", False, None),
    ("flick.cli", "triangle_rows", "triangle.fill", True, _recurrence_rows),
    ("flick.transforms", "triangle_rows", "triangle.fill", True, _recurrence_rows),
    ("flick.verify", "triangle_rows", "triangle.fill", True, _recurrence_rows),
    ("flick.triangle", "triangle_row_extraction", "triangle.extract", True, None),
    ("flick.cli", "kernel", "transforms.kernel", True, None),
    ("flick.verify", "kernel", "transforms.kernel", True, None),
    ("flick.transforms", "inverse_binomial_transform", "transforms.inverse", True, None),
    ("flick.verify", "inverse_binomial_transform", "transforms.inverse", True, None),
    ("flick.cli", "row_sums", "transforms.row_sums", True, None),
    ("flick.transforms", "row_sums", "transforms.row_sums", True, None),
    ("flick.verify", "row_sums", "transforms.row_sums", True, None),
    ("flick.transforms", "antidiagonal_sums", "transforms.antidiagonal", True, None),
    ("flick.verify", "antidiagonal_sums", "transforms.antidiagonal", True, None),
    ("flick.todd", "todd_recurrence", "todd.grid", False, None),
    ("flick.transforms", "todd_recurrence", "todd.grid", False, None),
    ("flick.verify", "todd_recurrence", "todd.grid", False, None),
    ("flick.cli", "todd_row", "todd.grid", True, None),
    ("flick.cli", "todd_column", "todd.grid", True, None),
    ("flick.todd", "todd_finite_difference", "todd.fd", True, None),
    ("flick.verify", "todd_finite_difference", "todd.fd", True, None),
    ("flick.todd", "todd_stirling", "todd.stirling", True, None),
    ("flick.verify", "todd_stirling", "todd.stirling", True, None),
    ("flick.todd", "fit_column_polynomial", "todd.fit", True, None),
    ("flick.cli", "fit_column_polynomial", "todd.fit", True, None),
    ("flick.verify", "fit_column_polynomial", "todd.fit", True, None),
    ("flick.todd", "stirling2", "stirling.s2", False, None),
    ("flick.stirling", "stirling2", "stirling.s2", False, None),
    ("flick.verify", "stirling2", "stirling.s2", False, None),
    ("flick.stirling", "a008957_fd", "stirling.a008957", True, None),
    ("flick.stirling", "a008957_stirling", "stirling.a008957", True, None),
    ("flick.verify", "a008957_fd", "stirling.a008957", True, None),
    ("flick.verify", "a008957_stirling", "stirling.a008957", True, None),
    ("flick.series", "bell_closed_form", "series.closed_form", True, None),
    ("flick.verify", "bell_closed_form", "series.closed_form", True, None),
    ("flick.series", "bell_ogf_coefficients", "series.ogf", True, None),
    ("flick.verify", "bell_ogf_coefficients", "series.ogf", True, None),
    ("flick.series", "expand_rational", "series.expand", True, None),
    ("flick.cli", "expand_rational", "series.expand", True, None),
    ("flick.verify", "expand_rational", "series.expand", True, None),
    # In the benchmark's CLI mix every b-file text is a cache shard.
    ("flick.cli", "format_bfile", "bfile.format", True, None),
    ("flick.cli", "parse_bfile", "bfile.parse", True, None),
    ("flick.cli", "run_suite", "verify.suite", True, _length),
]

# Counted, not timed: (module, class, method, name).
COUNTERS = [("flick.series", "SeriesQ", "__mul__", "series.products")]

# metric -> (span name, field of Recorder.summary(), unit)
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "powersum.basis_s": ("powersum.basis", "total_s", "s"),
    "powersum.basis_calls": ("powersum.basis", "calls", "count"),
    "powersum.basis_bits": ("powersum.basis", "size", "bit"),
    "powersum.eval_s": ("powersum.eval", "total_s", "s"),
    "powersum.calls": ("powersum.eval", "calls", "count"),
    "triangle.coeff_s": ("triangle.coeff", "total_s", "s"),
    "triangle.coeff_calls": ("triangle.coeff", "calls", "count"),
    "triangle.fill_s": ("triangle.fill", "total_s", "s"),
    "triangle.fill_rows": ("triangle.fill", "size", "count"),
    "triangle.extract_s": ("triangle.extract", "total_s", "s"),
    "transforms.kernel_s": ("transforms.kernel", "total_s", "s"),
    "transforms.inverse_calls": ("transforms.inverse", "calls", "count"),
    "transforms.row_sums_s": ("transforms.row_sums", "total_s", "s"),
    "transforms.antidiagonal_s": ("transforms.antidiagonal", "total_s", "s"),
    "todd.grid_s": ("todd.grid", "total_s", "s"),
    "todd.fd_s": ("todd.fd", "total_s", "s"),
    "todd.stirling_s": ("todd.stirling", "total_s", "s"),
    "todd.fit_s": ("todd.fit", "total_s", "s"),
    "stirling.s2_s": ("stirling.s2", "total_s", "s"),
    "stirling.s2_calls": ("stirling.s2", "calls", "count"),
    "stirling.a008957_s": ("stirling.a008957", "total_s", "s"),
    "series.closed_form_s": ("series.closed_form", "total_s", "s"),
    "series.ogf_s": ("series.ogf", "total_s", "s"),
    "series.expand_s": ("series.expand", "total_s", "s"),
    "series.products": ("series.products", "calls", "count"),
    "bfile.format_s": ("bfile.format", "total_s", "s"),
    "bfile.parse_s": ("bfile.parse", "total_s", "s"),
    "bfile.shards_written": ("bfile.format", "calls", "count"),
    "bfile.shards_read": ("bfile.parse", "calls", "count"),
    "cli.startup_s": ("cli.startup", "total_s", "s"),
    "cli.main_self_s": ("cli.main", "self_s", "s"),
    "cli.output_bytes": ("cli.output", "size", "byte"),
    "verify.suite_s": ("verify.suite", "total_s", "s"),
    "verify.checks": ("verify.suite", "size", "count"),
}


def install(recorder: Recorder) -> dict[str, str]:
    """Wrap every binding that exists; return {span name: reason} for the
    names none of whose bindings could be found."""
    found: set[str] = set()
    missing: dict[str, str] = {}
    for module_name, attr, name, keep, size in BINDINGS:
        try:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
        except (ImportError, AttributeError) as exc:
            missing.setdefault(name, f"{module_name}.{attr}: {exc}")
            continue
        setattr(module, attr, recorder.wrap(fn, name, keep=keep, size=size))
        found.add(name)
    for module_name, cls_name, method, name in COUNTERS:
        try:
            cls = getattr(importlib.import_module(module_name), cls_name)
            fn = getattr(cls, method)
        except (ImportError, AttributeError) as exc:
            missing.setdefault(name, f"{module_name}.{cls_name}.{method}: {exc}")
            continue
        setattr(cls, method, recorder.counter(fn, name))
        found.add(name)
    return {name: reason for name, reason in missing.items() if name not in found}


def metrics(totals: dict[str, dict[str, float]], absent: dict[str, str]) -> dict[str, dict]:
    """Per-layer metrics from merged Recorder summaries; a layer that never
    ran reads 0, a layer whose bindings are gone is marked absent."""
    out = {}
    for metric, (name, field, unit) in PER_LAYER.items():
        entry = {"value": totals.get(name, {}).get(field, 0), "unit": unit}
        if name in absent:
            entry["absent"] = absent[name]
        out[metric] = entry
    return out


def merge(into: dict[str, dict[str, float]], totals: dict[str, dict[str, float]]) -> None:
    for name, fields in totals.items():
        target = into.setdefault(name, dict.fromkeys(fields, 0))
        for field, value in fields.items():
            target[field] += value
