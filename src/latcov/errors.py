"""Shared exception types and brute-force size caps."""

import os


class CapExceeded(ValueError):
    """Input is larger than the size cap of an exhaustive routine."""


class Infeasible(RuntimeError):
    """No feasible solution exists for the requested object."""


class Uncoverable(RuntimeError):
    """A valuation cannot reach 1 under any remaining action."""


class Unbounded(RuntimeError):
    """LP objective is unbounded (never expected for the models built here)."""


class SolverStall(RuntimeError):
    """Cutting-plane or phase loop made no progress within its iteration cap."""


def size_cap(default: int) -> int:
    """Brute-force size cap, overridable via the LATCOV_CAP env var.

    The override applies uniformly to every exhaustive routine; pushing it
    past the defaults is at the caller's risk (runtimes are exponential).
    """
    raw = os.environ.get("LATCOV_CAP")
    if raw is None:
        return default
    try:
        return max(int(raw), default)
    except ValueError:
        return default


def check_cap(what: str, size: int, default: int, unit: str = "n"):
    """Refuse `size` past size_cap(default), naming the cap in force."""
    cap = size_cap(default)
    if size > cap:
        raise CapExceeded(f"{what} capped at {unit}={cap}, got {unit}={size}")
