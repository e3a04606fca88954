"""Shared error types mapped to CLI exit codes (validation -> 2, limits -> 3)."""


class InstanceTooLargeError(RuntimeError):
    """Instance exceeds a size limit: the policy grid, the exhaustive ground state,
    dense enumeration, or the walk extension or frontier."""


class NoTruncationError(ValueError):
    """No truncation order up to ``k_max`` recovers an instance's optimal policy."""
