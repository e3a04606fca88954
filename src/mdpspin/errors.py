"""Shared error types mapped to CLI exit codes (validation -> 2, limits -> 3)."""


class InstanceTooLargeError(RuntimeError):
    """Instance exceeds a size limit: exhaustive search, dense enumeration or the
    walk frontier."""
