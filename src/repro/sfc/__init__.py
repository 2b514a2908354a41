"""Space-filling curves (Morton / Hilbert) for domain-based partitioning."""

from .curves import (
    hilbert_inverse,
    hilbert_inverse_nd,
    hilbert_key,
    hilbert_key_nd,
    max_order,
    morton_inverse,
    morton_inverse_nd,
    morton_key,
    morton_key_nd,
    sfc_key_nd,
    sfc_order,
    sfc_order_nd,
)

__all__ = [
    "hilbert_inverse",
    "hilbert_inverse_nd",
    "hilbert_key",
    "hilbert_key_nd",
    "max_order",
    "morton_inverse",
    "morton_inverse_nd",
    "morton_key",
    "morton_key_nd",
    "sfc_key_nd",
    "sfc_order",
    "sfc_order_nd",
]
