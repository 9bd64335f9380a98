"""Planning toolkit for planar-grid capsule manufacturing.

Stages: synthetic order generation, tactical dispenser packing and placement,
operational mover scheduling with a makespan lower bound, and conflict-free
routing with batch merging.
"""

from .core import (
    Coord,
    DrugCatalog,
    InstanceConfig,
    Layout,
    Order,
    build_layout,
    manhattan,
    validate_instance,
)

__all__ = [
    "Coord",
    "DrugCatalog",
    "InstanceConfig",
    "Layout",
    "Order",
    "build_layout",
    "manhattan",
    "validate_instance",
]

__version__ = "0.1.0"
