"""Wall-clock benchmark of the consistent time service (see README.md)."""
