"""Workload names, the fields each one builds during set-up, and the
reference loop that gauges machine speed for it (see speed.py).

Free of library imports, so the set-up probe can time `import rankfuzz`
itself in a fresh interpreter.
"""

WORKLOADS = ("auth-table", "auth-bigfield", "campaign")

# (q, m) of every field a workload uses, in the order set-up builds them.
FIELDS = {
    "auth-table": ((2, 16),),
    "auth-bigfield": ((2, 32),),
    "campaign": ((2, 8), (2, 6), (3, 4), (3, 5)),
}

# Reference loop whose slowdown under contention tracks the workload's.
# On a shared 2-core VM, lock, unlock and campaign trials slowed
# like the allocating loop; over ten seeds the big-field op_p50_ms
# spread 1.4% with the arithmetic loop against 6.4% with the other.
REFERENCE = {
    "auth-table": "allocating",
    "auth-bigfield": "arithmetic",
    "campaign": "allocating",
}
